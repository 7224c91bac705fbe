import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexilen import backbone as bb
from flexilen import evaluation
from flexilen.config import BackboneConfig, BranchConfig, DataConfig
from flexilen.data import Normalizer, agent_table, generate_from_config, split_scenes, windows
from flexilen.evaluation import (
    LnStatReport,
    evaluate,
    generality_sweep,
    ln_statistics_probe,
    pe_deviation_report,
)

from oracles import evaluate_per_scene, ln_report_gap, ln_statistics_per_scene, route_bruteforce

TINY = BackboneConfig(d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3)


def displacement_oracle(samples, gt):
    """Brute-force per-agent, per-sample displacement loops."""
    k, n, t, _ = samples.shape
    ade_vals, fde_vals = [], []
    for agent in range(n):
        best_ade, best_fde = np.inf, np.inf
        for sample in range(k):
            disps = [
                np.sqrt(
                    (samples[sample, agent, step, 0] - gt[agent, step, 0]) ** 2
                    + (samples[sample, agent, step, 1] - gt[agent, step, 1]) ** 2
                )
                for step in range(t)
            ]
            best_ade = min(best_ade, sum(disps) / t)
            best_fde = min(best_fde, disps[-1])
        ade_vals.append(best_ade)
        fde_vals.append(best_fde)
    return float(np.mean(ade_vals)), float(np.mean(fde_vals))


# ------------------------------------------------------------------- metrics


def ade(samples, gt):
    """Best-of-K ADE averaged over agents, as ``evaluate`` averages it."""
    return float(np.mean(evaluation._per_agent_min_displacement(samples, gt)[0]))


def fde(samples, gt):
    """Best-of-K FDE averaged over agents."""
    return float(np.mean(evaluation._per_agent_min_displacement(samples, gt)[1]))


def test_exact_sample_gives_zero():
    gt = np.random.default_rng(0).normal(size=(3, 4, 2))
    assert ade(gt[None], gt) == 0.0
    assert fde(gt[None], gt) == 0.0


def test_hand_computed_unit_offset():
    pred = np.array([[[[0.0, 0.0], [1.0, 0.0]]]])  # (1, 1, 2, 2)
    gt = np.array([[[0.0, 1.0], [1.0, 1.0]]])
    assert ade(pred, gt) == pytest.approx(1.0)
    assert fde(pred, gt) == pytest.approx(1.0)


def test_extra_sample_cannot_increase_metric():
    r = np.random.default_rng(1)
    gt = r.normal(size=(3, 4, 2))
    good = r.normal(size=(1, 3, 4, 2))
    worse = good + 100.0
    both = np.concatenate([good, worse])
    assert ade(both, gt) <= ade(good, gt)
    assert fde(both, gt) <= fde(good, gt)


def test_fde_grows_linearly_with_offset():
    gt = np.zeros((1, 3, 2))
    one = gt.copy()[None]
    one[..., -1, 0] = 2.0
    two = gt.copy()[None]
    two[..., -1, 0] = 4.0
    assert fde(two, gt) == pytest.approx(2 * fde(one, gt))


@given(seed=st.integers(0, 100_000))
@settings(max_examples=200)
def test_metrics_match_bruteforce_oracle(seed):
    r = np.random.default_rng(seed)
    k, n, t = int(r.integers(1, 5)), int(r.integers(1, 4)), int(r.integers(2, 6))
    samples = r.normal(size=(k, n, t, 2))
    gt = r.normal(size=(n, t, 2))
    oracle_ade, oracle_fde = displacement_oracle(samples, gt)
    assert ade(samples, gt) == pytest.approx(oracle_ade, abs=1e-12)
    assert fde(samples, gt) == pytest.approx(oracle_fde, abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50)
def test_ade_monotone_in_nested_sample_sets(seed):
    r = np.random.default_rng(seed)
    samples = r.normal(size=(4, 2, 3, 2))
    gt = r.normal(size=(2, 3, 2))
    values = [ade(samples[:k], gt) for k in range(1, 5)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_metrics_translation_invariant():
    r = np.random.default_rng(3)
    samples = r.normal(size=(3, 2, 4, 2))
    gt = r.normal(size=(2, 4, 2))
    offset = np.array([13.7, -2.2])
    assert ade(samples + offset, gt + offset) == pytest.approx(ade(samples, gt), rel=1e-12)
    assert fde(samples + offset, gt + offset) == pytest.approx(fde(samples, gt), rel=1e-12)


def test_zero_samples_rejected():
    with pytest.raises(ValueError):
        ade(np.zeros((0, 1, 2, 2)), np.zeros((1, 2, 2)))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50)
def test_a_stack_of_scenes_equals_the_per_scene_displacements_byte_for_byte(seed):
    # samples (K, B, N, T, 2) against gt (B, N, T, 2): a stack of scenes
    r = np.random.default_rng(seed)
    k, b, n, t = (int(r.integers(1, hi)) for hi in (5, 5, 4, 6))
    samples = r.normal(size=(k, b, n, t, 2)) * 10.0 ** r.integers(-3, 4)
    gt = r.normal(size=(b, n, t, 2))
    stacked = evaluation._per_agent_min_displacement(samples, gt)
    for row in range(b):
        per_scene = evaluation._per_agent_min_displacement(samples[:, row], gt[row])
        for got, expected in zip(stacked, per_scene, strict=True):
            assert got[row].tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "samples, gt",
    [((2, 3, 4, 5, 2), (3, 4, 6, 2)), ((2, 3, 4, 5, 2), (3, 5, 5, 2)), ((2, 3, 4, 5, 2), (4, 5, 2)),
     ((2, 4, 5, 3), (4, 5, 2)), ((2, 5), (5,))],
    ids=["steps", "agents", "scene-axis", "coordinates", "no-steps"],
)
def test_displacement_rejects_a_trailing_shape_mismatch(samples, gt):
    with pytest.raises(ValueError, match="incompatible with gt"):
        evaluation._per_agent_min_displacement(np.zeros(samples), np.zeros(gt))


# ------------------------------------------------------------------ evaluate


@pytest.fixture(scope="module")
def eval_setup():
    scenes = generate_from_config(
        DataConfig(n_scenes=30, agents_min=2, agents_max=3, obs_len=4, horizon=3), 0
    )
    normalizer = Normalizer(horizon=3).fit(scenes)
    params = bb.init_params(TINY, {"S": 2, "M": 3, "L": 4}, 0)
    single = bb.init_params(TINY, {"L": 4}, 0)
    return scenes, normalizer, params, single


def test_evaluate_k_monotone(eval_setup):
    scenes, normalizer, params, _ = eval_setup
    m1 = evaluate(params, scenes, 4, 1, normalizer)
    m2 = evaluate(params, scenes, 4, 2, normalizer)
    assert m2.ade <= m1.ade + 1e-15


def test_evaluate_order_independent(eval_setup):
    scenes, normalizer, params, _ = eval_setup
    forward = evaluate(params, scenes, 4, 2, normalizer)
    backward = evaluate(params, list(reversed(scenes)), 4, 2, normalizer)
    assert forward.ade == backward.ade
    assert forward.fde == backward.fde


def test_evaluate_single_model_native(eval_setup):
    scenes, normalizer, _, single = eval_setup
    metrics = evaluate(single, scenes, 2, 2, normalizer)
    assert np.isfinite(metrics.ade)
    assert metrics.eval_length == 2


def test_evaluate_rejects_overlong_window(eval_setup):
    scenes, normalizer, params, _ = eval_setup
    with pytest.raises(ValueError):
        evaluate(params, scenes, 9, 2, normalizer)


@pytest.mark.parametrize("h_eval", [0, -2])
@pytest.mark.parametrize("kind", ["fln", "single"])
def test_evaluate_rejects_lengths_below_one(eval_setup, kind, h_eval):
    # observed[:, -h:] would select the whole history (h=0) or drop its head
    scenes, normalizer, params, single = eval_setup
    with pytest.raises(ValueError, match="observation length must be >= 1"):
        evaluate(params if kind == "fln" else single, scenes, h_eval, 2, normalizer)


# --------------------------------------------------------------------- sweep


def test_generality_sweep_routing_matches_oracle(eval_setup):
    scenes, normalizer, params, _ = eval_setup
    rows = generality_sweep(params, scenes[:5], [2, 3, 4], 2, normalizer)
    assert len(rows) == 3
    for row in rows:
        assert np.isfinite(row.ade) and np.isfinite(row.fde)
        assert row.branch == route_bruteforce(row.eval_length, params.lengths)


# ------------------------------------------------- evaluation of the table


@pytest.fixture(scope="module")
def table_setup():
    """2-4 agents and 5-step histories, so that the table mixes scene sizes;
    TINY single-length models (trained length 4) with sinusoidal and with
    learnable PE, and a TINY FLN model."""
    scenes = generate_from_config(
        DataConfig(n_scenes=24, agents_min=2, agents_max=4, obs_len=5, horizon=3), 4
    )
    normalizer = Normalizer(horizon=3).fit(scenes)
    assert set(np.diff(agent_table(scenes, normalizer).starts).tolist()) == {2, 3, 4}
    learnable = dataclasses.replace(TINY, pe_kind="learnable")
    models = {
        "single": bb.init_params(TINY, {"L": 4}, 3),
        "single-learnable": bb.init_params(learnable, {"L": 4}, 3),
        "fln": bb.init_params(TINY, {"S": 2, "M": 3, "L": 4}, 3),
    }
    return scenes, normalizer, models


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("sampling, k", [("mode-means", 2), ("stochastic", 3)])
@pytest.mark.parametrize(
    "model, h_eval",
    [("single", 2), ("single", 4), ("single", 5), ("single-learnable", 2),
     ("single-learnable", 4), ("fln", 2), ("fln", 5)],
)
def test_evaluate_equals_the_per_scene_loop_bit_for_bit(
    table_setup, model, h_eval, sampling, k, reverse
):
    # a single-length model at, below and (sinusoidal PE only) above its
    # trained length 4; the FLN model's per-scene forwards at a branch length
    # and above every branch
    scenes, normalizer, models = table_setup
    ordered = list(reversed(scenes)) if reverse else scenes
    got = evaluate(models[model], ordered, h_eval, k, normalizer, sampling, seed=7)
    assert got == evaluate_per_scene(models[model], ordered, h_eval, k, normalizer, sampling, 7)


def _counting(calls: list, function):
    def counted(obs, *args, **kwargs):
        result = function(obs, *args, **kwargs)
        calls.append((obs.shape, result[1] if isinstance(result, tuple) else "-"))
        return result

    return counted


def _counting_transforms(monkeypatch) -> list:
    calls = []
    original = Normalizer.transform

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Normalizer, "transform", counted)
    return calls


def test_evaluate_routes_one_scene_per_call_and_the_sweep_normalizes_once(
    table_setup, monkeypatch
):
    # the benchmark's traced eval_sweep checks routing by counting
    # forward_routed calls, so a routed model keeps one per scene; the
    # scenes' predictions are then drawn from, and scored, together; the
    # sweep normalizes its table once, whatever the number of lengths
    scenes, normalizer, models = table_setup
    agents = [s.n_agents for s in sorted(scenes, key=lambda s: s.scene_id)]
    routed, drawn = [], []
    monkeypatch.setattr(evaluation, "forward_routed", _counting(routed, evaluation.forward_routed))
    original_draw = evaluation.draw_samples

    def counted_draw(pred, *args, **kwargs):
        drawn.append(pred.means.shape[:1])
        return original_draw(pred, *args, **kwargs)

    monkeypatch.setattr(evaluation, "draw_samples", counted_draw)
    transforms = _counting_transforms(monkeypatch)
    lengths = [2, 3, 4, 5]
    for sampling in ("stochastic", "mode-means"):
        rows = generality_sweep(models["fln"], scenes, lengths, 2, normalizer, sampling)
        assert len(transforms) == 1
        assert len(routed) == len(lengths) * len(scenes)
        assert drawn == [(sum(agents),)] * len(lengths)
        for h, row in zip(lengths, rows):
            calls = routed[:len(scenes)]
            del routed[:len(scenes)]
            assert [shape for shape, _ in calls] == [(n, h, 2) for n in agents]
            assert {branch for _, branch in calls} == {row.branch}
            assert row.branch == route_bruteforce(h, models["fln"].lengths)
        transforms.clear()
        drawn.clear()


@pytest.mark.parametrize("model", ["single", "single-learnable", "fln"])
@pytest.mark.parametrize("sampling", ["mode-means", "stochastic"])
def test_sweep_equals_per_length_evaluate_bit_for_bit(table_setup, model, sampling, monkeypatch):
    scenes, normalizer, models = table_setup
    params = models[model]
    lengths = [2, 3, 4] if model == "single-learnable" else [2, 3, 4, 5]  # a table has 4 rows
    transforms = _counting_transforms(monkeypatch)
    rows = generality_sweep(params, scenes, lengths, 2, normalizer, sampling, seed=3)
    assert len(transforms) == 1
    for h, row in zip(lengths, rows, strict=True):
        assert row == evaluate(params, scenes, h, 2, normalizer, sampling, seed=3)


@pytest.mark.parametrize("sampling", ["mode-means", "stochastic"])
def test_evaluate_runs_a_single_length_model_once_per_length(table_setup, sampling, monkeypatch):
    scenes, normalizer, models = table_setup
    n_agents = sum(s.n_agents for s in scenes)
    forwards = []
    monkeypatch.setattr(evaluation.bb, "forward_single", _counting(forwards, bb.forward_single))
    for h in (2, 4, 5):
        evaluate(models["single"], scenes, h, 2, normalizer, sampling)
        assert [shape for shape, _ in forwards] == [(n_agents, h, 2)]
        forwards.clear()


@pytest.fixture(scope="module")
def one_agent_setup():
    """Scenes of one agent each, a TINY single-length and a TINY FLN model."""
    scenes = generate_from_config(
        DataConfig(n_scenes=24, agents_min=1, agents_max=1, obs_len=5, horizon=3), 4
    )
    normalizer = Normalizer(horizon=3).fit(scenes)
    single = bb.init_params(TINY, {"L": 4}, 3)
    fln = bb.init_params(TINY, {"S": 2, "M": 3, "L": 4}, 3)
    return scenes, normalizer, single, fln


def _scored_flat(pred, scenes, normalizer, k):
    """Mode-means ADE and FDE of one prediction over every agent of the
    table of ``scenes``: the table's scoring, without its forward."""
    table = agent_table(scenes, normalizer)
    samples = normalizer.inverse(evaluation.draw_samples(pred, k), table.frames)
    per_ade, per_fde = evaluation._per_agent_min_displacement(samples, table.future_m)
    return float(per_ade.mean()), float(per_fde.mean())


@pytest.mark.parametrize("h", [2, 4, 5])
def test_one_agent_scenes_score_as_one_flat_forward(one_agent_setup, h):
    # a one-agent scene forwarded alone is a one-row product, which numpy
    # runs as GEMV: the routed sweep's per-scene forwards agree with one
    # flat forward of the table to 1e-12, and a single-length model, which
    # runs that one flat forward, scores it bit for bit
    scenes, normalizer, single, fln = one_agent_setup
    obs = windows(agent_table(scenes, normalizer), h)
    with evaluation.ad.no_grad():
        flat_single = bb.forward_single(obs, single)
        flat_routed, _ = evaluation.forward_routed(obs, fln)
    got = evaluate(single, scenes, h, 2, normalizer)
    assert (got.ade, got.fde) == _scored_flat(flat_single, scenes, normalizer, 2)
    (row,) = generality_sweep(fln, scenes, [h], 2, normalizer)
    expected = _scored_flat(flat_routed, scenes, normalizer, 2)
    np.testing.assert_allclose((row.ade, row.fde), expected, rtol=0, atol=1e-12)


# -------------------------------------------------------------------- probes


def test_pe_deviation_zero_iff_equal_lengths():
    report = pe_deviation_report(TINY, 4, 4)
    np.testing.assert_array_equal(report.distances, np.zeros(4))
    report = pe_deviation_report(BackboneConfig(d_model=4, heads=2, horizon=3), 2, 8)
    assert report.distances.shape == (2,)
    assert np.all(report.distances > 0)


def test_pe_deviation_learnable_tables():
    r = np.random.default_rng(4)
    t1, t2 = r.normal(size=(4, 8)), r.normal(size=(6, 8))
    report = pe_deviation_report(TINY, 4, 6, tables=(t1, t2))
    np.testing.assert_allclose(
        report.distances, np.linalg.norm(t1 - t2[:4], axis=1), rtol=1e-12
    )


def test_ln_probe_deterministic_and_shaped(eval_setup):
    scenes, normalizer, params, _ = eval_setup
    report_a = ln_statistics_probe(params, scenes[:5], 4, normalizer)
    report_b = ln_statistics_probe(params, scenes[:5], 4, normalizer)
    assert set(report_a.sites) == {"enc.l0.norm1", "enc.l0.norm2", "enc.final_norm"}
    for site, stats in report_a.sites.items():
        assert stats.shape == (4, 2)
        np.testing.assert_array_equal(stats, report_b.sites[site])
    assert report_a.branch == "L"


def test_ln_probe_reports_every_position_of_every_layer(eval_setup):
    scenes, normalizer, _, _ = eval_setup
    cfg = BackboneConfig(d_model=8, heads=2, layers=2, dec_hidden=16, modes=2, horizon=3)
    params = bb.init_params(cfg, {"S": 2, "M": 3, "L": 4}, 0)
    report = ln_statistics_probe(params, scenes[:5], 4, normalizer)
    encoder_sites = {site for site in bb.ln_sites(cfg) if site.startswith("enc.")}
    assert set(report.sites) == encoder_sites
    for stats in report.sites.values():
        assert stats.shape == (4, 2)


def test_ln_probe_rejects_lengths_below_every_branch(eval_setup):
    scenes, normalizer, params, _ = eval_setup
    with pytest.raises(ValueError, match="no branch can be fed"):
        ln_statistics_probe(params, scenes[:5], 1, normalizer)
    with pytest.raises(ValueError, match="no branch can be fed"):
        evaluate(params, scenes[:5], 1, 2, normalizer)


@pytest.mark.parametrize("h_eval", [2, 3, 4])
@pytest.mark.parametrize("kind", ["fln", "single"])
def test_ln_probe_equals_the_per_scene_loop_bit_for_bit(kind, h_eval):
    # 2-4 agents and 5-step histories: scenes of several sizes in one table,
    # and for the FLN model every branch, at and below its window
    scenes = generate_from_config(
        DataConfig(n_scenes=24, agents_min=2, agents_max=4, obs_len=5, horizon=3), 4
    )
    normalizer = Normalizer(horizon=3).fit(scenes)
    cfg = BackboneConfig(d_model=8, heads=2, layers=2, dec_hidden=16, modes=2, horizon=3)
    lengths = {"S": 2, "M": 3, "L": 4} if kind == "fln" else {"L": 4}
    params = bb.init_params(cfg, lengths, 3)
    report = ln_statistics_probe(params, scenes, h_eval, normalizer)
    oracle = ln_statistics_per_scene(params, list(reversed(scenes)), h_eval, normalizer)
    assert list(report.sites) == list(oracle)
    for site, stats in oracle.items():
        assert report.sites[site].tobytes() == stats.tobytes(), site


def test_ln_probe_rejects_an_empty_scene_set(eval_setup):
    _, normalizer, params, _ = eval_setup
    with pytest.raises(ValueError, match="no scenes to probe"):
        ln_statistics_probe(params, [], 4, normalizer)


def test_ln_report_gap_suffix_aligned():
    a = LnStatReport(length=2, branch="S", sites={"enc.l0.norm1": np.array([[1.0, 0.1], [2.0, 0.1]])})
    b = LnStatReport(
        length=4,
        branch="L",
        sites={"enc.l0.norm1": np.array([[9.0, 0.1], [9.0, 0.1], [1.5, 0.1], [2.25, 0.1]])},
    )
    assert ln_report_gap(a, b) == pytest.approx(0.5)


# --------------------------------------------------- converged-model contract


def test_converged_tiny_model_extrapolates_noiseless_cv():
    """On noiseless constant-velocity data the trained model must come close
    to the exact linear extrapolation (ADE < 0.05 in generator units)."""
    from flexilen.config import EvalConfig, RunConfig, TrainConfig
    from flexilen.training import train_isolated

    cfg = RunConfig(
        backbone=BackboneConfig(d_model=16, heads=2, layers=1, dec_hidden=32, modes=2, horizon=3),
        branches=BranchConfig(h_short=2, h_medium=3, h_long=4),
        data=DataConfig(
            n_scenes=250, agents_min=2, agents_max=3, obs_len=4, horizon=3,
            noise_sigma=0.0, motion_cv=1.0, motion_turn=0.0, motion_stop=0.0,
        ),
        train=TrainConfig(strategy="isolated", epochs=120, batch_size=32, lr=2e-3,
                          isolated_length=4),
        eval=EvalConfig(samples=2),
        seed=0,
    )
    cfg.validate()
    scenes = generate_from_config(cfg.data, cfg.seed)
    split = split_scenes(scenes, cfg.data.train_frac, cfg.data.val_frac)
    normalizer = Normalizer(cfg.data.horizon).fit(split.train)
    params, _ = train_isolated(split, cfg, 4, normalizer=normalizer)
    metrics = evaluate(params, split.test, 4, 2, normalizer)
    assert metrics.ade < 0.05


def test_metrics_invariant_under_scene_translation(eval_setup):
    """The full pipeline reports meters: moving scenes rigidly, by a
    translation or by a rotation about an arbitrary point, changes nothing,
    because each agent's frame absorbs the motion before the model and
    restores it before the metric."""
    from flexilen.data import TrajectoryScene

    scenes, normalizer, params, _ = eval_setup
    pivot, angle = np.array([250.0, -80.0]), 0.7
    turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    baseline = evaluate(params, scenes[:10], 4, 2, normalizer)
    for move in (lambda p: p + pivot, lambda p: (p - pivot) @ turn.T + pivot):
        moved = [TrajectoryScene(move(s.positions), s.dt, s.scene_id) for s in scenes[:10]]
        metrics = evaluate(params, moved, 4, 2, normalizer)
        assert metrics.ade == pytest.approx(baseline.ade, rel=1e-9)
        assert metrics.fde == pytest.approx(baseline.fde, rel=1e-9)

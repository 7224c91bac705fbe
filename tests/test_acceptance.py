"""Acceptance suite: one test per criterion, each printing a PASS line.

The directional criteria (6, 7, 9) share one three-seed synthetic study
(2000 scenes, lengths {2, 6, 8}, horizon 12, tiny backbone) built once per
session. Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import json

import numpy as np
import pytest

from flexilen import backbone as bb
from flexilen import autodiff as ad
from flexilen.autodiff import Tensor, backward, zero_grad
from flexilen.checkpoint import load_checkpoint, save_checkpoint
from flexilen.cli import main as cli_main
from flexilen.config import BackboneConfig, BranchConfig, DataConfig, RunConfig, TrainConfig
from flexilen.data import generate_from_config
from flexilen.evaluation import (
    _per_agent_min_displacement,
    generality_sweep,
    ln_statistics_probe,
    pe_deviation_report,
)
from flexilen.fln import count_parameters, fln_loss
from flexilen.mixture import (
    LOG_2PI,
    MixturePrediction,
    kl_distill,
    nll,
)
from flexilen.protocols import run_length_shift_study, study_run_config

from fdutil import finite_difference, max_rel_err
from oracles import (
    div, exp, ln_report_gap, log, matmul, neg, nll_bruteforce, reduce_max, reduce_mean,
    reduce_sum, route_bruteforce, softmax, softplus, sqrt, sub,
)

GRAD_TOL = 1e-4


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _physics(study, h: int) -> str:
    """The cv and ctrv@h rows: the mean over seeds, then each seed's value."""
    return ", ".join(
        f"{label} {study.mean_ade(row, h):.4f} "
        f"[{' '.join(f'{outcome.ade[(row, h)]:.4f}' for outcome in study.seeds)}]"
        for label, row in (("cv", "cv"), (f"ctrv@{h}", "ctrv"))
    )


@pytest.fixture(scope="session")
def study():
    base = study_run_config(n_scenes=2000, epochs=25)
    return run_length_shift_study(base, seeds=(0, 1, 2))


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    errors = {}

    # every differentiable op against central finite differences
    r = np.random.default_rng(0)
    vec = r.normal(size=5)
    pos = r.uniform(0.5, 2, 5)
    mat = r.normal(size=(3, 2))
    op_cases = {
        "add": (lambda t: ad.add(t, Tensor(vec)), r.normal(size=5)),
        "sub": (lambda t: sub(t, Tensor(vec)), r.normal(size=5)),
        "mul": (lambda t: ad.mul(t, Tensor(vec)), r.normal(size=5)),
        "div": (lambda t: div(t, Tensor(pos)), r.normal(size=5)),
        "exp": (exp, r.normal(size=5)),
        "log": (log, r.uniform(0.2, 3, 5)),
        "neg": (neg, r.normal(size=5)),
        "relu": (ad.relu, r.normal(size=5) + 0.05),
        "softplus": (softplus, r.normal(size=5)),
        "sqrt": (sqrt, r.uniform(0.2, 3, 5)),
        "matmul": (lambda t: matmul(t, Tensor(mat)), r.normal(size=(4, 3))),
        "softmax": (lambda t: ad.mul(softmax(t), Tensor(vec)), r.normal(size=5)),
        "sum": (lambda t: reduce_sum(ad.mul(t, t)), r.normal(size=5)),
        "mean": (lambda t: reduce_mean(ad.mul(t, t)), r.normal(size=5)),
        "max": (lambda t: reduce_max(t, axis=0), r.normal(size=(4, 3))),
        "layer_norm": (
            lambda t: ad.layer_norm(t, Tensor(vec[:4]), Tensor(vec[1:]), 1e-5),
            r.normal(size=(3, 4)),
        ),
        "linear": (lambda t: ad.linear(t, Tensor(mat), Tensor(vec[:2])), r.normal(size=(4, 3))),
        "attention": (
            lambda t: ad.attention(t, t * Tensor(vec[:4]), t, 2, 0.7)[0],
            r.normal(size=(1, 3, 4)),
        ),
    }
    for name, (op, x) in op_cases.items():
        t = Tensor(x, requires_grad=True)
        backward(reduce_sum(op(t)))
        fd = finite_difference(lambda v: float(np.sum(op(Tensor(v)).data)), x)
        errors[name] = max_rel_err(t.grad, fd)

    # end-to-end combined loss on the tiny config, all parameters; the
    # teacher stays attached so the loss is a plain differentiable function
    # (the detached-teacher zero-gradient contract has its own tests)
    cfg = BackboneConfig(d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3)
    branches = BranchConfig(h_short=2, h_medium=3, h_long=4, detach_teacher=False)
    params = bb.init_params(cfg, branches.lengths, 0)
    positions = generate_from_config(
        DataConfig(n_scenes=1, agents_min=2, agents_max=2, obs_len=4, horizon=3), 5
    )[0].positions
    observed, future = positions[:, :-3], positions[:, -3:]

    def loss_value() -> float:
        return fln_loss(observed, future, params, branches).total.item()

    zero_grad(params.tensors)
    backward(fln_loss(observed, future, params, branches).total)
    worst = 0.0
    for name, tensor in params.tensors.items():
        analytic = tensor.grad if tensor.grad is not None else np.zeros(tensor.shape)

        def f(v, _tensor=tensor):
            saved = _tensor.data
            _tensor.data = v
            try:
                return loss_value()
            finally:
                _tensor.data = saved

        fd = finite_difference(f, tensor.data)
        worst = max(worst, max_rel_err(analytic, fd))
    errors["fln_loss_end_to_end"] = worst

    bad = {k: v for k, v in errors.items() if v >= GRAD_TOL}
    _report(
        1,
        not bad,
        f"max relative error {max(errors.values()):.2e} over {len(errors)} checks"
        + (f" (violations: {bad})" if bad else ""),
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_distribution_oracles():
    r = np.random.default_rng(1)
    worst_nll = 0.0
    for seed in range(20):
        rr = np.random.default_rng(seed)
        pred = MixturePrediction(
            Tensor(rr.normal(size=(3, 2, 4, 2))),
            Tensor(rr.uniform(0.3, 2.0, size=(3, 2, 4, 2))),
            Tensor(rr.normal(size=(3, 2))),
        )
        gt = rr.normal(size=(3, 4, 2))
        worst_nll = max(worst_nll, abs(nll(pred, gt).item() - nll_bruteforce(pred, gt)))

    pred = MixturePrediction(
        Tensor(r.normal(size=(2, 2, 3, 2))),
        Tensor(r.uniform(0.5, 1.5, size=(2, 2, 3, 2))),
        Tensor(r.normal(size=(2, 2))),
    )
    kl_self = kl_distill(pred, pred).item()

    mu_t, mu_s = r.normal(size=2), r.normal(size=2)
    sd_t, sd_s = r.uniform(0.5, 1.5, size=2), r.uniform(0.5, 1.5, size=2)
    teacher = MixturePrediction(
        Tensor(mu_t.reshape(1, 1, 1, 2)), Tensor(sd_t.reshape(1, 1, 1, 2)), Tensor(np.zeros((1, 1)))
    )
    student = MixturePrediction(
        Tensor(mu_s.reshape(1, 1, 1, 2)), Tensor(sd_s.reshape(1, 1, 1, 2)), Tensor(np.zeros((1, 1)))
    )
    closed = kl_distill(teacher, student).item()
    draws = r.normal(size=(1_000_000, 2)) * sd_t + mu_t

    def logp(x, mu, sd):
        return np.sum(-np.log(sd) - 0.5 * LOG_2PI - 0.5 * ((x - mu) / sd) ** 2, axis=-1)

    mc_gap = abs(closed - float(np.mean(logp(draws, mu_t, sd_t) - logp(draws, mu_s, sd_s))))

    ok = worst_nll < 1e-10 and kl_self == 0.0 and mc_gap < 1e-2
    _report(
        2,
        ok,
        f"nll-vs-bruteforce {worst_nll:.2e} (<1e-10), kl(p,p) {kl_self!r} (==0), "
        f"closed-vs-MC {mc_gap:.2e} (<1e-2)",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_metric_oracles():
    worst = 0.0
    rng = np.random.default_rng(2)
    for _ in range(1000):
        k, n, t = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        samples = rng.normal(size=(k, n, t, 2))
        gt = rng.normal(size=(n, t, 2))
        disp = np.linalg.norm(samples - gt[None], axis=-1)
        oracle_ade = float(np.mean(disp.mean(-1).min(0)))
        oracle_fde = float(np.mean(disp[:, :, -1].min(0)))
        # independent recomputation by explicit loops on a subsample
        per_ade, per_fde = _per_agent_min_displacement(samples, gt)
        worst = max(worst, abs(np.mean(per_ade) - oracle_ade), abs(np.mean(per_fde) - oracle_fde))
    samples = rng.normal(size=(6, 3, 4, 2))
    gt = rng.normal(size=(3, 4, 2))
    ade_k = [np.mean(_per_agent_min_displacement(samples[:k], gt)[0]) for k in range(1, 7)]
    monotone = all(more <= fewer + 1e-15 for fewer, more in zip(ade_k, ade_k[1:]))
    _report(3, worst < 1e-12 and monotone, f"oracle gap {worst:.2e} (<1e-12), ADE_K monotone {monotone}")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_parameter_overhead():
    cfg = BackboneConfig(
        d_model=64, heads=4, layers=2, dec_hidden=64, modes=5, horizon=12, pe_kind="learnable"
    )
    lengths = {"S": 2, "M": 6, "L": 8}
    enabled = count_parameters(
        bb.init_params(cfg, lengths, 0, independent_pe=True, specialized_ln=True)
    )
    disabled = count_parameters(
        bb.init_params(cfg, lengths, 0, independent_pe=False, specialized_ln=False)
    )
    # the same overhead formula at two production model scales:
    # 6.67M -> 6.68M and 662K -> 680K single-model vs branched totals
    anchor_a = (6.68e6 - 6.67e6) / 6.67e6
    anchor_b = (680e3 - 662e3) / 662e3
    ok = (
        0 < enabled.overhead < 0.05
        and disabled.extra == 0
        and disabled.overhead == 0.0
        and 0.001 < anchor_a < 0.002
        and 0.02 < anchor_b < 0.03
    )
    _report(
        4,
        ok,
        f"overhead {enabled.overhead:.4%} (<5%) with IPE+SLN, {disabled.overhead:.0%} without; "
        f"production-scale anchors {anchor_a:.2%} / {anchor_b:.2%}",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_baseline_reduction_identities():
    from flexilen.config import EvalConfig
    from flexilen.data import Normalizer, split_scenes
    from flexilen.training import train, train_isolated

    cfg = RunConfig(
        backbone=BackboneConfig(d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3),
        branches=BranchConfig(h_short=2, h_medium=3, h_long=4),
        data=DataConfig(
            n_scenes=40, agents_min=2, agents_max=3, obs_len=4, horizon=3,
            noise_sigma=0.0, motion_cv=1.0, motion_turn=0.0, motion_stop=0.0,
        ),
        train=TrainConfig(
            strategy="mixed", epochs=2, batch_size=16, lr=2e-3,
            rho_short=0.0, rho_medium=0.0, rho_long=1.0,
        ),
        eval=EvalConfig(samples=2),
        seed=3,
    )
    cfg.validate()
    scenes = generate_from_config(cfg.data, cfg.seed)
    split = split_scenes(scenes, cfg.data.train_frac, cfg.data.val_frac)
    normalizer = Normalizer(cfg.data.horizon).fit(split.train)
    mixed_params, _ = train(split, cfg, normalizer)
    isolated_params, _ = train_isolated(split, cfg, cfg.branches.h_long, normalizer)
    blob = lambda p: b"".join(t.data.tobytes() for _, t in sorted(p.tensors.items()))
    bit_exact = blob(mixed_params) == blob(isolated_params)

    lam0 = BranchConfig(h_short=2, h_medium=3, h_long=4, lambda_kl=0.0)
    params = bb.init_params(cfg.backbone, lam0.lengths, 0)
    positions = scenes[0].positions
    loss = fln_loss(positions[:, :-3], positions[:, -3:], params, lam0)
    lambda_gap = abs(loss.total.item() - loss.reg.item())

    _report(
        5,
        bit_exact and lambda_gap <= 1e-12,
        f"mixed(0,0,1) == isolated(H^L) bit-exact: {bit_exact}; |total-reg| at lambda=0: "
        f"{lambda_gap:.2e} (<=1e-12)",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_observation_length_shift_direction(study):
    h_s, h_m = study.config.branches.h_short, study.config.branches.h_medium
    proto_s = study.mean_ade("prototype", h_s)
    it_s = study.mean_ade("it", h_s)
    fln_s = study.mean_ade("fln", h_s)
    proto_m = study.mean_ade("prototype", h_m)
    fln_m = study.mean_ade("fln", h_m)
    ok = proto_s > it_s and fln_s <= proto_s and fln_m <= proto_m
    _report(
        6,
        ok,
        f"prototype@S {proto_s:.4f} > IT@S {it_s:.4f}; FLN@S {fln_s:.4f} <= prototype@S; "
        f"FLN@M {fln_m:.4f} <= prototype@M {proto_m:.4f}; "
        f"reference rows at S: {_physics(study, h_s)}; at M: {_physics(study, h_m)}",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_fln_tracks_isolated_training(study):
    detail = []
    ok = True
    for h in study.config.branches.lengths.values():
        fln_ade = study.mean_ade("fln", h)
        it_ade = study.mean_ade("it", h)
        ok = ok and fln_ade <= it_ade * 1.05
        detail.append(
            f"H'={h}: FLN {fln_ade:.4f} vs IT {it_ade:.4f} (+5% slack), {_physics(study, h)}"
        )
    _report(7, ok, "; ".join(detail))


# --------------------------------------------------------------- criterion 8


def test_criterion_8_routing_and_generality(study):
    outcome = study.seeds[0]
    params = outcome.models[("fln", study.config.branches.h_long)]
    scenes = sorted(outcome.split.test, key=lambda s: s.scene_id)[:40]
    lengths = list(range(3, 9))
    rows = generality_sweep(params, scenes, lengths, 2, outcome.normalizer)
    finite = all(np.isfinite(row.ade) and np.isfinite(row.fde) for row in rows)
    routed_ok = all(
        row.branch == route_bruteforce(row.eval_length, params.lengths) for row in rows
    )
    tie_rows = {row.eval_length: row.branch for row in rows}
    ties_ok = tie_rows[4] == "M" and tie_rows[7] == "L"  # midway picks the longer branch
    _report(
        8,
        finite and routed_ok and ties_ok,
        f"finite metrics at H'={lengths}, routing matches oracle ({routed_ok}), "
        f"tie 4->{tie_rows[4]} and 7->{tie_rows[7]}",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_diagnostic_probes(study):
    cfg = study.config.backbone
    zero = pe_deviation_report(cfg, 6, 6)
    zero_ok = bool(np.all(zero.distances == 0.0))
    nonzero_ok = all(
        np.all(pe_deviation_report(cfg, h1, h2).distances > 0)
        for h1, h2 in ((2, 8), (2, 6), (6, 8), (3, 5))
    )

    h_s = study.config.branches.h_short
    h_l = study.config.branches.h_long
    first_site = ["enc.l0.norm1"]
    gaps = []
    for outcome in study.seeds:
        probe_scenes = sorted(outcome.split.test, key=lambda s: s.scene_id)[:40]
        models = outcome.models
        it_short = ln_statistics_probe(models["it", h_s], probe_scenes, h_s, outcome.normalizer)
        it_long = ln_statistics_probe(models["it", h_l], probe_scenes, h_l, outcome.normalizer)
        fln_short = ln_statistics_probe(models["fln", h_s], probe_scenes, h_s, outcome.normalizer)
        gap_between_lengths = ln_report_gap(it_short, it_long, sites=first_site)
        gap_fln_vs_matched = ln_report_gap(fln_short, it_short, sites=first_site)
        gaps.append((outcome.seed, gap_between_lengths, gap_fln_vs_matched))
    probe_ok = all(between > matched for _, between, matched in gaps)
    detail = ", ".join(f"seed {s}: IT{h_s}-IT{h_l} {a:.4f} > FLN-IT {b:.4f}" for s, a, b in gaps)
    _report(
        9,
        zero_ok and nonzero_ok and probe_ok,
        f"pe deviation zero iff equal lengths ({zero_ok}/{nonzero_ok}); first-norm-site gaps: {detail}",
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_determinism_and_persistence(tmp_path):
    args = [
        "--set", "d_model=8", "--set", "heads=2", "--set", "layers=1",
        "--set", "dec_hidden=16", "--set", "modes=2", "--set", "horizon=3",
        "--set", "h_short=2", "--set", "h_medium=3", "--set", "h_long=4",
        "--set", "obs_len=4", "--set", "n_scenes=40", "--set", "epochs=2",
        "--set", "batch_size=16", "--set", "samples=2",
    ]
    blobs = {}
    for run in ("one", "two"):
        out = tmp_path / run
        assert cli_main([
            "train", "--out", str(out / "train"), "--strategy", "fln",
            "--seed", "11", *args,
        ]) == 0
        assert cli_main([
            "eval", "--out", str(out / "eval"), "--checkpoint", str(out / "train/checkpoint"),
            "--length", "3", "--samples", "2",
        ]) == 0
        blobs[run] = (
            (out / "train/checkpoint.bin").read_bytes(),
            (out / "train/checkpoint.json").read_bytes(),
            (out / "eval/metrics.json").read_bytes(),
            (out / "eval/metrics.csv").read_bytes(),
        )
    pipeline_ok = blobs["one"] == blobs["two"]

    params, _, _ = load_checkpoint(tmp_path / "one/train/checkpoint")
    save_checkpoint(tmp_path / "resaved", params)
    reloaded, _, _ = load_checkpoint(tmp_path / "resaved")
    round_trip_ok = all(
        reloaded.tensors[name].data.tobytes() == tensor.data.tobytes()
        for name, tensor in params.tensors.items()
    )
    _report(
        10,
        pipeline_ok and round_trip_ok,
        f"train->checkpoint->eval bit-reproducible: {pipeline_ok}; "
        f"checkpoint round-trip bit-identical: {round_trip_ok}",
    )

import copy
import gc
import weakref

import numpy as np
import pytest

from flexilen.autodiff import Tensor, backward, zero_grad
from flexilen.config import (
    BackboneConfig,
    BranchConfig,
    DataConfig,
    EvalConfig,
    RunConfig,
    TrainConfig,
)
from flexilen import backbone as bb
from flexilen import evaluation, training
from flexilen.data import (
    DatasetSplit,
    Normalizer,
    TrajectoryScene,
    generate_from_config,
    split_scenes,
)
from flexilen.fln import fln_loss
from flexilen.training import (
    VAL_SCENE_CAP,
    AdamState,
    _make_batches,
    adam_step,
    cosine_lr,
    train,
    train_fln,
    train_finetune,
    train_isolated,
    _val_metrics,
    prepare_scenes,
    val_set,
)

from oracles import (
    Window,
    adam_step_per_tensor,
    batches_per_scene,
    evaluate_per_scene,
    prepare_per_scene,
)


def make_config(**over):
    defaults = dict(
        backbone=BackboneConfig(d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3),
        branches=BranchConfig(h_short=2, h_medium=3, h_long=4),
        data=DataConfig(
            n_scenes=60,
            agents_min=2,
            agents_max=3,
            obs_len=4,
            horizon=3,
            noise_sigma=0.0,
            motion_cv=1.0,
            motion_turn=0.0,
            motion_stop=0.0,
        ),
        train=TrainConfig(strategy="fln", epochs=3, batch_size=16, lr=2e-3),
        eval=EvalConfig(samples=2),
        seed=0,
    )
    defaults.update(over)
    cfg = RunConfig(**defaults)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def tiny_split():
    cfg = make_config()
    scenes = generate_from_config(cfg.data, cfg.seed)
    return split_scenes(scenes, cfg.data.train_frac, cfg.data.val_frac)


@pytest.fixture(scope="module")
def tiny_norm(tiny_split):
    return Normalizer(make_config().data.horizon).fit(tiny_split.train)


def _params_bytes(params):
    return b"".join(t.data.tobytes() for _, t in sorted(params.tensors.items()))


# --------------------------------------------------------------------- adam


def test_adam_zero_gradient_leaves_parameters_unchanged():
    t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    t.grad = np.zeros(2)
    before = t.data.copy()
    adam_step({"w": t}, AdamState(), lr=0.1)
    np.testing.assert_array_equal(t.data, before)
    t.grad = None
    adam_step({"w": t}, AdamState(), lr=0.1)
    np.testing.assert_array_equal(t.data, before)


def test_adam_step_magnitude_saturates_to_lr():
    # closed-form moment recursion: with g=1 every step, m_hat=v_hat=1,
    # so each update approaches exactly lr/(1+eps)
    t = Tensor(np.array(0.0), requires_grad=True)
    state = AdamState()
    lr = 0.01
    prev = 0.0
    for _ in range(200):
        t.grad = np.array(1.0)
        adam_step({"w": t}, state, lr=lr)
        step = prev - float(t.data)
        prev = float(t.data)
    assert step == pytest.approx(lr, rel=1e-6)


def test_adam_deterministic():
    def run():
        t = Tensor(np.linspace(-1, 1, 5), requires_grad=True)
        state = AdamState()
        for i in range(10):
            t.grad = np.sin(np.arange(5) + i)
            adam_step({"w": t}, state, lr=0.05)
        return t.data.tobytes()

    assert run() == run()


def test_cosine_lr_anneals_from_lr_to_zero():
    lr, total = 2e-3, 40
    rates = [cosine_lr(lr, step, total) for step in range(total + 1)]
    assert rates[0] == lr
    assert rates[total // 2] == pytest.approx(lr / 2, rel=1e-12)
    assert rates[total] == pytest.approx(0.0, abs=1e-18)
    assert all(a > b for a, b in zip(rates, rates[1:]))


# ----------------------------------------------------------------- train_fln


def test_fln_loss_decreases_substantially(tiny_split, tiny_norm):
    cfg = make_config(train=TrainConfig(strategy="fln", epochs=30, batch_size=16, lr=3e-3))
    _, log = train_fln(tiny_split, cfg, tiny_norm)
    assert log.records[-1].total < 0.5 * log.records[0].total


def test_fln_log_identity_and_nonnegative_kl(tiny_split, tiny_norm):
    # each epoch's total weighs its KL with the lambda that epoch logged
    cfg = make_config()
    _, log = train_fln(tiny_split, cfg, tiny_norm)
    for record in log.records:
        assert record.kl >= 0.0
        assert record.total == pytest.approx(record.reg + record.lambda_kl * record.kl, abs=1e-12)


@pytest.mark.parametrize("epochs, lambda_kl", [(3, 1.0), (4, 0.3), (1, 0.3)])
def test_fln_ramps_the_kl_weight_from_zero_to_lambda_kl(tiny_split, tiny_norm, epochs, lambda_kl):
    cfg = make_config(
        branches=BranchConfig(h_short=2, h_medium=3, h_long=4, lambda_kl=lambda_kl),
        train=TrainConfig(strategy="fln", epochs=epochs, batch_size=16, lr=2e-3),
    )
    _, log = train_fln(tiny_split, cfg, tiny_norm)
    weights = [record.lambda_kl for record in log.records]
    if epochs == 1:
        assert weights == [lambda_kl]
    else:
        assert weights == pytest.approx([lambda_kl * e / (epochs - 1) for e in range(epochs)])
        assert weights[0] == 0.0 and weights[-1] == lambda_kl
        assert log.records[0].total == log.records[0].reg


def test_single_model_strategies_log_a_zero_kl_weight(tiny_split, tiny_norm):
    _, log = train_isolated(tiny_split, make_config(), 4, tiny_norm)
    assert [record.lambda_kl for record in log.records] == [0.0] * 3


def test_fln_seeded_bit_determinism(tiny_split, tiny_norm):
    cfg = make_config()
    a, _ = train_fln(tiny_split, cfg, tiny_norm)
    b, _ = train_fln(tiny_split, cfg, tiny_norm)
    assert _params_bytes(a) == _params_bytes(b)


def test_fln_lambda_zero_trains_long_branch_only(tiny_split, tiny_norm):
    cfg = make_config(branches=BranchConfig(h_short=2, h_medium=3, h_long=4, lambda_kl=0.0))
    params, log = train_fln(tiny_split, cfg, tiny_norm)
    # branch-specific S/M parameters never receive gradient, so they keep
    # their initialization (LN affines at identity)
    for branch in ("S", "M"):
        np.testing.assert_array_equal(
            params.tensors[f"sln.{branch}.enc.l0.norm1.gamma"].data, np.ones(8)
        )
    assert not np.array_equal(params.tensors["sln.L.enc.l0.norm1.gamma"].data, np.ones(8))
    for record in log.records:
        assert record.total == record.reg


def _adam_states_equal(params_a, state_a, params_b, state_b) -> None:
    # slots by value: a zero slot plus a -0.0 gradient term is 0.0, where the
    # per-tensor loop's first moment keeps the -0.0; weights by bytes
    assert state_a.step == state_b.step
    assert sorted(state_a.m) == sorted(state_b.m) == sorted(state_a.v) == sorted(state_b.v)
    for name in state_a.m:
        np.testing.assert_array_equal(state_a.m[name], state_b.m[name])
        np.testing.assert_array_equal(state_a.v[name], state_b.v[name])
    for name, tensor in params_a.items():
        assert tensor.data.shape == params_b[name].data.shape
        assert tensor.data.tobytes() == params_b[name].data.tobytes()


def test_flat_adam_equals_the_per_tensor_loop_bit_for_bit():
    # "late" first gets a gradient at step 2 (a zero slot beside running
    # slots), "frozen" never does
    cfg = BackboneConfig(d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3)
    model = bb.init_params(cfg, {"S": 2, "M": 3, "L": 4}, 5)
    names = sorted(model.tensors)
    late, frozen = names[0], names[-1]
    oracle = {name: Tensor(t.data.copy(), requires_grad=True) for name, t in model.tensors.items()}
    flat_state, oracle_state = AdamState(), AdamState()
    r = np.random.default_rng(6)

    def step(lr):
        for name in names:
            grad = None
            if name != frozen and (name != late or flat_state.step >= 1):
                grad = r.normal(size=model.tensors[name].shape)
                grad.reshape(-1)[:2] = (0.0, -0.0)
            model.tensors[name].grad = grad
            oracle[name].grad = None if grad is None else grad.copy()
        adam_step(model.tensors, flat_state, lr)
        adam_step_per_tensor(oracle, oracle_state, lr)

    for i in range(4):
        step(0.01 * (i + 1))
        _adam_states_equal(model.tensors, flat_state, oracle, oracle_state)
        assert frozen not in flat_state.m
        assert (late in flat_state.m) == (i >= 1)
    assert model.tensors[frozen].data.tobytes() == oracle[frozen].data.tobytes()


def test_fln_detached_teacher_step_keeps_teacher_params(tiny_split):
    cfg = make_config()
    norm = Normalizer(cfg.data.horizon).fit(tiny_split.train)
    params, _ = train_fln(tiny_split, cfg, normalizer=norm)
    observed, future, _ = norm.transform(tiny_split.train[0].positions)
    loss = fln_loss(observed, future, params, cfg.branches)
    zero_grad(params.tensors)
    backward(loss.kl)
    state = AdamState()
    teacher_only = {
        name: tensor.data.copy()
        for name, tensor in params.tensors.items()
        if name.startswith("sln.L.")
    }
    adam_step(params.tensors, state, lr=0.01)
    for name, before in teacher_only.items():
        np.testing.assert_array_equal(params.tensors[name].data, before)


# ------------------------------------------------------------ train_isolated


def test_isolated_trains_and_evaluates_at_one_length(tiny_split, tiny_norm):
    cfg = make_config()
    params, log = train_isolated(tiny_split, cfg, 4, tiny_norm)
    assert params.is_single
    assert params.lengths == {"L": 4}
    assert list(log.records[-1].val) == [4]


def test_three_isolated_runs_triple_storage(tiny_split, tiny_norm):
    cfg = make_config()
    totals = []
    for h in (2, 3, 4):
        params, _ = train_isolated(tiny_split, cfg, h, tiny_norm)
        totals.append(sum(t.size for t in params.tensors.values()))
    # identical architectures per length (PE is parameter-free here)
    assert sum(totals) == 3 * totals[0]


def test_isolated_seeded_determinism(tiny_split, tiny_norm):
    cfg = make_config()
    a, _ = train_isolated(tiny_split, cfg, 3, tiny_norm)
    b, _ = train_isolated(tiny_split, cfg, 3, tiny_norm)
    assert _params_bytes(a) == _params_bytes(b)


# ----------------------------------------------------------------- mixed


@pytest.mark.parametrize("length", ["h_short", "h_medium", "h_long"])
def test_mixed_degenerate_rho_reproduces_isolated_bit_exactly(tiny_split, tiny_norm, length):
    # all of rho on one length: mixed cuts every batch to it, so its model,
    # built at h_long, trains isolated's weights at that length
    rho = {f"rho_{name}": float(f"h_{name}" == length) for name in ("short", "medium", "long")}
    cfg = make_config(
        train=TrainConfig(strategy="mixed", epochs=3, batch_size=16, lr=2e-3, **rho)
    )
    h = getattr(cfg.branches, length)
    mixed_params, mixed_log = train(tiny_split, cfg, tiny_norm)
    isolated_params, isolated_log = train_isolated(tiny_split, cfg, h, tiny_norm)
    assert mixed_params.lengths == {"L": 4} and isolated_params.lengths == {"L": h}
    assert _params_bytes(mixed_params) == _params_bytes(isolated_params)
    # mixed validates at every length it trains at, and validation draws nothing
    for mixed_record, isolated_record in zip(mixed_log.records, isolated_log.records):
        assert list(mixed_record.val) == [2, 3, 4]
        assert mixed_record.val[h] == isolated_record.val[h]


def test_mixed_uniform_rho_renormalizes():
    rho = np.array([0.5, 0.5, 0.5])
    np.testing.assert_allclose(rho / rho.sum(), np.full(3, 1 / 3))


def test_mixed_draw_frequencies_within_three_sigma():
    rho = np.array([0.5, 0.5, 0.5])
    probs = rho / rho.sum()
    rng = np.random.default_rng([0, 2])
    n = 10_000
    draws = np.array([rng.choice(3, p=probs) for _ in range(n)])
    for index in range(3):
        count = int(np.sum(draws == index))
        expected = n * probs[index]
        sigma = np.sqrt(n * probs[index] * (1 - probs[index]))
        assert abs(count - expected) < 3 * sigma


# ------------------------------------------------------------ train_finetune


def _finetune_keeping_pre(split, cfg, norm):
    """``train_finetune``'s model and log, and the model its epoch hook saw
    when the long-length phase ended (the CLI's ``checkpoint_pretune``)."""
    kept = {}

    def hook(params, epoch):
        if epoch + 1 == cfg.train.epochs:
            kept["pre"] = copy.deepcopy(params)

    params, log = train_finetune(split, cfg, norm, hook)
    return params, log, kept["pre"]


def test_finetune_preserves_pre_checkpoint_and_adapts(tiny_split, tiny_norm):
    cfg = make_config(
        train=TrainConfig(
            strategy="finetune", epochs=2, batch_size=16, lr=2e-3,
            finetune_target=2, finetune_patience=2, finetune_max_epochs=4,
        )
    )
    params, log, pre = _finetune_keeping_pre(tiny_split, cfg, tiny_norm)
    assert _params_bytes(pre) != _params_bytes(params)
    assert len(log.records) > cfg.train.epochs
    # the 4Ts -> 2Ts protocol is just this config
    assert cfg.branches.h_long == 4 and cfg.train.finetune_target == 2


def test_finetune_pre_model_is_the_isolated_long_model(tiny_split, tiny_norm):
    # the long-length phase draws from the same init and shuffle streams as
    # isolated training at h_long
    cfg = make_config(
        train=TrainConfig(
            strategy="finetune", epochs=2, batch_size=16, lr=2e-3,
            finetune_target=2, finetune_patience=2, finetune_max_epochs=2,
        )
    )
    _, _, pre = _finetune_keeping_pre(tiny_split, cfg, tiny_norm)
    isolated, _ = train_isolated(tiny_split, cfg, cfg.branches.h_long, tiny_norm)
    assert _params_bytes(pre) == _params_bytes(isolated)


def test_finetune_target_equal_long_is_continued_training(tiny_split, tiny_norm):
    cfg = make_config(
        train=TrainConfig(
            strategy="finetune", epochs=2, batch_size=16, lr=2e-3,
            finetune_target=4, finetune_patience=1, finetune_max_epochs=2,
        )
    )
    params, log, pre = _finetune_keeping_pre(tiny_split, cfg, tiny_norm)
    # phase 2 keeps training at the same length: the loss column stays
    # continuous with phase 1 (no distribution change)
    assert log.records[cfg.train.epochs].total < log.records[0].total


# ----------------------------------------------------------------- joint


def test_joint_trains_one_model_validated_at_every_length(tiny_split, tiny_norm):
    cfg = make_config(train=TrainConfig(strategy="joint", epochs=2, batch_size=16, lr=2e-3))
    params, log = train(tiny_split, cfg, tiny_norm)
    assert params.is_single and params.lengths == {"L": 4}
    assert [list(record.val) for record in log.records] == [[2, 3, 4]] * 2


def test_joint_expanded_dataset_size(tiny_split):
    cfg = make_config()
    norm = Normalizer(cfg.data.horizon).fit(tiny_split.train)
    table = prepare_scenes(tiny_split.train, norm, 4)
    batches = _make_batches(table, 1, np.random.default_rng(0), [2, 3, 4])
    assert len(batches) == 3 * len(tiny_split.train)
    lengths = [h for _, h in batches]
    assert all(lengths.count(h) == len(tiny_split.train) for h in (2, 3, 4))


@pytest.mark.parametrize("cut", ["plain", "joint"])
@pytest.mark.parametrize("batch_size", [1, 5, 64])
def test_batches_equal_the_per_scene_batches_bit_for_bit(batch_size, cut):
    # 48 scenes of 1-4 agents in shuffled order: several stacks, some cut
    # into many batches and some ending with a short one
    scenes = generate_from_config(
        DataConfig(n_scenes=48, agents_min=1, agents_max=4, obs_len=4, horizon=3), 5
    )
    scenes = [scenes[i] for i in np.random.default_rng(1).permutation(len(scenes))]
    norm = Normalizer(horizon=3).fit(scenes)
    table, windows = prepare_scenes(scenes, norm, 4), prepare_per_scene(scenes, norm)
    assert set(np.diff(table.starts).tolist()) == {1, 2, 3, 4} and len(table.scene_ids) == len(windows)
    lengths = [4]
    if cut == "joint":
        lengths = [2, 3, 4]
        windows = [Window(w.obs[:, -h:], w.future) for w in windows for h in lengths]
    rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    got = _make_batches(table, batch_size, rng, lengths)
    expected = batches_per_scene(windows, batch_size, oracle_rng)
    assert len(got) == len(expected)
    for (rows, h), oracle in zip(got, expected):
        obs, future = table.obs[:, -h:, :][rows], table.future[rows]
        assert obs.shape == oracle.obs.shape
        assert obs.tobytes() == oracle.obs.tobytes()
        assert future.tobytes() == oracle.future.tobytes()
    assert rng.integers(2**62) == oracle_rng.integers(2**62)


@pytest.mark.parametrize("strategy", ["finetune", "fln", "isolated", "joint", "mixed"])
def test_every_strategy_steps_on_the_per_scene_batches_bit_for_bit(strategy, monkeypatch):
    # what the loop hands each step, epoch after epoch (finetune's two phases
    # included), equals the per-scene batches drawn from the run's shuffle
    # stream, each cut to the width the strategy trains it at: h_long for
    # fln, isolated and finetune's first phase, finetune's target after it,
    # and one draw from the length stream per batch for mixed; joint's come
    # key-major and length-minor
    scenes = generate_from_config(
        DataConfig(n_scenes=48, agents_min=1, agents_max=4, obs_len=4, horizon=3), 5
    )
    if strategy != "joint":  # longer scenes, padded in the table; the joint oracle
        # groups windows by their cut length, so it takes one history length
        scenes += [
            TrajectoryScene(s.positions, s.dt, "long-" + s.scene_id)
            for s in generate_from_config(
                DataConfig(n_scenes=16, agents_min=1, agents_max=4, obs_len=6, horizon=3), 6
            )
        ]
    scenes = [scenes[i] for i in np.random.default_rng(1).permutation(len(scenes))]
    norm = Normalizer(horizon=3).fit(scenes)
    cfg = make_config(train=TrainConfig(
        strategy=strategy, epochs=2, batch_size=5, lr=2e-3,
        isolated_length=4 if strategy == "isolated" else 0,
        finetune_target=2 if strategy == "finetune" else 0, finetune_patience=1,
    ))
    fed = []

    def recorded_step(params, state, loss_fn, obs, future, lambda_kl, lr):
        fed.append(Window(obs, future))
        return 0.0, 0.0, 0.0

    monkeypatch.setattr(training, "_step", recorded_step)
    log = train(DatasetSplit(train=scenes, val=[]), cfg, norm)[1]
    assert len(log.records) == (3 if strategy == "finetune" else 2)
    windows = prepare_per_scene(scenes, norm)
    if strategy == "joint":
        windows = [Window(w.obs[:, -h:], w.future) for w in windows for h in (2, 3, 4)]
    oracle_rng = np.random.default_rng([cfg.seed, training.STREAM_SHUFFLE])
    epochs = [batches_per_scene(windows, 5, oracle_rng) for _ in log.records]
    rho = np.array([cfg.train.rho_short, cfg.train.rho_medium, cfg.train.rho_long])
    length_rng = np.random.default_rng([cfg.seed, training.STREAM_LENGTH])

    def width(epoch: int, batch: Window) -> int:
        if strategy == "joint":
            return batch.obs.shape[-2]
        if strategy == "mixed":
            return (2, 3, 4)[int(length_rng.choice(3, p=rho / rho.sum()))]
        return 2 if strategy == "finetune" and epoch >= cfg.train.epochs else 4

    expected = [
        Window(batch.obs[..., -width(epoch, batch):, :], batch.future)
        for epoch, batches in enumerate(epochs) for batch in batches
    ]
    if strategy == "mixed":
        assert len({window.obs.shape[-2] for window in expected}) == 3
    assert len(fed) == len(expected)
    for got, oracle in zip(fed, expected):
        assert got.obs.shape == oracle.obs.shape
        assert got.obs.tobytes() == oracle.obs.tobytes()
        assert got.future.tobytes() == oracle.future.tobytes()


def test_joint_seeded_determinism(tiny_split, tiny_norm):
    cfg = make_config(train=TrainConfig(strategy="joint", epochs=1, batch_size=16, lr=2e-3))
    a, _ = train(tiny_split, cfg, tiny_norm)
    b, _ = train(tiny_split, cfg, tiny_norm)
    assert _params_bytes(a) == _params_bytes(b)


# ------------------------------------------------------------- tape lifetime


class TapeProbe:
    """Weakrefs to the ``.data`` of every branch forward's outputs, each
    tagged with the phase it was made in; a phase ends with each Adam step
    and each validation. ``check`` records how many outputs of an earlier
    phase are still alive."""

    def __init__(self):
        self.phase = 0
        self.refs: list[tuple[int, weakref.ref]] = []
        self.checks: list[tuple[str, int]] = []

    def check(self, where: str) -> None:
        alive = sum(ref() is not None for phase, ref in self.refs if phase < self.phase)
        self.checks.append((where, alive))

    def install(self, monkeypatch) -> None:
        for name in ("forward", "forward_single"):
            monkeypatch.setattr(bb, name, self._forward(getattr(bb, name)))
        adam, validate = training.adam_step, training._val_metrics

        def stepped(*args, **kwargs):
            adam(*args, **kwargs)
            self.phase += 1

        def validated(*args, **kwargs):
            self.check("validate")
            out = validate(*args, **kwargs)
            self.phase += 1
            return out

        monkeypatch.setattr(training, "adam_step", stepped)
        monkeypatch.setattr(training, "_val_metrics", validated)

    def _forward(self, original):
        def recorded(*args, **kwargs):
            self.check("forward")
            pred = original(*args, **kwargs)
            for tensor in (pred.means, pred.scales, pred.logits):
                self.refs.append((self.phase, weakref.ref(tensor.data)))
            return pred

        return recorded


FINETUNE = dict(finetune_target=2, finetune_patience=1, finetune_max_epochs=2)


@pytest.mark.parametrize("strategy", ["fln", "isolated", "mixed", "finetune", "joint"])
def test_each_step_frees_its_tape_before_the_next_forward(
    tiny_split, tiny_norm, strategy, monkeypatch
):
    # with the cycle collector off, only reference counting frees a graph:
    # no output of an earlier batch or validation may be alive when the next
    # batch's loss, a validation or the epoch hook starts
    extra = {"finetune": FINETUNE, "isolated": {"isolated_length": 3}}.get(strategy, {})
    cfg = make_config(
        train=TrainConfig(strategy=strategy, epochs=2, batch_size=16, lr=2e-3, **extra)
    )
    probe = TapeProbe()
    probe.install(monkeypatch)
    epochs = []

    def hook(params, epoch):
        probe.check("epoch_hook")
        epochs.append(epoch)

    enabled = gc.isenabled()
    gc.disable()
    try:
        train(tiny_split, cfg, tiny_norm, hook)
    finally:
        if enabled:
            gc.enable()
    if strategy == "finetune":  # its adaptation phase ran too, on the same probe
        assert len(epochs) > cfg.train.epochs
    else:
        assert len(epochs) == cfg.train.epochs
    assert {where for where, _ in probe.checks} == {"forward", "validate", "epoch_hook"}
    assert probe.phase > 2 * len(epochs)  # more than one step per epoch
    assert [check for check in probe.checks if check[1]] == []


# ---------------------------------------------------------------- validation


@pytest.fixture(scope="module")
def val_split():
    """More val scenes than the cap, with 2-4 agents each, so that validation
    runs scenes of several sizes in one table."""
    scenes = generate_from_config(
        DataConfig(
            n_scenes=VAL_SCENE_CAP + 26, agents_min=2, agents_max=4, obs_len=4, horizon=3
        ),
        8,
    )
    return DatasetSplit(train=scenes[:20], val=scenes[::-1])


@pytest.mark.parametrize("kind", ["fln", "single"])
def test_validation_equals_per_scene_evaluate_bit_for_bit(val_split, kind, monkeypatch):
    cfg = make_config()
    normalizer = Normalizer(cfg.data.horizon).fit(val_split.train)
    lengths = {"S": 2, "M": 3, "L": 4} if kind == "fln" else {"L": 4}
    params = bb.init_params(cfg.backbone, lengths, 2)
    capped = sorted(val_split.val, key=lambda s: s.scene_id)[:VAL_SCENE_CAP]
    expected = {}
    for h in lengths.values():
        metrics = evaluate_per_scene(params, capped, h, cfg.eval.samples, normalizer)
        expected[h] = (metrics.ade, metrics.fde)
    val = val_set(val_split, normalizer, cfg)
    assert len(val.table.scene_ids) == VAL_SCENE_CAP
    assert len(set(np.diff(val.table.starts).tolist())) > 1
    forwards = []
    forward = "forward_single" if kind == "single" else "forward_routed"
    original = getattr(evaluation if kind == "fln" else evaluation.bb, forward)

    def counted(obs, *args, **kwargs):
        forwards.append(obs.shape)
        return original(obs, *args, **kwargs)

    monkeypatch.setattr(evaluation if kind == "fln" else evaluation.bb, forward, counted)
    got = _val_metrics(params, val, list(lengths.values()))
    assert got == expected
    assert forwards == [(len(val.table.obs), h, 2) for h in lengths.values()]  # one per length


def test_validation_of_an_empty_val_split_is_empty(tiny_split):
    cfg = make_config()
    normalizer = Normalizer(cfg.data.horizon).fit(tiny_split.train)
    params = bb.init_params(cfg.backbone, {"S": 2, "M": 3, "L": 4}, 0)
    empty = DatasetSplit(train=tiny_split.train, val=[])
    assert _val_metrics(params, val_set(empty, normalizer, cfg), [2, 3, 4]) == {}


def test_validation_rejects_a_val_scene_shorter_than_the_length(val_split):
    cfg = make_config()
    normalizer = Normalizer(cfg.data.horizon).fit(val_split.train)
    params = bb.init_params(cfg.backbone, {"L": 4}, 0)
    first = min(val_split.val, key=lambda s: s.scene_id)
    short = TrajectoryScene(first.positions[:, 2:], first.dt, "syn-000000a")  # 2 observed steps
    split = DatasetSplit(train=val_split.train, val=[*val_split.val, short])
    message = "scene syn-000000a has only 2 observed steps \\(< 3\\)"
    with pytest.raises(ValueError, match=message):
        _val_metrics(params, val_set(split, normalizer, cfg), [2, 3])
    with pytest.raises(ValueError, match=message):
        evaluation.evaluate(params, split.val, 3, 2, normalizer)

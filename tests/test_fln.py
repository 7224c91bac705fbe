import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexilen import autodiff as ad
from flexilen import backbone as bb
from flexilen import fln as fln_module
from flexilen.autodiff import backward, zero_grad
from flexilen.config import BackboneConfig, BranchConfig, ConfigError, DataConfig
from flexilen.data import generate_from_config
from flexilen.fln import (
    count_parameters,
    fln_loss,
    forward_routed,
    route,
)

import oracles
from oracles import route_bruteforce

TINY = BackboneConfig(d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3)
BRANCHES = BranchConfig(h_short=2, h_medium=3, h_long=4)


def _setup(seed=0, branch_cfg=BRANCHES, backbone_cfg=TINY, n_scenes=2, **flags):
    params = bb.init_params(
        backbone_cfg,
        branch_cfg.lengths,
        seed,
        weight_sharing=branch_cfg.weight_sharing,
        independent_pe=branch_cfg.independent_pe,
        specialized_ln=branch_cfg.specialized_ln,
        **flags,
    )
    scenes = generate_from_config(
        DataConfig(
            n_scenes=n_scenes, agents_min=2, agents_max=2, obs_len=branch_cfg.h_long,
            horizon=backbone_cfg.horizon,
        ),
        seed,
    )
    positions = scenes[0].positions
    return params, positions[:, : -backbone_cfg.horizon], positions[:, -backbone_cfg.horizon :]


# ------------------------------------------------------------------ fln_loss


def test_lambda_zero_total_equals_reg_exactly():
    cfg = BranchConfig(h_short=2, h_medium=3, h_long=4, lambda_kl=0.0)
    params, obs, fut = _setup(branch_cfg=cfg)
    loss = fln_loss(obs, fut, params, cfg)
    assert loss.total.item() == loss.reg.item()


def test_identical_branch_outputs_give_zero_kl():
    params, obs, _ = _setup()
    # identity harness: all branches see the same input through the same branch
    pred = bb.forward(obs, "L", params)
    from flexilen.mixture import kl_distill

    assert kl_distill(pred, pred).item() == 0.0


def test_default_lambda_sums_terms():
    params, obs, fut = _setup()
    loss = fln_loss(obs, fut, params, BRANCHES)
    assert BRANCHES.lambda_kl == 1.0
    assert loss.total.item() == pytest.approx(loss.reg.item() + loss.kl.item(), abs=1e-12)
    assert loss.kl.item() >= 0.0


def test_fln_loss_rejects_length_mismatch():
    params, obs, fut = _setup()
    wrong = BranchConfig(h_short=2, h_medium=3, h_long=8)
    with pytest.raises(ValueError, match="do not match the model's"):
        fln_loss(obs, fut, params, wrong)


def test_fln_loss_rejects_history_shorter_than_long_branch():
    params, obs, fut = _setup()
    with pytest.raises(ValueError, match="observation length 3 does not match branch L"):
        fln_loss(obs[:, -3:], fut, params, BRANCHES)


def test_fln_loss_feeds_each_branch_the_suffix_of_one_history():
    params, obs, fut = _setup()
    longer = np.concatenate([np.zeros((obs.shape[0], 2, 2)), obs], axis=1)
    assert fln_loss(longer, fut, params, BRANCHES).total.item() == fln_loss(
        obs, fut, params, BRANCHES
    ).total.item()


def test_td_off_uses_direct_nll():
    cfg = BranchConfig(h_short=2, h_medium=3, h_long=4, temporal_distillation=False)
    params, obs, fut = _setup(branch_cfg=cfg)
    loss = fln_loss(obs, fut, params, cfg)
    from flexilen.mixture import nll

    expected = (
        nll(bb.forward(obs[:, -3:], "M", params), fut).item()
        + nll(bb.forward(obs[:, -2:], "S", params), fut).item()
    )
    assert loss.kl.item() == pytest.approx(expected, rel=1e-12)


def test_detach_teacher_blocks_gradient_to_teacher_only_params():
    params, obs, fut = _setup()
    loss = fln_loss(obs, fut, params, BRANCHES)
    zero_grad(params.tensors)
    backward(loss.kl)
    for name, tensor in params.tensors.items():
        if name.startswith("sln.L."):
            assert tensor.grad is None, f"{name} received gradient through detached teacher"
    assert params.tensors["sln.S.enc.l0.norm1.gamma"].grad is not None


def test_no_detach_lets_gradient_reach_teacher():
    cfg = BranchConfig(h_short=2, h_medium=3, h_long=4, detach_teacher=False)
    params, obs, fut = _setup(branch_cfg=cfg)
    loss = fln_loss(obs, fut, params, cfg)
    zero_grad(params.tensors)
    backward(loss.kl)
    assert params.tensors["sln.L.enc.l0.norm1.gamma"].grad is not None


def test_fln_loss_invariant_to_agent_order():
    params, _, _ = _setup()
    positions = generate_from_config(
        DataConfig(n_scenes=1, agents_min=4, agents_max=4, obs_len=4, horizon=3), 11
    )[0].positions
    perm = np.array([3, 1, 0, 2])
    a = fln_loss(positions[:, :-3], positions[:, -3:], params, BRANCHES)
    b = fln_loss(positions[perm, :-3], positions[perm, -3:], params, BRANCHES)
    assert a.total.item() == pytest.approx(b.total.item(), rel=1e-10)


# --------------------------------------------------------------------- route


def test_route_paper_anchor_cases():
    lengths = {"S": 10, "M": 20, "L": 30}
    assert route(16, lengths) == "M"
    assert route(15, lengths) == "M"  # tie 5 vs 5 resolves to the longer branch
    assert route(30, lengths) == "L"
    assert route(25, lengths) == "L"  # tie 5 vs 5 between M and L


@given(h=st.integers(1, 90))
@settings(max_examples=200)
def test_route_matches_bruteforce_oracle(h):
    lengths = {"S": 10, "M": 20, "L": 30}
    assert route(h, lengths) == route_bruteforce(h, lengths)


def test_route_rejects_nonpositive():
    with pytest.raises(ValueError):
        route(0, {"S": 2, "M": 6, "L": 8})


def test_branch_config_rejects_equal_medium_and_long_lengths():
    # with M == L, routing to that length picks M, not the teacher L
    with pytest.raises(ConfigError, match="h_short < h_medium < h_long"):
        BranchConfig(h_short=2, h_medium=4, h_long=4).validate()


# ------------------------------------------------------------ forward_routed


def test_routed_truncates_long_inputs():
    params, _, _ = _setup()
    obs = np.random.default_rng(0).normal(size=(2, 9, 2))  # longer than H^L = 4
    pred, branch = forward_routed(obs, params)
    assert branch == "L"
    direct = bb.forward(obs[:, -4:, :], "L", params)
    np.testing.assert_array_equal(pred.means.data, direct.means.data)


def test_routed_under_length_feeds_nearest_branch():
    params, _, _ = _setup()
    # H' = 3 exactly matches M; H' = 2 matches S
    for h_prime, expected in ((3, "M"), (2, "S"), (4, "L")):
        obs = np.random.default_rng(h_prime).normal(size=(2, h_prime, 2))
        _, branch = forward_routed(obs, params)
        assert branch == expected


def test_routed_rejects_below_shortest():
    params, _, _ = _setup()
    with pytest.raises(ValueError, match="no branch"):
        forward_routed(np.zeros((2, 1, 2)), params)


def test_forward_routed_keeps_the_branch_window_of_any_length():
    params = bb.init_params(TINY, {"S": 2, "M": 5, "L": 9}, 0)
    obs = np.random.default_rng(1).normal(size=(2, 9, 2))
    longer, branch = forward_routed(obs[:, -6:], params)  # nearest branch M, one step longer
    assert branch == "M"
    np.testing.assert_array_equal(longer.means.data, bb.forward(obs[:, -5:], "M", params).means.data)
    shorter, branch = forward_routed(obs[:, -4:], params)  # nearest branch M, one step shorter
    assert branch == "M"
    np.testing.assert_array_equal(
        shorter.means.data, bb.forward(obs[:, -4:], "M", params).means.data
    )


# ----------------------------------------------------------- count_parameters


def test_overhead_zero_without_ipe_and_sln():
    cfg = BranchConfig(h_short=2, h_medium=3, h_long=4, independent_pe=False, specialized_ln=False)
    params = _setup(branch_cfg=cfg)[0]
    count = count_parameters(params)
    assert count.extra == 0
    assert count.overhead == 0.0


def test_overhead_small_with_ipe_and_sln():
    backbone_cfg = BackboneConfig(
        d_model=64, heads=4, layers=2, dec_hidden=64, modes=5, horizon=12, pe_kind="learnable"
    )
    branch_cfg = BranchConfig(h_short=2, h_medium=6, h_long=8)
    params = _setup(branch_cfg=branch_cfg, backbone_cfg=backbone_cfg)[0]
    count = count_parameters(params)
    assert count.extra > 0
    assert count.overhead < 0.05


def test_paper_overhead_anchor_arithmetic():
    # published totals: 6.67M -> 6.68M and 662K -> 680K
    assert (6.68e6 - 6.67e6) / 6.67e6 == pytest.approx(0.0015, abs=2e-4)
    assert (680e3 - 662e3) / 662e3 == pytest.approx(0.027, abs=1e-3)


def test_without_weight_sharing_triples_parameters():
    shared = _setup()[0]
    cfg = BranchConfig(h_short=2, h_medium=3, h_long=4, weight_sharing=False)
    separate = _setup(branch_cfg=cfg)[0]
    single_total = count_parameters(shared).single_total
    n_separate = count_parameters(separate).total
    # three full single-branch models, up to branch-specific parts
    assert n_separate == pytest.approx(3 * single_total, rel=0.02)


# --------------------------------------------------- fused nodes in context


def _composed_model(monkeypatch):
    """Swap every fused node the loss uses for its composed chain of ops."""
    monkeypatch.setattr(ad, "layer_norm", oracles.layer_norm_composed)
    monkeypatch.setattr(ad, "linear", oracles.linear_composed)
    monkeypatch.setattr(ad, "attention", oracles.attention_composed)
    monkeypatch.setattr(bb, "mixture_head", oracles.mixture_head_composed)
    monkeypatch.setattr(fln_module, "nll", oracles.nll_composed)
    monkeypatch.setattr(fln_module, "kl_distill", oracles.kl_distill_composed)


@pytest.mark.parametrize(
    "flags",
    [{}, {"detach_teacher": False}, {"temporal_distillation": False}, {"weight_sharing": False}],
    ids=["default", "teacher_grad", "no_td", "no_ws"],
)
def test_fln_loss_gradients_equal_the_composed_model_bit_for_bit(flags, monkeypatch):
    # a shared weight sums contributions from all three branches, and the
    # fused nodes must hand them to the engine in the composed graph's order
    cfg = BranchConfig(h_short=2, h_medium=3, h_long=4, **flags)
    backbone_cfg = BackboneConfig(d_model=8, heads=2, layers=2, dec_hidden=16, modes=2, horizon=3)
    scenes = generate_from_config(
        DataConfig(
            n_scenes=3, agents_min=2, agents_max=2, obs_len=cfg.h_long, horizon=backbone_cfg.horizon
        ),
        7,
    )
    positions = np.stack([s.positions for s in scenes])
    obs, fut = positions[:, :, : -backbone_cfg.horizon], positions[:, :, -backbone_cfg.horizon :]

    def run():
        params, _, _ = _setup(branch_cfg=cfg, backbone_cfg=backbone_cfg)
        loss = fln_loss(obs, fut, params, cfg)
        backward(loss.total)
        return loss, params.tensors

    fused_loss, fused = run()
    _composed_model(monkeypatch)
    composed_loss, composed = run()
    for field in ("total", "reg", "kl"):
        assert getattr(fused_loss, field).item() == getattr(composed_loss, field).item()
    for name, tensor in composed.items():
        np.testing.assert_array_equal(fused[name].grad, tensor.grad, err_msg=name)

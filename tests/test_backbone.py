from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexilen import autodiff as ad
from flexilen import backbone as bb
from flexilen.autodiff import Tensor, backward, zero_grad
from flexilen.config import BackboneConfig
from flexilen.mixture import nll

from fdutil import assert_grad_close, finite_difference
from oracles import forward_all_tokens, positional_encode, reduce_sum

TINY = BackboneConfig(d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3)


def _fln_params(cfg=TINY, lengths=None, seed=0, **flags):
    lengths = lengths or {"S": 2, "M": 3, "L": 4}
    return bb.init_params(cfg, lengths, seed, **flags)


def _obs(seed, n=2, h=4):
    return np.random.default_rng(seed).normal(size=(n, h, 2))


# --------------------------------------------------------------- spatial enc


def test_spatial_encode_stationary_agent_time_invariant():
    params = _fln_params()
    obs = np.tile(np.array([[1.5, -2.0]]), (3, 5, 1)).reshape(3, 5, 2)
    out = bb.spatial_encode(obs[None], "L", params).data[0]
    for t in range(1, 5):
        np.testing.assert_array_equal(out[:, t, :], out[:, 0, :])


def test_spatial_encode_shape_contract():
    params = _fln_params()
    for n, h in [(1, 2), (4, 7)]:
        out = bb.spatial_encode(_obs(0, n, h)[None], "L", params)
        assert out.shape == (1, n, h, TINY.d_model)


def test_spatial_encode_rejects_empty_window():
    params = _fln_params()
    with pytest.raises(ValueError):
        bb.spatial_encode(np.zeros((1, 2, 0, 2)), "L", params)


def test_spatial_encode_gradcheck():
    params = _fln_params()
    obs = _obs(1, 2, 3)[None]
    target = np.random.default_rng(2).normal(size=(1, 2, 3, TINY.d_model))
    w = params.tensors["shared.spatial.w1"]
    backward(reduce_sum(bb.spatial_encode(obs, "L", params) * Tensor(target)))

    def f(v):
        saved = w.data
        w.data = v
        try:
            return float(np.sum(bb.spatial_encode(obs, "L", params).data * target))
        finally:
            w.data = saved

    assert_grad_close(w.grad, finite_difference(f, w.data))


# ------------------------------------------------------------ positional enc


def test_sinusoidal_value_matches_direct_evaluation():
    # d_t=4, k=0, t=0, shift H=4 -> sin(4)
    row = bb.sinusoidal_pe(np.array([0]), shift=4, d_model=4)[0]
    assert row[0] == pytest.approx(np.sin(4.0), abs=1e-5)
    assert row[0] == pytest.approx(-0.75680, abs=1e-5)
    # odd k uses cos with the paired exponent
    assert row[1] == pytest.approx(np.cos(4.0), rel=1e-12)
    assert row[2] == pytest.approx(np.sin(4.0 / 10000 ** 0.5), rel=1e-12)


def test_sinusoidal_length_changes_encoding():
    short = bb.sinusoidal_pe(np.array([0, 1]), shift=2, d_model=4)
    long = bb.sinusoidal_pe(np.array([0, 1]), shift=4, d_model=4)
    assert np.all(np.linalg.norm(short - long, axis=1) > 0)


def test_cached_pe_rows_equal_fresh_rows_and_are_read_only():
    params = _fln_params()
    for fed in (1, 2):  # suffix-aligned in branch S, then the whole window
        rows = bb._pe_rows(params, "S", 2 - fed, 2).data
        np.testing.assert_array_equal(rows, bb.sinusoidal_pe(np.arange(2 - fed, 2), 2, 8), strict=True)
        assert bb._pe_rows(params, "S", 2 - fed, 2).data is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
    native = bb._pe_rows(params, "L", 0, 3).data  # a single-length model's rows
    np.testing.assert_array_equal(native, bb.sinusoidal_pe(np.arange(3), 3, 8), strict=True)
    assert not native.flags.writeable


def test_learnable_pe_zero_initialized():
    cfg = BackboneConfig(d_model=8, heads=2, layers=1, dec_hidden=16, modes=2, horizon=3, pe_kind="learnable")
    params = _fln_params(cfg)
    np.testing.assert_array_equal(positional_encode(1, "M", params), np.zeros(8))


def test_positional_encode_range_guard():
    params = _fln_params()
    with pytest.raises(ValueError):
        positional_encode(2, "S", params)  # H^S = 2, valid t are 0..1


# ----------------------------------------------------------------- layernorm


def test_layer_norm_constant_row_returns_beta():
    params = _fln_params()
    beta = params.tensors["sln.L.enc.l0.norm1.beta"]
    beta.data = np.random.default_rng(3).normal(size=8)
    x = Tensor(np.full((2, 8), 3.7))
    out = bb.specialized_layer_norm(x, "L", "enc.l0.norm1", params)
    np.testing.assert_allclose(out.data, np.tile(beta.data, (2, 1)), atol=1e-12)


def test_layer_norm_hand_case():
    gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
    out = ad.layer_norm(Tensor([[1.0, 2.0, 3.0, 4.0]]), gamma, beta, bb.LN_EPS)
    np.testing.assert_allclose(
        out.data[0], [-1.3416, -0.4472, 0.4472, 1.3416], atol=1e-4
    )


def test_layer_norm_branch_affines_differ_by_affine():
    params = _fln_params()
    rng = np.random.default_rng(4)
    for branch in ("S", "M"):
        params.tensors[f"sln.{branch}.enc.l0.norm1.gamma"].data = rng.uniform(0.5, 2, 8)
        params.tensors[f"sln.{branch}.enc.l0.norm1.beta"].data = rng.normal(size=8)
    x = Tensor(rng.normal(size=(3, 8)))
    out_s = bb.specialized_layer_norm(x, "S", "enc.l0.norm1", params).data
    out_m = bb.specialized_layer_norm(x, "M", "enc.l0.norm1", params).data
    gs = params.tensors["sln.S.enc.l0.norm1.gamma"].data
    gm = params.tensors["sln.M.enc.l0.norm1.gamma"].data
    bs = params.tensors["sln.S.enc.l0.norm1.beta"].data
    bm = params.tensors["sln.M.enc.l0.norm1.beta"].data
    pre = (out_s - bs) / gs
    np.testing.assert_allclose(out_m, pre * gm + bm, atol=1e-12)


def test_layer_norm_unknown_site():
    params = _fln_params()
    with pytest.raises(KeyError):
        bb.specialized_layer_norm(Tensor(np.zeros((1, 8))), "L", "enc.l9.bogus", params)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_layer_norm_pre_affine_statistics(seed):
    x = np.random.default_rng(seed).normal(loc=2.0, scale=3.0, size=(4, 16))
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), bb.LN_EPS).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4


# --------------------------------------------------------------- transformer


def test_single_token_attends_to_itself():
    params = _fln_params(lengths={"S": 1, "M": 2, "L": 4})
    capture = {}
    feats = Tensor(np.random.default_rng(5).normal(size=(1, 1, 1, 8)))
    bb.transformer_encode(feats, "S", params, capture=capture)
    weights = capture["enc.l0.attn.weights"][0]
    np.testing.assert_allclose(weights, np.ones_like(weights), rtol=1e-15)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20)
def test_attention_rows_sum_to_one(seed):
    params = _fln_params()
    capture = {}
    feats = Tensor(np.random.default_rng(seed).normal(size=(2, 3, 4, 8)))
    bb.transformer_encode(feats, "L", params, capture=capture)
    weights = capture["enc.l0.attn.weights"][0]
    np.testing.assert_allclose(weights.sum(axis=-1), np.ones(weights.shape[:-1]), atol=1e-12)


def test_agent_permutation_equivariance():
    params = _fln_params()
    obs = _obs(6, n=4, h=4)
    perm = np.array([2, 0, 3, 1])
    out = bb.forward(obs, "L", params)
    out_perm = bb.forward(obs[perm], "L", params)
    np.testing.assert_allclose(out_perm.means.data, out.means.data[perm], atol=1e-10)
    np.testing.assert_allclose(out_perm.logits.data, out.logits.data[perm], atol=1e-10)


def test_transformer_block_gradcheck():
    params = _fln_params()
    feats_np = np.random.default_rng(7).normal(size=(1, 2, 3, 8))
    target = np.random.default_rng(8).normal(size=(1, 2, 8))  # one pooled token per agent
    w = params.tensors["shared.enc.l0.attn.wq"]
    backward(reduce_sum(bb.transformer_encode(Tensor(feats_np), "L", params) * Tensor(target)))

    def f(v):
        saved = w.data
        w.data = v
        try:
            out = bb.transformer_encode(Tensor(feats_np), "L", params)
            return float(np.sum(out.data * target))
        finally:
            w.data = saved

    assert_grad_close(w.grad, finite_difference(f, w.data))


def _perturbed(params, seed):
    """``params`` with random LayerNorm affines and positional tables, which
    start as ones and zeros."""
    rng = np.random.default_rng(seed)
    for name, tensor in params.tensors.items():
        if name.endswith((".gamma", ".beta", ".table")):
            tensor.data = rng.normal(scale=0.5, size=tensor.shape) + name.endswith(".gamma")
    return params


def _nll_and_grads(predict, params, gt):
    zero_grad(params.tensors)
    pred = predict()
    backward(nll(pred, gt))
    grads = {name: t.grad for name, t in params.tensors.items()}
    zero_grad(params.tensors)
    return pred, grads


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("pe_kind", ["sinusoidal", "learnable"])
@pytest.mark.parametrize("branch", ["S", "M", "L", "single"])
def test_forward_matches_all_token_encoder_bit_for_bit(layers, pe_kind, branch):
    """Cutting the last layer to the decoder's tokens changes no prediction and
    no gradient: every bit equals the encoder that computes all N*H tokens."""
    cfg = replace(TINY, layers=layers, pe_kind=pe_kind)
    if branch == "single":
        params = _perturbed(bb.init_params(cfg, {"L": 4}, 5), 6)
        h, oracle_branch = 4, None
    else:
        params = _perturbed(_fln_params(cfg, seed=5), 6)
        h, oracle_branch = params.lengths[branch], branch
    obs = np.random.default_rng(22).normal(size=(3, 3, h, 2))  # a batch of 3 scenes
    gt = np.random.default_rng(23).normal(size=(3, 3, cfg.horizon, 2))

    def ours(o):
        return bb.forward_single(o, params) if branch == "single" else bb.forward(o, branch, params)

    def oracle(o):
        return forward_all_tokens(o, params, oracle_branch)

    pred, grads = _nll_and_grads(lambda: ours(obs), params, gt)
    ref, ref_grads = _nll_and_grads(lambda: oracle(obs), params, gt)
    scene, scene_ref = ours(obs[0]), oracle(obs[0])  # an unbatched (N, H, 2) scene
    for a, b in ((pred, ref), (scene, scene_ref)):
        for name in ("means", "scales", "logits"):
            assert np.array_equal(getattr(a, name).data, getattr(b, name).data), name
    assert [n for n, g in grads.items() if g is not None] == [
        n for n, g in ref_grads.items() if g is not None
    ]
    for name, grad in grads.items():
        if grad is not None:
            assert np.array_equal(grad, ref_grads[name]), name


@pytest.mark.parametrize("layers", [1, 2])
def test_capture_keeps_every_position_and_the_prediction(layers):
    cfg = replace(TINY, layers=layers)
    params = _perturbed(_fln_params(cfg), 24)
    obs = _obs(25, n=3, h=4)
    capture = {}
    captured = bb.forward(obs, "L", params, capture=capture)
    plain = bb.forward(obs, "L", params)
    for name in ("means", "scales", "logits"):
        assert np.array_equal(getattr(captured, name).data, getattr(plain, name).data), name
    sites = [site for site in bb.ln_sites(cfg) if site.startswith("enc.")]
    assert sorted(k for k in capture if not k.endswith(".weights")) == sorted(sites)
    for site in sites:  # laid out as the window is: (N, H, d) for one scene
        assert capture[site][0].shape == (3, 4, cfg.d_model), site
    for layer in range(layers):  # every token attends to its own agent's tokens
        assert capture[f"enc.l{layer}.attn.weights"][0].shape == (3, cfg.heads, 4, 4)


# -------------------------------------------------------------------- decode


def test_decode_scales_strictly_positive_and_shapes():
    params = _fln_params()
    encoded = Tensor(np.random.default_rng(9).normal(scale=50.0, size=(1, 3, 8)))
    anchors = np.random.default_rng(90).normal(size=(1, 3, 2, 2))
    pred = bb.decode(encoded, anchors, "L", params)
    assert pred.means.shape == (1, 3, TINY.modes, TINY.horizon, 2)
    assert pred.logits.shape == (1, 3, TINY.modes)
    assert np.all(pred.scales.data > 0)


@pytest.mark.parametrize("modes, horizon", [(2, 3), (1, 1), (5, 12)])
def test_mixture_head_column_contract(modes, horizon):
    # the head's columns are (K, T, 4): a checkpoint's dec.w2 keeps its
    # meaning only while mode k, step t and channel c read column k*T*4 + t*4 + c
    r = np.random.default_rng(modes * 100 + horizon)
    batch, n_agents = 2, 3
    out = r.normal(size=(batch, n_agents, modes * horizon * 4 + modes))
    anchors = r.normal(size=(batch, n_agents, 2, 2))
    baseline = bb.cv_rollout(anchors, horizon)
    pred = bb.mixture_head(Tensor(out), baseline, modes, horizon)
    assert pred.means.shape == pred.scales.shape == (batch, n_agents, modes, horizon, 2)
    for b in range(batch):
        for n in range(n_agents):
            for k in range(modes):
                for t in range(horizon):
                    column = k * horizon * 4 + t * 4
                    for c in range(2):
                        assert pred.means.data[b, n, k, t, c] == out[b, n, column + c] + baseline[b, n, t, c]
                        raw = out[b, n, column + 2 + c : column + 3 + c]
                        assert pred.scales.data[b, n, k, t, c] == ad.softplus_array(raw)[0] + bb.SCALE_FLOOR
    assert pred.logits.data.tobytes() == out[:, :, modes * horizon * 4 :].tobytes()


def test_decode_gradcheck():
    params = _fln_params()
    encoded = np.random.default_rng(10).normal(size=(1, 2, 8))
    anchors = np.random.default_rng(91).normal(size=(1, 2, 2, 2))
    gt = np.random.default_rng(11).normal(size=(1, 2, TINY.horizon, 2))
    w = params.tensors["shared.dec.w2"]
    backward(nll(bb.decode(Tensor(encoded), anchors, "L", params), gt))

    def f(v):
        saved = w.data
        w.data = v
        try:
            return nll(bb.decode(Tensor(encoded), anchors, "L", params), gt).item()
        finally:
            w.data = saved

    assert_grad_close(w.grad, finite_difference(f, w.data))


# ------------------------------------------------------------------- forward


def test_forward_reduces_to_single_branch_baseline_bit_exactly():
    single = bb.init_params(TINY, {"L": 4}, 3)
    fln = _fln_params(seed=99)
    # copy shared weights and the L branch's specialized affines from the baseline
    for name, tensor in single.tensors.items():
        if name in fln.tensors:
            fln.tensors[name].data = tensor.data.copy()
    for site in bb.ln_sites(TINY):
        for part in ("gamma", "beta"):
            key = f"sln.L.{site}.{part}"
            if key in fln.tensors:
                fln.tensors[key].data = single.tensors[f"shared.{site}.{part}"].data.copy()
    obs = _obs(12, n=2, h=4)
    ours = bb.forward(obs, "L", fln)
    theirs = bb.forward_single(obs, single)
    assert ours.means.data.tobytes() == theirs.means.data.tobytes()
    assert ours.scales.data.tobytes() == theirs.scales.data.tobytes()
    assert ours.logits.data.tobytes() == theirs.logits.data.tobytes()


def test_forward_branches_differ_on_same_scene():
    params = _fln_params()
    scene = _obs(13, n=2, h=4)
    pred_l = bb.forward(scene, "L", params)
    pred_s = bb.forward(scene[:, -2:], "S", params)
    assert not np.allclose(pred_l.means.data, pred_s.means.data)


def test_forward_guards_length_branch_mismatch():
    params = _fln_params()
    with pytest.raises(ValueError, match="cannot feed 5 steps through branch L"):
        bb.forward(_obs(14, n=2, h=5), "L", params)  # longer than branch L (H=4)


def test_single_learnable_model_rejects_a_window_longer_than_its_table():
    params = bb.init_params(replace(TINY, pe_kind="learnable"), {"L": 4}, 0)
    with pytest.raises(ValueError, match=r"input length 6 exceeds the learnable table \(4 rows\)"):
        bb.forward_single(_obs(15, n=2, h=6), params)


def test_forward_suffix_aligns_a_shorter_window():
    params = _fln_params()
    obs = _obs(15, n=2, h=3)
    pred = bb.forward(obs, "L", params)
    assert pred.means.shape == (2, TINY.modes, TINY.horizon, 2)


def test_shared_theta_update_changes_all_branches():
    params = _fln_params()
    scene = _obs(16, n=2, h=4)
    before_s = bb.forward(scene[:, -2:], "S", params).means.data.copy()
    loss = nll(bb.forward(scene, "L", params), np.random.default_rng(17).normal(size=(2, 3, 2)))
    zero_grad(params.tensors)
    backward(loss)
    for name, tensor in params.tensors.items():
        if tensor.grad is not None:
            tensor.data = tensor.data - 0.05 * tensor.grad
    after_s = bb.forward(scene[:, -2:], "S", params).means.data
    assert not np.array_equal(before_s, after_s)


def test_end_to_end_nll_gradcheck_tiny_config():
    params = _fln_params()
    obs = _obs(18, n=2, h=4)
    gt = np.random.default_rng(19).normal(size=(2, TINY.horizon, 2))
    zero_grad(params.tensors)
    backward(nll(bb.forward(obs, "L", params), gt))
    for name in ("shared.enc.l0.ffn.w1", "sln.L.enc.l0.norm1.gamma", "shared.dec.w1"):
        tensor = params.tensors[name]

        def f(v):
            saved = tensor.data
            tensor.data = v
            try:
                return nll(bb.forward(obs, "L", params), gt).item()
            finally:
                tensor.data = saved

        assert_grad_close(tensor.grad, finite_difference(f, tensor.data))


def test_forward_is_deterministic():
    params = _fln_params()
    obs = _obs(20, n=3, h=4)
    a = bb.forward(obs, "L", params)
    b = bb.forward(obs, "L", params)
    assert a.means.data.tobytes() == b.means.data.tobytes()

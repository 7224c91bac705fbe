"""Independent reference implementations that tests compare the package against."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flexilen import autodiff as ad
from flexilen import backbone as bb
from flexilen.autodiff import DomainError, Tensor
from flexilen.backbone import FlnParams, sinusoidal_pe
from flexilen.evaluation import LnStatReport, Metrics
from flexilen.fln import forward_routed
from flexilen.mixture import LOG_2PI, MixturePrediction, draw_samples


def route_bruteforce(h_prime: int, lengths: dict[str, int]) -> str:
    """Enumeration oracle for ``fln.route``: nearest length, ties to the longer."""
    best, best_key = None, None
    for branch, h in lengths.items():
        key = (abs(h_prime - h), -h)
        if best_key is None or key < best_key:
            best, best_key = branch, key
    return best


def nll_bruteforce(pred: MixturePrediction, future: np.ndarray) -> float:
    """Oracle for ``mixture.nll``: direct density product over timesteps and
    coordinates, weighted sum over modes (no log-sum-exp), divided by T."""
    means = pred.means.data
    scales = pred.scales.data
    logits = pred.logits.data
    weights = np.exp(logits - logits.max(-1, keepdims=True))
    weights = weights / weights.sum(-1, keepdims=True)
    future = np.asarray(future, dtype=np.float64)
    diff = future[..., None, :, :] - means  # (..., K, T, 2)
    dens = np.prod(
        np.exp(-0.5 * (diff / scales) ** 2) / (np.sqrt(2 * np.pi) * scales), axis=(-2, -1)
    )  # (..., K)
    mix = np.sum(weights * dens, axis=-1)
    return float(np.mean(-np.log(mix))) / pred.horizon


def positional_encode(t: int, branch: str, params: FlnParams) -> np.ndarray:
    """The d_model positional vector for timestep t of a branch's window."""
    h_branch = params.lengths[branch]
    if not 0 <= t < h_branch:
        raise ValueError(f"timestep {t} out of range for branch {branch} (H={h_branch})")
    if params.cfg.pe_kind == "sinusoidal":
        return sinusoidal_pe(np.array([t]), h_branch, params.cfg.d_model)[0]
    return params.pe_table(branch).data[t].copy()


# ----------------------------------------------------------------------------
# Composed tape ops. The package fuses the chains below into single nodes
# (``autodiff.layer_norm``/``linear``/``attention``, the means and scales of
# ``backbone.mixture_head``, ``mixture.nll``/``kl_distill``); these are the
# op-by-op chains those nodes replay, kept here so tests can compare forward
# values and gradients bit for bit. The package records only ``add``,
# ``mul``, ``relu``, ``reshape`` and ``getitem`` of these, so
# ``sub``, ``div``, ``neg``, ``exp``, ``log``, ``sqrt``, ``softplus``,
# ``softmax``, ``matmul``, ``transpose`` and the ``reduce_sum``,
# ``reduce_mean`` and ``reduce_max`` reductions live here; ``softplus`` runs
# the scales node's two numpy helpers, ``autodiff.softplus_array`` and
# ``sigmoid_array``.


def sub(a: Tensor, b: Tensor) -> Tensor:
    # like add, skips the gradient of a constant operand
    return ad.record(
        ad._broadcast(np.subtract, a, b, "sub"),
        (a, b),
        lambda g: (
            ad.unbroadcast(g, a.shape) if a.requires_grad else None,
            ad.unbroadcast(-g, b.shape) if b.requires_grad else None,
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    if not b.data.all():
        raise DomainError("div: divisor contains zero")
    return ad.record(
        ad._broadcast(np.divide, a, b, "div"),
        (a, b),
        lambda g: (
            ad.unbroadcast(g / b.data, a.shape),
            ad.unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return ad.record(-a.data, (a,), lambda g: (-g,))


def _axis_tuple(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _check_nonempty(shape, axes, op: str):
    for a in axes:
        if shape[a] == 0:
            raise ValueError(f"{op}: cannot reduce empty axis {a}")


def _spread(g: np.ndarray, shape, axes, keepdims: bool) -> np.ndarray:
    """A reduction's gradient copied back over the axes it reduced."""
    if not keepdims:
        g = g.reshape([1 if ax in axes else n for ax, n in enumerate(shape)])
    return ad.spread(g, shape)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    _check_nonempty(a.shape, axes, "sum")
    out = np.add.reduce(a.data, axis=axes, keepdims=keepdims)
    return ad.record(out, (a,), lambda g: (_spread(g, a.shape, axes, keepdims),))


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    _check_nonempty(a.shape, axes, "mean")
    count = math.prod(a.shape[ax] for ax in axes)
    # np.mean's own arithmetic: the sum divided by the element count
    out = np.add.reduce(a.data, axis=axes, keepdims=keepdims) / count
    return ad.record(out, (a,), lambda g: (_spread(g / count, a.shape, axes, keepdims),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul: both operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ ({a.shape} @ {b.shape})")

    def backward_fn(g):
        ga = ad.unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
        gb = ad.unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return ga, gb

    return ad.record(a.data @ b.data, (a, b), backward_fn)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    # the gradient's inverse permutation: input axes sorted by where axes sends them
    inverse = sorted(range(len(axes)), key=lambda i: axes[i] % len(axes))
    return ad.record(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces via the finite check
        out = np.exp(a.data)
    return ad.record(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if (a.data <= 0.0).any():
        raise DomainError("log: input must be strictly positive")
    return ad.record(np.log(a.data), (a,), lambda g: (g / a.data,))


def softplus(a: Tensor) -> Tensor:
    return ad.record(ad.softplus_array(a.data), (a,), lambda g: (g * ad.sigmoid_array(a.data),))


def sqrt(a: Tensor) -> Tensor:
    if (a.data < 0.0).any():
        raise DomainError("sqrt: input must be non-negative")
    out = np.sqrt(a.data)
    return ad.record(out, (a,), lambda g: (g * 0.5 / out,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - np.maximum.reduce(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=axis, keepdims=True)

    def backward_fn(g):
        inner = np.add.reduce(g * out, axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return ad.record(out, (a,), backward_fn)


def reduce_max(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient routes to the argmax (ties break to lowest index)."""
    if axis is None:
        if a.size == 0:
            raise ValueError("max: cannot reduce empty tensor")
        flat_idx = int(np.argmax(a.data))  # first occurrence
        out = a.data.reshape(-1)[flat_idx]
        if keepdims:
            out = np.full((1,) * a.ndim, out)

        def backward_fn(g):
            z = np.zeros(a.size)
            z[flat_idx] = np.sum(g)
            return (z.reshape(a.shape),)

        return ad.record(out, (a,), backward_fn)

    ax = axis % a.ndim
    if a.shape[ax] == 0:
        raise ValueError(f"max: cannot reduce empty axis {ax}")
    idx = np.argmax(a.data, axis=ax)  # first max along axis
    out = np.take_along_axis(a.data, np.expand_dims(idx, ax), axis=ax)
    if not keepdims:
        out = np.squeeze(out, axis=ax)

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        z = np.zeros(a.shape)
        np.put_along_axis(z, np.expand_dims(idx, ax), g, axis=ax)
        return (z,)

    return ad.record(out, (a,), backward_fn)


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp along one axis (fully differentiable)."""
    m = reduce_max(a, axis=axis, keepdims=True)
    out = ad.add(log(reduce_sum(exp(sub(a, m)), axis=axis, keepdims=True)), m)
    if keepdims:
        return out
    ax = axis % a.ndim
    return ad.reshape(out, out.shape[:ax] + out.shape[ax + 1 :])


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def layer_norm_composed(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    mu = reduce_mean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = reduce_mean(centered * centered, axis=-1, keepdims=True)
    normalized = div(centered, sqrt(var + eps))
    return normalized * gamma + beta


def linear_composed(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    rows = ad.reshape(x, (-1, x.shape[-1]))
    return ad.reshape(matmul(rows, w) + b, x.shape[:-1] + (w.shape[1],))


def attention_composed(
    q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float
) -> tuple[Tensor, np.ndarray]:
    """Split (B, rows, d) projections into heads, one vector per row, attend,
    merge the heads; returns the context and the weights' array, as
    ``autodiff.attention`` does."""
    batch, rows, d = q.shape
    head_dim = d // heads

    def split(t: Tensor) -> Tensor:
        return transpose(ad.reshape(t, (batch, t.shape[1], heads, 1, head_dim)), (0, 2, 1, 3, 4))

    qh = split(q)
    kt = transpose(split(k), (0, 1, 3, 4, 2))
    vh = transpose(split(v), (0, 1, 3, 2, 4))
    scores = matmul(qh, kt) * scale
    weights = softmax(scores, axis=-1)
    merged = ad.reshape(transpose(matmul(weights, vh), (0, 2, 1, 3, 4)), (batch, rows, d))
    return merged, weights.data[:, :, :, 0, :]


def mixture_head_composed(
    out: Tensor, baseline: np.ndarray, modes: int, horizon: int
) -> MixturePrediction:
    """``backbone.mixture_head`` as slice, reshape, slice, add and softplus ops."""
    width = modes * horizon * 4
    core = ad.reshape(out[..., :width], out.shape[:-1] + (modes, horizon, 4))
    means = core[..., 0:2] + Tensor(baseline[..., None, :, :])
    scales = softplus(core[..., 2:4]) + bb.SCALE_FLOOR
    return MixturePrediction(means, scales, out[..., width:])


def nll_composed(pred: MixturePrediction, future: np.ndarray) -> Tensor:
    if np.any(pred.scales.data <= 0.0):
        raise DomainError("mixture scales must be strictly positive")
    future = np.asarray(future, dtype=np.float64)
    target = Tensor(future[..., None, :, :])  # (..., 1, T, 2)
    z = div(sub(target, pred.means), pred.scales)
    terms = sub(sub(neg(log(pred.scales)), Tensor(0.5 * LOG_2PI)), 0.5 * (z * z))
    # each mode's (T, 2) block, flattened and summed
    log_density = reduce_sum(ad.reshape(terms, terms.shape[:-2] + (-1,)), axis=-1)
    joint = log_density + log_softmax(pred.logits, axis=-1)
    return div(neg(reduce_mean(logsumexp(joint, axis=-1))), Tensor(pred.horizon))


def kl_distill_composed(
    teacher: MixturePrediction, student: MixturePrediction, detach_teacher: bool = True
) -> Tensor:
    for pred in (teacher, student):
        if np.any(pred.scales.data <= 0.0):
            raise DomainError("mixture scales must be strictly positive")
    t = MixturePrediction(
        Tensor(teacher.means.data), Tensor(teacher.scales.data), Tensor(teacher.logits.data)
    ) if detach_teacher else teacher
    log_ratio = sub(log(student.scales), log(t.scales))
    var_t = t.scales * t.scales
    var_s = student.scales * student.scales
    mean_diff = sub(t.means, student.means)
    per_dim = sub(log_ratio + div(var_t + mean_diff * mean_diff, 2.0 * var_s), Tensor(0.5))
    gaussian = reduce_mean(reduce_sum(per_dim, axis=-1))

    log_t = log_softmax(t.logits, axis=-1)
    log_s = log_softmax(student.logits, axis=-1)
    weights_t = softmax(t.logits, axis=-1)
    categorical = reduce_mean(reduce_sum(weights_t * sub(log_t, log_s), axis=-1))
    return gaussian + categorical


# ----------------------------------------------------------------------------
# Time-major sampling. ``MixturePrediction`` lays modes out mode-major,
# (..., K, T, 2); this is ``mixture.draw_samples`` as it read the time-major
# layout (..., T, K, 2), kept to check that the move changed no sample.


def time_major(pred: MixturePrediction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A prediction's means, scales and logits, means and scales (..., T, K, 2)."""
    return pred.means.data.swapaxes(-3, -2), pred.scales.data.swapaxes(-3, -2), pred.logits.data


def draw_samples_time_major(
    means: np.ndarray, scales: np.ndarray, logits: np.ndarray, k_eval: int,
    mode: str = "mode-means", seed=None,
) -> np.ndarray:
    """(k_eval, ..., T, 2) samples of a time-major mixture."""
    weights = np.exp(logits - logits.max(-1, keepdims=True))
    weights = weights / weights.sum(-1, keepdims=True)
    if mode == "mode-means":
        order = np.argsort(-weights, axis=-1, kind="stable")  # (..., K)
        idx = order[..., None, :, None]
        reordered = np.take_along_axis(means, np.broadcast_to(idx, means.shape), axis=-2)
        return np.moveaxis(reordered, -2, 0)[:k_eval].copy()
    n_scenes, n_agents, horizon, n_modes, _ = means.shape
    rngs = [np.random.default_rng(s) for s in seed]
    cum = np.cumsum(weights, axis=-1)
    picked = (n_scenes, n_agents, horizon, 1, 2)
    samples = np.empty((k_eval, n_scenes, n_agents, horizon, 2))
    for k in range(k_eval):
        u = np.stack([rng.random(n_agents) for rng in rngs])  # (B, N)
        modes = np.minimum((u[..., None] > cum).sum(-1), n_modes - 1)
        sel = np.broadcast_to(modes[..., None, None, None], picked)
        mu = np.take_along_axis(means, sel, axis=-2)[..., 0, :]
        sd = np.take_along_axis(scales, sel, axis=-2)[..., 0, :]
        noise = np.stack([rng.standard_normal((n_agents, horizon, 2)) for rng in rngs])
        samples[k] = mu + sd * noise
    return samples


# ----------------------------------------------------------------------------
# Per-tensor Adam. ``training.adam_step`` updates every parameter with a
# gradient in one flat pass over their concatenated gradients and moments;
# this is the per-tensor loop it replaced, kept to check it bit for bit.


def adam_step_per_tensor(
    params: dict[str, Tensor], state, lr: float,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
) -> None:
    state.step += 1
    t = state.step
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, tensor in params.items():
        grad = tensor.grad
        if grad is None:
            continue
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1.0 - beta1) * grad if m is None else beta1 * m + (1.0 - beta1) * grad
        v = (1.0 - beta2) * grad * grad if v is None else beta2 * v + (1.0 - beta2) * grad * grad
        state.m[name] = m
        state.v[name] = v
        tensor.data = tensor.data - lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


# ----------------------------------------------------------------------------
# The all-token encoder. ``backbone.transformer_encode`` runs its last layer
# only for each agent's last token, the one the decoder reads; this oracle
# runs every layer on all H tokens of every agent and pools afterwards, so
# tests can check that the cut changes no prediction and no gradient.


def _linear(x: Tensor, branch: str, params: FlnParams, weight: str, bias: str) -> Tensor:
    return ad.linear(x, params.weight(branch, weight), params.weight(branch, bias))


def _attention_all_tokens(tokens: Tensor, branch: str, layer: int, params: FlnParams) -> Tensor:
    heads = params.cfg.heads
    prefix = f"enc.l{layer}.attn"

    def proj(name: str) -> Tensor:
        return _linear(tokens, branch, params, f"{prefix}.w{name}", f"{prefix}.{name}b")

    scale = 1.0 / np.sqrt(tokens.shape[-1] // heads)
    context, _ = ad.attention(proj("q"), proj("k"), proj("v"), heads, scale)
    return _linear(context, branch, params, f"{prefix}.wo", f"{prefix}.ob")


def transformer_encode_all_tokens(features: Tensor, branch: str, params: FlnParams) -> Tensor:
    """(..., H, d) features to (..., H, d) tokens: every layer and the final
    norm on every token, each agent's H tokens attending to each other."""
    cfg = params.cfg
    h_steps, d = features.shape[-2:]
    x = ad.reshape(features, (-1, h_steps, d))
    for layer in range(cfg.layers):
        normed1 = bb.specialized_layer_norm(x, branch, f"enc.l{layer}.norm1", params)
        x = x + _attention_all_tokens(normed1, branch, layer, params)
        normed = bb.specialized_layer_norm(x, branch, f"enc.l{layer}.norm2", params)
        ffn = f"enc.l{layer}.ffn"
        hidden = ad.relu(_linear(normed, branch, params, f"{ffn}.w1", f"{ffn}.b1"))
        x = x + _linear(hidden, branch, params, f"{ffn}.w2", f"{ffn}.b2")
    x = bb.specialized_layer_norm(x, branch, "enc.final_norm", params)
    return ad.reshape(x, features.shape)


def forward_all_tokens(
    observations: np.ndarray, params: FlnParams, branch: str | None = None
) -> MixturePrediction:
    """``backbone.forward`` of ``branch`` at its own length, or with ``branch``
    None ``backbone.forward_single``, through the all-token encoder; the
    decoder head gets each agent's last token."""
    obs = np.asarray(observations, dtype=np.float64)
    fed = obs.shape[-2]
    if branch is None:
        branch, start, stop = params.branch_ids[0], 0, fed
    else:
        start, stop = params.lengths[branch] - fed, params.lengths[branch]
    pe_rows = bb._pe_rows(params, branch, start, stop)
    feats = bb.spatial_encode(obs, branch, params) + pe_rows
    encoded = transformer_encode_all_tokens(feats, branch, params)
    return bb.decode(encoded[..., fed - 1, :], obs[..., -2:, :], branch, params)


# ----------------------------------------------------------------------------
# Per-agent normalization. ``data.Normalizer`` moves a stack of equal-shaped
# scenes into their agents' frames in one call; this is its formula for one
# agent at a time, kept to check the stacked one byte for byte.


def frame_per_agent(positions: np.ndarray, horizon: int) -> np.ndarray:
    """One agent's frame (4,) from its positions (steps, 2): the last
    observed point, then the cos and sin of the latest observed step that
    moved, searched backwards; (1, 0) when none did."""
    observed = positions[:-horizon]
    for t in range(len(observed) - 1, 0, -1):
        dx, dy = observed[t] - observed[t - 1]
        if dx != 0.0 or dy != 0.0:
            length = np.hypot(dx, dy)
            return np.array([*observed[-1], dx / length, dy / length])
    return np.array([*observed[-1], 1.0, 0.0])


def shift_per_scene(positions: np.ndarray, horizon: int) -> np.ndarray:
    """The frames (N, 4) of a scene's agents, one agent at a time."""
    return np.stack([frame_per_agent(agent, horizon) for agent in positions])


def to_frames(positions: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """A scene's positions (N, steps, 2) in its agents' frames, unscaled."""
    out = np.empty(positions.shape)
    for agent, (ox, oy, cos, sin) in enumerate(frames):
        x, y = positions[agent, :, 0] - ox, positions[agent, :, 1] - oy
        out[agent, :, 0] = cos * x + sin * y
        out[agent, :, 1] = cos * y - sin * x
    return out


def scale_per_scene(scenes, horizon: int) -> float:
    """``Normalizer.fit``'s scale: the std of every scene's positions in
    its agents' frames, concatenated scene by scene."""
    flat = np.concatenate([
        to_frames(s.positions, shift_per_scene(s.positions, horizon)).reshape(-1) for s in scenes
    ])
    scale = float(np.std(flat))
    return scale if scale > 0 else 1.0


def transform_per_scene(positions: np.ndarray, normalizer):
    """``(observed, future, frames)`` of one scene's positions (N, steps, 2)."""
    shift = shift_per_scene(positions, normalizer.horizon)
    normalized = to_frames(positions, shift) / normalizer.scale
    return normalized[:, : -normalizer.horizon, :], normalized[:, -normalizer.horizon :, :], shift


# ----------------------------------------------------------------------------
# Per-scene batching. ``training.prepare_scenes`` normalizes one stack per
# (agent count, steps) group (``data.group_scenes``) and each training
# batch is a row slice of one group (``training._make_batches``); this is
# the layout they replaced, one window per scene, regrouped by shape and
# stacked batch by batch, kept to check the stacked one bit for bit.


@dataclass
class Window:
    """One scene's normalized window, or a batch of them stacked."""

    obs: np.ndarray     # ([B,] N, steps, 2) normalized histories
    future: np.ndarray  # ([B,] N, T, 2) normalized futures


def prepare_per_scene(scenes, normalizer) -> list[Window]:
    """One (N, steps, 2) window per scene, in scene-id order."""
    return [
        Window(*transform_per_scene(scene.positions, normalizer)[:2])
        for scene in sorted(scenes, key=lambda s: s.scene_id)
    ]


def batches_per_scene(windows: list[Window], batch_size: int, rng) -> list[Window]:
    """The windows grouped by (agent count, length), groups in sorted order
    and members in input order; one permutation of each group, cut into
    batches that are each ``np.stack``ed, then one permutation of all
    batches."""
    members: dict[tuple[int, int], list[Window]] = {}
    for window in windows:
        members.setdefault(window.obs.shape[:2], []).append(window)
    batches = []
    for key in sorted(members):
        group = members[key]
        order = rng.permutation(len(group))
        for start in range(0, len(group), batch_size):
            chunk = [group[i] for i in order[start : start + batch_size]]
            batches.append(
                Window(np.stack([w.obs for w in chunk]), np.stack([w.future for w in chunk]))
            )
    final_order = rng.permutation(len(batches))
    return [batches[i] for i in final_order]


# ----------------------------------------------------------------------------
# Per-scene probe. ``evaluation.ln_statistics_probe`` runs one forward per
# group of equal-shaped scenes; this is its per-scene loop, one forward per
# scene in id order, kept to check the grouped one bit for bit.


def ln_statistics_per_scene(params: FlnParams, scenes, h_eval: int, normalizer):
    """``site -> (H, 2)`` per-position mean and std, one forward per scene."""
    branch = None if params.is_single else route_bruteforce(h_eval, params.lengths)
    captured = []  # per scene in id order: site -> (N, H, d)
    for scene in sorted(scenes, key=lambda s: s.scene_id):
        obs = transform_per_scene(scene.positions, normalizer)[0][:, -h_eval:, :]
        capture = {}
        with ad.no_grad():
            if branch is None:
                bb.forward_single(obs, params, capture=capture)
            else:
                obs = obs[:, -params.lengths[branch]:, :]
                bb.forward(obs, branch, params, capture=capture)
        captured.append({
            site: values[0]
            for site, values in capture.items()
            if site.startswith("enc.") and not site.endswith(".weights")
        })
    out = {}
    for site in captured[0]:
        agents = np.concatenate([scene[site] for scene in captured])
        flat = agents.transpose(1, 0, 2).reshape(agents.shape[1], -1)  # (H, all agents * d)
        out[site] = np.stack([flat.mean(axis=1), flat.std(axis=1)], axis=1)
    return out


# ----------------------------------------------------------------------------
# LayerNorm report gap. Criterion 9 compares two ``ln_statistics_probe``
# reports; the package itself never compares them.


def ln_report_gap(a: LnStatReport, b: LnStatReport, sites: list[str] | None = None) -> float:
    """Max per-position mean gap across sites, suffix-aligned when the two
    reports cover different observation lengths. ``sites`` restricts the
    comparison (e.g. to the first encoder norm, where the statistics are
    dominated by the inputs rather than by downstream weights)."""
    gaps = []
    for site in a.sites:
        if site not in b.sites or (sites is not None and site not in sites):
            continue
        rows = min(a.sites[site].shape[0], b.sites[site].shape[0])
        gaps.append(np.max(np.abs(a.sites[site][-rows:, 0] - b.sites[site][-rows:, 0])))
    if not gaps:
        raise ValueError("reports share no sites")
    return float(max(gaps))


# ----------------------------------------------------------------------------
# Per-scene evaluation. ``evaluation.evaluate`` scores a single-length model
# with one forward per group of equal-shaped scenes, and per-epoch validation
# does the same for every model; this is the same scoring with one forward
# per scene in id order, kept to check the grouped one bit for bit.


def one_scene(pred: MixturePrediction) -> MixturePrediction:
    """A one-scene stack (1, N, K, T, 2) of an (N, K, T, 2) prediction, as
    ``draw_samples`` takes it for stochastic draws."""
    return MixturePrediction(*(
        Tensor(getattr(pred, name).data[None]) for name in ("means", "scales", "logits")
    ))


def evaluate_per_scene(
    params: FlnParams, scenes, h_eval: int, k: int, normalizer,
    sampling: str = "mode-means", seed: int = 0,
) -> Metrics:
    """``evaluation.evaluate``'s metrics, one forward per scene."""
    per_ade, per_fde, branch = [], [], "-"
    for index, scene in enumerate(sorted(scenes, key=lambda s: s.scene_id)):
        observed, _, shift = transform_per_scene(scene.positions, normalizer)
        with ad.no_grad():
            if params.is_single:
                pred = bb.forward_single(observed[:, -h_eval:, :], params)
            else:
                pred, branch = forward_routed(observed[:, -h_eval:, :], params)
        sample_seed = None if sampling == "mode-means" else [int(
            np.random.default_rng([seed, 5, index]).integers(2**31)
        )]
        samples = draw_samples(one_scene(pred), k, mode=sampling, seed=sample_seed)[:, 0]
        samples_m = normalizer.inverse(samples, shift)
        future_m = scene.positions[:, -normalizer.horizon :, :]
        disp = np.linalg.norm(samples_m - future_m[None], axis=-1)
        per_ade.append(disp.mean(axis=-1).min(axis=0))
        per_fde.append(disp[:, :, -1].min(axis=0))
    return Metrics(
        ade=float(np.concatenate(per_ade).mean()), fde=float(np.concatenate(per_fde).mean()),
        k=k, eval_length=h_eval, scene_count=len(scenes), branch=branch,
    )


# ----------------------------------------------------------------------------
# Per-scene simulator. ``data.generate_from_config`` draws every scene first and
# then steps all scenes of one agent count together; this is its per-scene
# loop, each scene drawn and simulated in turn from the same stream, kept to
# check the stacked one byte for byte.


def _simulate_agents(
    rng: np.random.Generator,
    n_agents: int,
    n_steps: int,
    dt: float,
    motion_mix: tuple[float, float, float],
    noise_sigma: float,
    repulsion: float,
) -> np.ndarray:
    mix = np.asarray(motion_mix, dtype=np.float64)
    mix = mix / mix.sum()
    kinds = rng.choice(3, size=n_agents, p=mix)
    pos = rng.uniform(-10.0, 10.0, size=(n_agents, 2))
    heading = rng.uniform(0.0, 2 * np.pi, size=n_agents)
    speed = rng.uniform(0.4, 1.6, size=n_agents)
    omega = np.where(kinds == 1, rng.uniform(0.2, 1.0, size=n_agents) * rng.choice([-1.0, 1.0], size=n_agents), 0.0)

    # stop-and-go phase schedule: speed multiplier per step
    gate = np.ones((n_agents, n_steps))
    for agent in range(n_agents):
        if kinds[agent] != 2:
            continue
        t = int(rng.integers(2, 6))
        stopped = True
        while t < n_steps:
            span = int(rng.integers(2, 6)) if stopped else int(rng.integers(3, 8))
            if stopped:
                gate[agent, t : t + span] = 0.0
            stopped = not stopped
            t += span

    noise = rng.normal(0.0, noise_sigma, size=(n_steps - 1, n_agents, 2)) if noise_sigma > 0 else None

    out = np.empty((n_agents, n_steps, 2))
    out[:, 0] = pos
    for step in range(1, n_steps):
        v = speed * gate[:, step]
        dtheta = omega * dt
        # exact arc increment (reduces to a straight step when omega == 0)
        radius = np.where(omega != 0.0, v / np.where(omega != 0.0, omega, 1.0), 0.0)
        seg = np.empty((n_agents, 2))
        straight = omega == 0.0
        seg[straight, 0] = (v * dt * np.cos(heading))[straight]
        seg[straight, 1] = (v * dt * np.sin(heading))[straight]
        curved = ~straight
        seg[curved, 0] = (radius * (np.sin(heading + dtheta) - np.sin(heading)))[curved]
        seg[curved, 1] = (radius * (-np.cos(heading + dtheta) + np.cos(heading)))[curved]
        if repulsion > 0 and n_agents > 1:
            delta = pos[:, None, :] - pos[None, :, :]
            dist_sq = np.sum(delta * delta, axis=-1) + 1e-6
            np.fill_diagonal(dist_sq, np.inf)
            seg = seg + repulsion * np.sum(delta / dist_sq[..., None], axis=1) * dt
        pos = pos + seg
        if noise is not None:
            pos = pos + noise[step - 1]
        heading = heading + dtheta
        out[:, step] = pos
    return out


def generate_per_scene(
    n_scenes, agents_range, obs_len, horizon, dt, motion_mix, noise_sigma, repulsion, seed
) -> list[tuple[str, np.ndarray]]:
    """``(scene_id, positions)`` of every scene, simulated one scene at a time."""
    lo, hi = agents_range
    rng = np.random.default_rng([seed, 3])
    scenes = []
    for index in range(n_scenes):
        n_agents = int(rng.integers(lo, hi + 1))
        positions = _simulate_agents(rng, n_agents, obs_len + horizon, dt, motion_mix, noise_sigma, repulsion)
        scenes.append((f"syn-{index:06d}", positions))
    return scenes

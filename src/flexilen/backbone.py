"""Transformer trajectory predictor with branch-conditional PE and LayerNorm.

The model decomposes into a spatial encoder (position + velocity MLP), a
positional encoder, a pre-norm transformer encoder over flattened agent-time
tokens, and a mixture-density trajectory decoder. The decoder reads only each
agent's last observed token, so the encoder's last layer computes only those
N rows: their queries attend over all N*H keys and values, and the residual,
FFN and final norm run on N rows instead of N*H. A forward with ``capture``
(the LayerNorm probe, which needs every position) keeps all rows and pools
after the final norm, with the same result. A ``FlnParams`` container
holds one shared set of backbone weights referenced by every branch, plus
branch-specific positional tables and per-site LayerNorm affines; its tensor
names alone say which branch reads which tensor.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import BRANCH_IDS, BackboneConfig
from .mixture import MixturePrediction

LN_EPS = 1e-5
SCALE_FLOOR = 1e-3
SPATIAL_IN = 4  # position (2) + backward-difference velocity (2)


def _activation(name: str):
    return {"relu": ad.relu, "gelu": ad.gelu}[name]


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def ln_sites(cfg: BackboneConfig) -> list[str]:
    """All LayerNorm site ids, encoder sites first."""
    sites = []
    for layer in range(cfg.layers):
        sites.append(f"enc.l{layer}.norm1")
        sites.append(f"enc.l{layer}.norm2")
    sites.append("enc.final_norm")
    sites.append("dec.norm")
    return sites


@dataclass
class FlnParams:
    """Named parameter store for one model (single-branch or multi-branch).

    ``tensors`` maps hierarchical names to Tensor objects, and the names are
    the model's layout: ``shared.*`` is read by every branch, while
    ``theta.<b>.*`` (a backbone weight), ``sln.<b>.<site>.*`` (a LayerNorm
    affine) and ``pe.<b>.table`` (a learnable positional table) belong to
    branch ``b`` and take the place of the shared tensor of the same role.
    A shared tensor exists exactly once and is referenced by every branch, so
    an update through any branch is visible to all of them.
    """

    cfg: BackboneConfig
    lengths: dict[str, int]  # branch id -> observation length, ordered S < M < L
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def __post_init__(self):
        """The one check of branch lengths, for a new model and a loaded one:
        a non-empty subset of ``BRANCH_IDS``, each length an integer >= 1,
        strictly increasing in S < M < L order."""
        ordered = [self.lengths[b] for b in BRANCH_IDS if b in self.lengths]
        if not ordered or len(ordered) != len(self.lengths):
            raise ValueError(
                f"branch ids must be a non-empty subset of {BRANCH_IDS}, got {list(self.lengths)}"
            )
        if any(type(h) is not int or h < 1 for h in ordered):  # a bool is not a length either
            raise ValueError(f"branch lengths must be integers >= 1, got {self.lengths}")
        if any(a >= b for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"branch lengths must increase in S < M < L order, got {self.lengths}")

    @property
    def branch_ids(self) -> tuple[str, ...]:
        return tuple(b for b in BRANCH_IDS if b in self.lengths)

    @property
    def is_single(self) -> bool:
        return len(self.lengths) == 1

    @property
    def max_length(self) -> int:
        return max(self.lengths.values())

    def weight(self, branch: str, name: str) -> Tensor:
        tensor = self.tensors.get(f"theta.{branch}.{name}")
        return self.tensors[f"shared.{name}"] if tensor is None else tensor

    def ln_affine(self, branch: str, site: str) -> tuple[Tensor, Tensor]:
        prefix = f"sln.{branch}.{site}"
        if f"{prefix}.gamma" not in self.tensors:
            prefix = f"shared.{site}"
        return self.tensors[f"{prefix}.gamma"], self.tensors[f"{prefix}.beta"]

    def pe_table(self, branch: str) -> Tensor | None:
        if self.cfg.pe_kind != "learnable":
            return None
        table = self.tensors.get(f"pe.{branch}.table")
        return self.tensors["pe.shared.table"] if table is None else table

    def missing_tensor(self) -> str | None:
        """The first tensor some branch's forward reads that the store lacks,
        with that branch, or None when every branch has all it reads."""
        for branch in self.branch_ids:
            try:
                for weight, bias, _, _ in _linear_layers(self.cfg):
                    self.weight(branch, weight)
                    self.weight(branch, bias)
                for site in ln_sites(self.cfg):
                    self.ln_affine(branch, site)
                self.pe_table(branch)
            except KeyError as exc:
                return f"branch {branch} reads a missing tensor {exc.args[0]!r}"
        return None


def _linear_layers(cfg: BackboneConfig) -> list[tuple[str, str, int, int]]:
    """(weight name, bias name, fan-in, fan-out) of every backbone linear
    layer, in initialization order."""
    d, ffn, hidden = cfg.d_model, 2 * cfg.d_model, cfg.dec_hidden
    layers = [("spatial.w1", "spatial.b1", SPATIAL_IN, d), ("spatial.w2", "spatial.b2", d, d)]
    for layer in range(cfg.layers):
        attn, ff = f"enc.l{layer}.attn", f"enc.l{layer}.ffn"
        layers += [(f"{attn}.w{p}", f"{attn}.{p}b", d, d) for p in "qkvo"]
        layers += [(f"{ff}.w1", f"{ff}.b1", d, ffn), (f"{ff}.w2", f"{ff}.b2", ffn, d)]
    head_out = cfg.modes * cfg.horizon * 4 + cfg.modes
    return layers + [("dec.w1", "dec.b1", d, hidden), ("dec.w2", "dec.b2", hidden, head_out)]


def init_params(
    cfg: BackboneConfig,
    lengths: dict[str, int],
    seed: int | tuple[int, ...],
    weight_sharing: bool = True,
    independent_pe: bool = True,
    specialized_ln: bool = True,
) -> FlnParams:
    """Seeded parameter initialization: uniform +-1/sqrt(fan-in) weights, unit
    LayerNorm affines, zero positional tables.

    The flags choose which tensors exist, so the layout (see ``FlnParams``):
    ``weight_sharing`` off gives each branch its own ``theta.<b>.*`` backbone,
    ``specialized_ln`` its own encoder LayerNorm affines (the decoder's follow
    ``cfg.decoder_sln``) and ``independent_pe`` its own learnable table. A
    single-length model, ``lengths={"L": h}``, shares its affines and table
    whatever the last two flags say.
    """
    cfg.validate()
    params = FlnParams(cfg, dict(lengths))
    branch_ids = params.branch_ids
    branched = not params.is_single
    seed_tuple = (seed,) if isinstance(seed, int) else tuple(seed)
    rng = np.random.default_rng([*seed_tuple, 0])

    def add(name: str, value: np.ndarray) -> None:
        params.tensors[name] = Tensor(value, requires_grad=True)

    for owner in ["shared"] if weight_sharing else [f"theta.{b}" for b in branch_ids]:
        for weight, bias, fan_in, fan_out in _linear_layers(cfg):
            add(f"{owner}.{weight}", _uniform(rng, (fan_in, fan_out), fan_in))
            add(f"{owner}.{bias}", _uniform(rng, (fan_out,), fan_in))

    d = cfg.d_model
    for site in ln_sites(cfg):
        per_branch = branched and (cfg.decoder_sln if site == "dec.norm" else specialized_ln)
        for prefix in [f"sln.{b}.{site}" for b in branch_ids] if per_branch else [f"shared.{site}"]:
            add(f"{prefix}.gamma", np.ones(d))
            add(f"{prefix}.beta", np.zeros(d))

    if cfg.pe_kind == "learnable":
        if independent_pe and branched:
            for branch in branch_ids:
                add(f"pe.{branch}.table", np.zeros((lengths[branch], d)))
        else:
            add("pe.shared.table", np.zeros((params.max_length, d)))
    return params


# ------------------------------------------------------------ positional enc


def sinusoidal_pe(t_indices: np.ndarray, shift: int, d_model: int) -> np.ndarray:
    """Sinusoidal rows: sin((t+shift)/10000^(k/d)) even k, cos with (k-1)/d odd k."""
    t = np.asarray(t_indices, dtype=np.float64)[:, None]
    k = np.arange(d_model)
    exponent = np.where(k % 2 == 0, k, k - 1) / d_model
    angle = (t + float(shift)) / np.power(10000.0, exponent)[None, :]
    return np.where(k % 2 == 0, np.sin(angle), np.cos(angle))


@functools.lru_cache(maxsize=256)
def _sinusoidal_rows(start: int, stop: int, d_model: int) -> np.ndarray:
    """``sinusoidal_pe`` rows ``start..stop-1`` shifted by ``stop``, built
    once per key: every forward at a given length reads the same rows.
    Read-only, since callers share them."""
    rows = sinusoidal_pe(np.arange(start, stop), stop, d_model)
    rows.flags.writeable = False
    return rows


def _pe_rows(params: FlnParams, branch: str, start: int, stop: int) -> Tensor:
    """Positional rows ``start..stop-1`` of ``branch``, the sinusoidal ones
    shifted by ``stop``.

    A branch forward of ``fed`` steps reads ``(H_b - fed, H_b)``: a shorter
    input is suffix-aligned within the branch window, so the most recent
    observation keeps its trained encoding. A single-length model reads
    ``(0, fed)``: the sinusoidal shift tracks the current input length (the
    behavior that produces positional deviation under length changes).
    """
    if start < 0:
        raise ValueError(f"cannot feed {stop - start} steps through branch {branch} (H={stop})")
    if params.cfg.pe_kind == "sinusoidal":
        return Tensor(_sinusoidal_rows(start, stop, params.cfg.d_model))
    # a shared (ablated) table is sized for the longest branch; each branch
    # reads its first H rows
    table = params.pe_table(branch)
    if stop > table.shape[0]:
        raise ValueError(
            f"input length {stop} exceeds the learnable table ({table.shape[0]} rows)"
        )
    return table[start:stop]


# ------------------------------------------------------------------- layers


def specialized_layer_norm(x: Tensor, branch: str, site: str, params: FlnParams) -> Tensor:
    gamma, beta = params.ln_affine(branch, site)
    return ad.layer_norm(x, gamma, beta, LN_EPS)


def _linear(x: Tensor, branch: str, params: FlnParams, weight: str, bias: str) -> Tensor:
    return ad.linear(x, params.weight(branch, weight), params.weight(branch, bias))


def spatial_features(observations: np.ndarray) -> np.ndarray:
    """Stack positions with backward-difference velocities (first step copies
    the second's; a single-step window gets zero velocity)."""
    obs = np.asarray(observations, dtype=np.float64)
    vel = np.zeros_like(obs)
    if obs.shape[-2] > 1:
        vel[..., 1:, :] = obs[..., 1:, :] - obs[..., :-1, :]
        vel[..., 0, :] = vel[..., 1, :]
    return np.concatenate([obs, vel], axis=-1)


def spatial_encode(observations: np.ndarray, branch: str, params: FlnParams) -> Tensor:
    """Per-timestep embedding of position and velocity via a two-layer MLP."""
    if observations.shape[-2] < 1:
        raise ValueError("spatial_encode requires at least one observed step")
    act = _activation(params.cfg.activation)
    feats = Tensor(spatial_features(observations))
    hidden = act(_linear(feats, branch, params, "spatial.w1", "spatial.b1"))
    return _linear(hidden, branch, params, "spatial.w2", "spatial.b2")


def _attention(
    tokens: Tensor, queries: Tensor, branch: str, layer: int, params: FlnParams, capture=None
) -> Tensor:
    """Multi-head self-attention: ``queries`` (B, Q, d) attend over every row
    of ``tokens`` (B, S, d), which supply the keys and values.

    Four ``linear`` nodes project the queries, keys, values and the merged
    context; one ``autodiff.attention`` node between them splits the heads,
    attends and merges them back.
    """
    heads = params.cfg.heads
    prefix = f"enc.l{layer}.attn"

    def proj(source: Tensor, name: str) -> Tensor:
        return _linear(source, branch, params, f"{prefix}.w{name}", f"{prefix}.{name}b")

    scale = 1.0 / np.sqrt(tokens.shape[-1] // heads)
    context, weights = ad.attention(
        proj(queries, "q"), proj(tokens, "k"), proj(tokens, "v"), heads, scale
    )
    if capture is not None:
        capture.setdefault(f"{prefix}.weights", []).append(weights)
    return _linear(context, branch, params, f"{prefix}.wo", f"{prefix}.ob")


def transformer_encode(
    features: Tensor,
    branch: str,
    params: FlnParams,
    capture: dict[str, list[np.ndarray]] | None = None,
) -> Tensor:
    """Pre-norm self-attention blocks over flattened agent-time tokens; returns
    each agent's last-timestep token after the final norm, (B, N, d).

    ``features`` is (B, N, H, d); attention mixes all N*H tokens of a scene.
    The decoder reads only each agent's last token, so the last layer takes
    its queries from those N rows alone (keys and values still come from all
    N*H), and its residual, FFN and the final norm run on them too; earlier
    layers keep every token, since the next layer attends over all of them.
    ``capture`` collects the pre-normalization input of every LN site at
    every position, so with it the last layer keeps all rows and the pooling
    happens after the final norm; the returned tokens are the same.
    """
    cfg = params.cfg
    batch, n_agents, h_steps, d = features.shape
    act = _activation(cfg.activation)
    x = ad.reshape(features, (batch, n_agents * h_steps, d))
    pooled = slice(h_steps - 1, None, h_steps)  # agent-major rows: each agent's last step

    def record(site: str, value: Tensor) -> None:
        if capture is not None:
            capture.setdefault(site, []).append(
                value.data.reshape(batch, n_agents, h_steps, d)
            )

    for layer in range(cfg.layers):
        site1 = f"enc.l{layer}.norm1"
        record(site1, x)
        normed1 = specialized_layer_norm(x, branch, site1, params)
        queries = normed1
        if layer == cfg.layers - 1 and capture is None:
            x, queries = x[:, pooled, :], normed1[:, pooled, :]
        x = x + _attention(normed1, queries, branch, layer, params, capture=capture)
        site2 = f"enc.l{layer}.norm2"
        record(site2, x)
        normed = specialized_layer_norm(x, branch, site2, params)
        ffn = f"enc.l{layer}.ffn"
        hidden = act(_linear(normed, branch, params, f"{ffn}.w1", f"{ffn}.b1"))
        x = x + _linear(hidden, branch, params, f"{ffn}.w2", f"{ffn}.b2")
    record("enc.final_norm", x)
    x = specialized_layer_norm(x, branch, "enc.final_norm", params)
    return x if capture is None else x[:, pooled, :]


def cv_rollout(observations: np.ndarray, horizon: int) -> np.ndarray:
    """Constant-velocity extrapolation of the last observed step, (..., T, 2)."""
    obs = np.asarray(observations, dtype=np.float64)
    last = obs[..., -1, :]
    vel = last - obs[..., -2, :] if obs.shape[-2] > 1 else np.zeros_like(last)
    steps = np.arange(1, horizon + 1, dtype=np.float64)
    return last[..., None, :] + steps[:, None] * vel[..., None, :]


def mixture_head(out: Tensor, baseline: np.ndarray, modes: int, horizon: int) -> MixturePrediction:
    """Mixture parameters from the decoder head's output (B, N, K*T*4 + K).

    The first K*T*4 columns are per-mode, per-step channels (K, T, 4): the
    mean's column of mode k, step t and coordinate c is k*T*4 + t*4 + c, and
    the raw scale's is two further on. Two corrections added to ``baseline``
    (B, N, T, 2) give the means, and a softplus of the other two, plus
    ``SCALE_FLOOR``, gives the scales, both (B, N, K, T, 2); the last K
    columns are the logits. Means and scales are one node each, with ``out``
    as their only parent: a gather of their columns of ``out``, whose
    backward scatters the gradient into the same columns of a zero
    (B*N, width) array. Each equals, bit for bit, the op chain slice,
    reshape, slice, then add (means) or softplus and add (scales). The
    logits are a slice of ``out``.
    """
    batch, n_agents, width = out.shape
    core = modes * horizon * 4
    mean_columns, scale_columns = _head_columns(modes, horizon)
    shape = (batch, n_agents, modes, horizon, 2)
    rows = out.data.reshape(batch * n_agents, width)

    def to_out(g: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray]:
        z = np.zeros(rows.shape)
        # one write per column; the engine's sum with the other parts' zeros
        # then turns a -0.0 into 0.0, as the chain's add into zeros does
        z[:, columns] = g.reshape(len(rows), -1)
        return (z.reshape(out.shape),)

    raw_scales = rows[:, scale_columns]
    means = ad.record(
        rows[:, mean_columns].reshape(shape) + baseline[:, :, None, :, :],
        (out,),
        lambda g: to_out(g, mean_columns),
    )
    scales = ad.record(
        (ad.softplus_array(raw_scales) + SCALE_FLOOR).reshape(shape),
        (out,),
        lambda g: to_out(g.reshape(raw_scales.shape) * ad.sigmoid_array(raw_scales), scale_columns),
    )
    return MixturePrediction(means, scales, out[:, :, core:])


@functools.lru_cache(maxsize=256)
def _head_columns(modes: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The head-output columns of the means and of the raw scales, each in
    (K, T, 2) order, flat and read-only."""
    k, t, c = np.ogrid[:modes, :horizon, :2]
    means = (k * (horizon * 4) + t * 4 + c).reshape(-1)
    scales = means + 2
    means.flags.writeable = scales.flags.writeable = False
    return means, scales


def decode(pooled: Tensor, anchors: np.ndarray, branch: str, params: FlnParams) -> MixturePrediction:
    """Map each agent's last-timestep token (B, N, d), as ``transformer_encode``
    returns it, to mixture parameters.

    LayerNorm and a two-layer MLP give the head output; ``mixture_head``
    splits it. The head emits per-mode, per-step corrections on top of a
    constant-velocity rollout of the anchor trajectory, so the mixture means
    are positions and a zero-output head is already a one-step extrapolator.
    ``anchors`` carries each agent's trailing observed positions (..., >=2, 2).
    """
    cfg = params.cfg
    normed = specialized_layer_norm(pooled, branch, "dec.norm", params)
    act = _activation(cfg.activation)
    hidden = act(_linear(normed, branch, params, "dec.w1", "dec.b1"))
    out = _linear(hidden, branch, params, "dec.w2", "dec.b2")
    return mixture_head(out, cv_rollout(anchors, cfg.horizon), cfg.modes, cfg.horizon)


def _run(
    observations: np.ndarray,
    branch: str,
    params: FlnParams,
    pe_rows: Tensor,
    capture=None,
) -> MixturePrediction:
    obs = np.asarray(observations, dtype=np.float64)
    batched = obs.ndim == 4
    if not batched:
        obs = obs[None]
    feats = spatial_encode(obs, branch, params) + pe_rows
    pooled = transformer_encode(feats, branch, params, capture=capture)
    pred = decode(pooled, obs[:, :, -2:, :], branch, params)
    if batched:
        return pred
    return MixturePrediction(pred.means[0], pred.scales[0], pred.logits[0])


def forward(
    observations: np.ndarray, branch: str, params: FlnParams, capture=None
) -> MixturePrediction:
    """Full branch forward: spatial encoding + PE -> encoder -> decoder.

    Takes any window up to the branch's training length; a shorter one is
    suffix-aligned within the branch window, so its last step keeps the
    encoding it was trained with, and a longer one is rejected
    (``_pe_rows``). Callers that need the full length check it themselves
    (``fln.fln_loss``).
    """
    if branch not in params.lengths:
        raise ValueError(f"unknown branch {branch!r}; model has {params.branch_ids}")
    h_branch = params.lengths[branch]
    pe_rows = _pe_rows(params, branch, h_branch - np.shape(observations)[-2], h_branch)
    return _run(observations, branch, params, pe_rows, capture=capture)


def forward_single(
    observations: np.ndarray, params: FlnParams, capture=None
) -> MixturePrediction:
    """Forward for a single-length model at whatever length it is fed.

    The positional encoding follows the current input length, so feeding a
    length the model was not trained at shifts the encoder's inputs; that is
    the conventional behavior this package measures.
    """
    if not params.is_single:
        raise ValueError("forward_single expects a single-branch model; use routing instead")
    branch = params.branch_ids[0]
    fed = np.asarray(observations).shape[-2]
    return _run(observations, branch, params, _pe_rows(params, branch, 0, fed), capture=capture)

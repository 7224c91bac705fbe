"""Transformer trajectory predictor with branch-conditional PE and LayerNorm.

The model decomposes into a spatial encoder (position + velocity MLP), a
positional encoder, a pre-norm transformer encoder over flattened agent-time
tokens, and a mixture-density trajectory decoder. A ``FlnParams`` container
holds one shared set of backbone weights referenced by every branch, plus
branch-specific positional tables and per-site LayerNorm affines; ablation
switches collapse those back to shared storage.
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


def _site_is_specialized(site: str, cfg: BackboneConfig, specialized_ln: bool) -> bool:
    if site.startswith("enc."):
        return specialized_ln
    if site == "dec.norm":
        return cfg.decoder_sln
    raise KeyError(f"unknown LayerNorm site {site!r}")


@dataclass
class FlnParams:
    """Named parameter store for one model (single-branch or multi-branch).

    ``tensors`` maps hierarchical names to shared Tensor objects; the shared
    backbone weights exist exactly once and are referenced by every branch,
    so an update through any branch is visible to all of them.
    """

    cfg: BackboneConfig
    lengths: dict[str, int]  # branch id -> observation length, ordered S < M <= L
    weight_sharing: bool = True
    independent_pe: bool = True
    specialized_ln: bool = True
    tensors: dict[str, Tensor] = field(default_factory=dict)

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
        key = f"shared.{name}" if self.weight_sharing else f"theta.{branch}.{name}"
        return self.tensors[key]

    def ln_affine(self, branch: str, site: str) -> tuple[Tensor, Tensor]:
        if _site_is_specialized(site, self.cfg, self.specialized_ln) and not self.is_single:
            prefix = f"sln.{branch}.{site}"
        else:
            prefix = f"shared.{site}"
        return self.tensors[f"{prefix}.gamma"], self.tensors[f"{prefix}.beta"]

    def pe_table(self, branch: str) -> Tensor | None:
        if self.cfg.pe_kind != "learnable":
            return None
        if self.independent_pe and not self.is_single:
            return self.tensors[f"pe.{branch}.table"]
        return self.tensors["pe.shared.table"]


def _init_theta(cfg: BackboneConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    d = cfg.d_model
    ffn = 2 * d
    head_out = cfg.modes * cfg.horizon * 4 + cfg.modes
    arrays: dict[str, np.ndarray] = {}
    arrays["spatial.w1"] = _uniform(rng, (SPATIAL_IN, d), SPATIAL_IN)
    arrays["spatial.b1"] = _uniform(rng, (d,), SPATIAL_IN)
    arrays["spatial.w2"] = _uniform(rng, (d, d), d)
    arrays["spatial.b2"] = _uniform(rng, (d,), d)
    for layer in range(cfg.layers):
        for proj in ("wq", "wk", "wv", "wo"):
            arrays[f"enc.l{layer}.attn.{proj}"] = _uniform(rng, (d, d), d)
            arrays[f"enc.l{layer}.attn.{proj[1]}b"] = _uniform(rng, (d,), d)
        arrays[f"enc.l{layer}.ffn.w1"] = _uniform(rng, (d, ffn), d)
        arrays[f"enc.l{layer}.ffn.b1"] = _uniform(rng, (ffn,), d)
        arrays[f"enc.l{layer}.ffn.w2"] = _uniform(rng, (ffn, d), ffn)
        arrays[f"enc.l{layer}.ffn.b2"] = _uniform(rng, (d,), ffn)
    arrays["dec.w1"] = _uniform(rng, (d, cfg.dec_hidden), d)
    arrays["dec.b1"] = _uniform(rng, (cfg.dec_hidden,), d)
    arrays["dec.w2"] = _uniform(rng, (cfg.dec_hidden, head_out), cfg.dec_hidden)
    arrays["dec.b2"] = _uniform(rng, (head_out,), cfg.dec_hidden)
    return arrays


def init_params(
    cfg: BackboneConfig,
    lengths: dict[str, int],
    seed: int | tuple[int, ...],
    weight_sharing: bool = True,
    independent_pe: bool = True,
    specialized_ln: bool = True,
) -> FlnParams:
    """Seeded parameter initialization: uniform +-1/sqrt(fan-in) weights, unit
    LayerNorm affines, zero positional tables."""
    cfg.validate()
    params = FlnParams(cfg, dict(lengths), weight_sharing, independent_pe, specialized_ln)
    branch_ids = params.branch_ids
    if set(lengths) != set(branch_ids):
        raise ValueError(f"branch ids must come from {BRANCH_IDS}, got {sorted(lengths)}")
    seed_tuple = (seed,) if isinstance(seed, int) else tuple(seed)
    rng = np.random.default_rng([*seed_tuple, 0])

    if weight_sharing:
        for name, arr in _init_theta(cfg, rng).items():
            params.tensors[f"shared.{name}"] = Tensor(arr, requires_grad=True)
    else:
        for branch in branch_ids:
            for name, arr in _init_theta(cfg, rng).items():
                params.tensors[f"theta.{branch}.{name}"] = Tensor(arr, requires_grad=True)

    d = cfg.d_model
    for site in ln_sites(cfg):
        if _site_is_specialized(site, cfg, specialized_ln) and not params.is_single:
            for branch in branch_ids:
                params.tensors[f"sln.{branch}.{site}.gamma"] = Tensor(np.ones(d), requires_grad=True)
                params.tensors[f"sln.{branch}.{site}.beta"] = Tensor(np.zeros(d), requires_grad=True)
        else:
            params.tensors[f"shared.{site}.gamma"] = Tensor(np.ones(d), requires_grad=True)
            params.tensors[f"shared.{site}.beta"] = Tensor(np.zeros(d), requires_grad=True)

    if cfg.pe_kind == "learnable":
        if independent_pe and not params.is_single:
            for branch in branch_ids:
                params.tensors[f"pe.{branch}.table"] = Tensor(
                    np.zeros((lengths[branch], d)), requires_grad=True
                )
        else:
            params.tensors["pe.shared.table"] = Tensor(
                np.zeros((params.max_length, d)), requires_grad=True
            )
    return params


def init_single_params(cfg: BackboneConfig, obs_len: int, seed: int | tuple[int, ...]) -> FlnParams:
    """A conventional single-length model: one branch, nothing specialized."""
    return init_params(
        cfg, {"L": obs_len}, seed, weight_sharing=True, independent_pe=False, specialized_ln=False
    )


# ------------------------------------------------------------ positional enc


def sinusoidal_pe(t_indices: np.ndarray, shift: int, d_model: int) -> np.ndarray:
    """Sinusoidal rows: sin((t+shift)/10000^(k/d)) even k, cos with (k-1)/d odd k."""
    t = np.asarray(t_indices, dtype=np.float64)[:, None]
    k = np.arange(d_model)
    exponent = np.where(k % 2 == 0, k, k - 1) / d_model
    angle = (t + float(shift)) / np.power(10000.0, exponent)[None, :]
    return np.where(k % 2 == 0, np.sin(angle), np.cos(angle))


@functools.lru_cache(maxsize=256)
def _sinusoidal_rows(start: int, stop: int, shift: int, d_model: int) -> np.ndarray:
    """``sinusoidal_pe`` rows ``start..stop-1``, built once per key: every
    forward at a given length reads the same rows. Read-only, since callers
    share them."""
    rows = sinusoidal_pe(np.arange(start, stop), shift, d_model)
    rows.flags.writeable = False
    return rows


def _pe_rows(params: FlnParams, branch: str, fed_length: int) -> Tensor:
    """Positional rows for feeding ``fed_length`` steps through a branch.

    Shorter-than-branch inputs are suffix-aligned within the branch window so
    the most recent observation keeps its trained encoding.
    """
    h_branch = params.lengths[branch]
    if fed_length > h_branch:
        raise ValueError(f"cannot feed {fed_length} steps through branch {branch} (H={h_branch})")
    offset = h_branch - fed_length
    if params.cfg.pe_kind == "sinusoidal":
        return Tensor(_sinusoidal_rows(offset, h_branch, h_branch, params.cfg.d_model))
    table = params.pe_table(branch)
    # a shared (ablated) table is sized for the longest branch; each branch
    # reads its first H rows
    return table[offset:h_branch]


def _pe_rows_native(params: FlnParams, fed_length: int) -> Tensor:
    """Positional rows for a single-length model evaluated at an arbitrary
    length: the sinusoidal shift tracks the current input length (the
    behavior that produces positional deviation under length changes)."""
    if params.cfg.pe_kind == "sinusoidal":
        return Tensor(_sinusoidal_rows(0, fed_length, fed_length, params.cfg.d_model))
    table = params.pe_table(params.branch_ids[-1])
    if fed_length > table.shape[0]:
        raise ValueError(
            f"input length {fed_length} exceeds the learnable table ({table.shape[0]} rows)"
        )
    return table[0:fed_length]


# ------------------------------------------------------------------- layers


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LN_EPS) -> Tensor:
    """Normalize along the feature axis (population variance), then affine."""
    mu = ad.reduce_mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ad.reduce_mean(centered * centered, axis=-1, keepdims=True)
    normalized = centered / ad.sqrt(var + eps)
    return normalized * gamma + beta


def specialized_layer_norm(x: Tensor, branch: str, site: str, params: FlnParams) -> Tensor:
    gamma, beta = params.ln_affine(branch, site)
    return layer_norm(x, gamma, beta)


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
    w1 = params.weight(branch, "spatial.w1")
    hidden = act(feats @ w1 + params.weight(branch, "spatial.b1"))
    return hidden @ params.weight(branch, "spatial.w2") + params.weight(branch, "spatial.b2")


def _attention(
    tokens: Tensor, branch: str, layer: int, params: FlnParams, capture=None
) -> Tensor:
    cfg = params.cfg
    batch, seq, d = tokens.shape
    head_dim = d // cfg.heads
    prefix = f"enc.l{layer}.attn"

    def proj(name: str) -> Tensor:
        out = tokens @ params.weight(branch, f"{prefix}.w{name}") + params.weight(
            branch, f"{prefix}.{name}b"
        )
        return ad.transpose(ad.reshape(out, (batch, seq, cfg.heads, head_dim)), (0, 2, 1, 3))

    q, k, v = proj("q"), proj("k"), proj("v")
    scores = (q @ ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(head_dim))
    weights = ad.softmax(scores, axis=-1)
    if capture is not None:
        capture.setdefault(f"{prefix}.weights", []).append(weights.data)
    context = weights @ v
    merged = ad.reshape(ad.transpose(context, (0, 2, 1, 3)), (batch, seq, d))
    return merged @ params.weight(branch, f"{prefix}.wo") + params.weight(branch, f"{prefix}.ob")


def transformer_encode(
    features: Tensor,
    branch: str,
    params: FlnParams,
    capture: dict[str, list[np.ndarray]] | None = None,
) -> Tensor:
    """Pre-norm self-attention blocks over flattened agent-time tokens.

    ``features`` is (B, N, H, d); attention mixes all N*H tokens of a scene.
    ``capture`` collects the pre-normalization input of every LN site.
    """
    cfg = params.cfg
    batch, n_agents, h_steps, d = features.shape
    act = _activation(cfg.activation)
    x = ad.reshape(features, (batch, n_agents * h_steps, d))

    def record(site: str, value: Tensor) -> None:
        if capture is not None:
            capture.setdefault(site, []).append(
                value.data.reshape(batch, n_agents, h_steps, d)
            )

    for layer in range(cfg.layers):
        site1 = f"enc.l{layer}.norm1"
        record(site1, x)
        normed1 = specialized_layer_norm(x, branch, site1, params)
        x = x + _attention(normed1, branch, layer, params, capture=capture)
        site2 = f"enc.l{layer}.norm2"
        record(site2, x)
        normed = specialized_layer_norm(x, branch, site2, params)
        hidden = act(normed @ params.weight(branch, f"enc.l{layer}.ffn.w1") + params.weight(branch, f"enc.l{layer}.ffn.b1"))
        x = x + (hidden @ params.weight(branch, f"enc.l{layer}.ffn.w2") + params.weight(branch, f"enc.l{layer}.ffn.b2"))
    record("enc.final_norm", x)
    x = specialized_layer_norm(x, branch, "enc.final_norm", params)
    return ad.reshape(x, (batch, n_agents, h_steps, d))


def cv_rollout(observations: np.ndarray, horizon: int) -> np.ndarray:
    """Constant-velocity extrapolation of the last observed step, (..., T, 2)."""
    obs = np.asarray(observations, dtype=np.float64)
    last = obs[..., -1, :]
    vel = last - obs[..., -2, :] if obs.shape[-2] > 1 else np.zeros_like(last)
    steps = np.arange(1, horizon + 1, dtype=np.float64)
    return last[..., None, :] + steps[:, None] * vel[..., None, :]


def decode(encoded: Tensor, anchors: np.ndarray, branch: str, params: FlnParams) -> MixturePrediction:
    """Pool each agent's final-timestep token and map to mixture parameters.

    The head emits per-mode, per-step corrections on top of a constant-
    velocity rollout of the anchor trajectory, so the mixture means are
    positions and a zero-output head is already a one-step extrapolator.
    ``anchors`` carries each agent's trailing observed positions (..., >=2, 2).
    """
    cfg = params.cfg
    batch, n_agents, h_steps, d = encoded.shape
    k, t = cfg.modes, cfg.horizon
    last = encoded[:, :, h_steps - 1, :]
    normed = specialized_layer_norm(last, branch, "dec.norm", params)
    act = _activation(cfg.activation)
    hidden = act(normed @ params.weight(branch, "dec.w1") + params.weight(branch, "dec.b1"))
    out = hidden @ params.weight(branch, "dec.w2") + params.weight(branch, "dec.b2")
    core = ad.reshape(out[:, :, : k * t * 4], (batch, n_agents, k, t, 4))
    core = ad.transpose(core, (0, 1, 3, 2, 4))  # (B, N, T, K, 4)
    baseline = cv_rollout(anchors, t)  # (B, N, T, 2)
    means = core[:, :, :, :, 0:2] + Tensor(baseline[:, :, :, None, :])
    scales = ad.softplus(core[:, :, :, :, 2:4]) + SCALE_FLOOR
    logits = out[:, :, k * t * 4 :]
    return MixturePrediction(means, scales, logits)


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
    encoded = transformer_encode(feats, branch, params, capture=capture)
    pred = decode(encoded, obs[:, :, -2:, :], branch, params)
    if batched:
        return pred
    return MixturePrediction(pred.means[0], pred.scales[0], pred.logits[0])


def forward(
    observations: np.ndarray,
    branch: str,
    params: FlnParams,
    capture=None,
    allow_shorter: bool = False,
) -> MixturePrediction:
    """Full branch forward: spatial encoding + PE -> encoder -> decoder.

    The observation length must equal the branch's training length; this
    guard is what keeps a length/branch mismatch from silently shifting the
    input distribution. ``allow_shorter`` admits shorter inputs for routed
    inference, suffix-aligned within the branch window.
    """
    if branch not in params.lengths:
        raise ValueError(f"unknown branch {branch!r}; model has {params.branch_ids}")
    fed = np.asarray(observations).shape[-2]
    expected = params.lengths[branch]
    if fed != expected and not (allow_shorter and fed < expected):
        raise ValueError(
            f"observation length {fed} does not match branch {branch} (H={expected})"
        )
    return _run(observations, branch, params, _pe_rows(params, branch, fed), capture=capture)


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
    return _run(observations, branch, params, _pe_rows_native(params, fed), capture=capture)

"""Independent reference implementations that tests compare the package against."""
from __future__ import annotations

import numpy as np

from flexilen.backbone import FlnParams, sinusoidal_pe
from flexilen.mixture import MixturePrediction


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
    diff = np.expand_dims(future, -2) - means
    dens = np.prod(
        np.exp(-0.5 * (diff / scales) ** 2) / (np.sqrt(2 * np.pi) * scales), axis=(-3, -1)
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

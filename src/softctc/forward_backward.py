"""Rescaled linear-domain forward-backward over a sparse transition matrix.

Both the plain chain targets and compiled confusion-network targets run
through this kernel.  Recursions stay in the linear domain; each frame's
vectors are divided by their sum and the log scale factors are accumulated,
so the matrix products never touch the log semiring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .types import InfeasibleTarget


@dataclass(frozen=True, eq=False)
class ForwardBackwardWorkspace:
    """Scaled passes plus the per-frame scale factors needed to undo them.

    ``alphas[t]`` is the forward vector after dividing by ``alpha_scales[t]``;
    the unscaled vector is ``alphas[t] * prod(alpha_scales[:t+1])`` and
    symmetrically for the backward side.
    """

    alphas: np.ndarray
    betas: np.ndarray
    alpha_scales: np.ndarray
    beta_scales: np.ndarray
    state_symbols: np.ndarray

    @property
    def num_states(self) -> int:
        return self.alphas.shape[1]

    @property
    def num_frames(self) -> int:
        return self.alphas.shape[0]


def run_passes(
    y: np.ndarray,
    transition: sp.csr_matrix,
    transition_t: sp.csr_matrix,
    state_symbols: np.ndarray,
    alpha_init: np.ndarray,
    beta_final: np.ndarray,
) -> tuple[float, ForwardBackwardWorkspace]:
    """Run both passes; returns (negative log probability, workspace).

    Raises InfeasibleTarget when no alignment carries probability mass, or
    when a scale is not a finite positive number (non-finite posteriors).  The
    loss is read off the last forward vector against the final weights, which
    keeps it independent of the backward pass.
    """
    frames = y.shape[0]
    q = y[:, state_symbols]  # (T, S) emission slice per state

    alphas = np.empty_like(q)
    alpha_scales = np.empty(frames)
    vec = alpha_init * q[0]
    for t in range(frames):
        if t > 0:
            vec = (vec @ transition) * q[t]
        scale = vec.sum()
        if not 0.0 < scale < np.inf:  # also catches NaN
            raise InfeasibleTarget(
                f"forward mass {scale!r} at frame {t}; target admits no alignment"
            )
        vec = vec / scale
        alphas[t] = vec
        alpha_scales[t] = scale

    final = float(alphas[-1] @ beta_final)
    if not 0.0 < final < np.inf:
        raise InfeasibleTarget(f"final mass {final!r}; no admissible final state reachable")
    loss = -(np.log(alpha_scales).sum() + np.log(final))

    betas = np.empty_like(q)
    beta_scales = np.empty(frames)
    vec = beta_final * q[-1]
    for t in range(frames - 1, -1, -1):
        if t < frames - 1:
            vec = (vec @ transition_t) * q[t]
        scale = vec.sum()
        if not 0.0 < scale < np.inf:
            # cannot happen when the forward pass found mass, but fail loudly
            raise InfeasibleTarget(f"backward mass {scale!r} at frame {t}")
        vec = vec / scale
        betas[t] = vec
        beta_scales[t] = scale

    ws = ForwardBackwardWorkspace(alphas, betas, alpha_scales, beta_scales, state_symbols)
    return float(loss), ws


def state_posterior_terms(y: np.ndarray, ws: ForwardBackwardWorkspace) -> np.ndarray:
    """Scaled alpha*beta/q per frame and state, with 0/0 read as 0.

    Summed over states and unscaled, this is the target probability at any
    frame; the invariance over frames is the standard consistency check.
    """
    q = y[:, ws.state_symbols]
    terms = np.zeros_like(q)
    np.divide(ws.alphas * ws.betas, q, out=terms, where=q > 0.0)
    return terms


def gradient(y: np.ndarray, ws: ForwardBackwardWorkspace) -> np.ndarray:
    """Gradient of the negative log probability with respect to ``y``.

    Accumulates the state posterior terms into vocabulary bins and divides by
    the emission once more; the per-frame normalizer is the term row sum, so
    no global scale factors are needed.  Entries with zero emission get zero.
    """
    terms = state_posterior_terms(y, ws)
    row_totals = terms.sum(axis=1)
    binned = np.zeros_like(y)
    for s in range(ws.num_states):
        binned[:, ws.state_symbols[s]] += terms[:, s]
    grad = np.zeros_like(y)
    denom = row_totals[:, None] * y
    np.divide(-binned, denom, out=grad, where=denom > 0.0)
    return grad


def posterior_mass_at(y: np.ndarray, ws: ForwardBackwardWorkspace, t: int) -> float:
    """Unscaled total probability evaluated at frame ``t``."""
    terms = state_posterior_terms(y, ws)
    log_scale = np.log(ws.alpha_scales[: t + 1]).sum() + np.log(ws.beta_scales[t:]).sum()
    return float(terms[t].sum() * np.exp(log_scale))

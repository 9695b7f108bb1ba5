"""Rescaled linear-domain forward-backward over a sparse transition matrix.

Both the plain chain targets and compiled confusion-network targets run
through this kernel.  Recursions stay in the linear domain; each frame's
vectors are divided by their sum and the log scale factors are accumulated,
so the matrix products never touch the log semiring.

Each frame is one CSR matrix-vector product: the forward pass multiplies by
the transpose (built once per call), the backward pass by the matrix itself.
Both call scipy's ``csr_matvec`` routine on the CSR arrays directly and
write into preallocated rows, so a frame allocates nothing and skips the
sparse-matrix operator dispatch.  The workspace keeps the forward vectors
from before the emission multiply, so a state's posterior term is the plain
product of its forward and backward entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .types import InfeasibleTarget


@dataclass(frozen=True, eq=False)
class ForwardBackwardWorkspace:
    """Scaled passes plus the per-frame scale factors needed to undo them.

    ``alphas[t]`` is the forward vector at frame ``t`` before the emission
    multiply, divided by ``alpha_scales[t]``: the unscaled forward vector is
    ``alphas[t] * q[t] * prod(alpha_scales[:t+1])`` with ``q[t]`` the
    emission of each state.  ``betas[t]`` includes the emission at ``t``; the
    unscaled backward vector is ``betas[t] * prod(beta_scales[t:])``.
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
    states = q.shape[1]
    transition_t = transition.T.tocsr()
    # csr_matvec(n_row, n_col, indptr, indices, data, x, out) adds the
    # product into ``out``: the routine ``csr_matrix @ vector`` ends in,
    # called here without the per-frame dispatch and result allocation
    forward = (states, states, transition_t.indptr, transition_t.indices, transition_t.data)
    backward = (states, states, transition.indptr, transition.indices, transition.data)

    alphas = np.zeros((frames, states))
    alpha_scales = np.empty(frames)
    vec = np.empty(states)
    alphas[0] = alpha_init
    for t in range(frames):
        if t > 0:
            csr_matvec(*forward, vec, alphas[t])
        np.multiply(alphas[t], q[t], out=vec)
        scale = vec.sum()
        if not 0.0 < scale < np.inf:  # also catches NaN
            raise InfeasibleTarget(
                f"forward mass {scale!r} at frame {t}; target admits no alignment"
            )
        vec /= scale
        alpha_scales[t] = scale
    alphas /= alpha_scales[:, None]

    final = float(vec @ beta_final)
    if not 0.0 < final < np.inf:
        raise InfeasibleTarget(f"final mass {final!r}; no admissible final state reachable")
    loss = -(np.log(alpha_scales).sum() + np.log(final))

    betas = np.empty((frames, states))
    beta_scales = np.empty(frames)
    carried = np.empty(states)
    np.multiply(beta_final, q[-1], out=betas[-1])
    for t in range(frames - 1, -1, -1):
        vec = betas[t]
        if t < frames - 1:
            carried.fill(0.0)
            csr_matvec(*backward, betas[t + 1], carried)
            np.multiply(carried, q[t], out=vec)
        scale = vec.sum()
        if not 0.0 < scale < np.inf:
            # cannot happen when the forward pass found mass, but fail loudly
            raise InfeasibleTarget(f"backward mass {scale!r} at frame {t}")
        vec /= scale
        beta_scales[t] = scale

    ws = ForwardBackwardWorkspace(alphas, betas, alpha_scales, beta_scales, state_symbols)
    return float(loss), ws


def state_posterior_terms(ws: ForwardBackwardWorkspace) -> np.ndarray:
    """Scaled alpha*beta/q per frame and state.

    The stored forward vectors predate the emission multiply, so this is
    the plain product of the two passes; a state with zero emission has a
    zero backward entry and gets 0.  Summed over states and unscaled, this
    is the target probability at any frame; the invariance over frames is
    the standard consistency check.
    """
    # frame-fastest (Fortran) layout: the binning product and the row totals
    # run faster on it than on the row-major passes, and it fixes the order
    # in which both sum
    return np.multiply(ws.alphas, ws.betas, order="F")


def gradient(y: np.ndarray, ws: ForwardBackwardWorkspace) -> np.ndarray:
    """Gradient of the negative log probability with respect to ``y``.

    Accumulates the state posterior terms into vocabulary bins (one sparse
    product with the state-to-symbol one-hot matrix) and divides by the
    emission once more; the per-frame normalizer is the term row sum, so no
    global scale factors are needed.  Entries with zero emission get zero.
    """
    terms = state_posterior_terms(ws)
    row_totals = terms.sum(axis=1)
    states = ws.num_states
    onehot = sp.csr_matrix(
        (np.ones(states), ws.state_symbols, np.arange(states + 1)),
        shape=(states, y.shape[1]),
    )
    binned = terms @ onehot
    grad = np.zeros_like(y)
    denom = row_totals[:, None] * y
    np.divide(-binned, denom, out=grad, where=denom > 0.0)
    return grad


def posterior_mass_at(ws: ForwardBackwardWorkspace, t: int) -> float:
    """Unscaled total probability evaluated at frame ``t``."""
    terms = state_posterior_terms(ws)
    log_scale = np.log(ws.alpha_scales[: t + 1]).sum() + np.log(ws.beta_scales[t:]).sum()
    return float(terms[t].sum() * np.exp(log_scale))

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

Rescaling keeps each vector's sum at one but not each entry in the normal
range (Rabiner 1989, section V.A): mass decaying far from the active states
sinks below ``np.finfo(float).tiny`` and, on x86, every product that reads
such a subnormal entry takes a slow path.  On targets with more than
``FLUSH_MIN_NNZ_PER_STATE`` transitions per state (networks with null skips)
both passes therefore flush entries below ``tiny`` to zero after each
frame's rescale.  That drops paths holding less than 2^-1022 of a frame's
mass; it changes a result only where such a path alone later carries the
line.  :func:`gradient` checks the total mass at every frame, so that case
raises InfeasibleTarget instead of returning a wrong loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .types import InfeasibleTarget

# Chains (plain CTC, n-best lists) compile to about 2.5 transitions per
# state, decoded and merged networks to 3.7-27.  On chains the flush costs
# more than the subnormals it removes, so only denser targets flush.
FLUSH_MIN_NNZ_PER_STATE = 3
TINY = np.finfo(float).tiny
# largest spread of log P_t over frames, relative to max(1, |log P|), that
# gradient accepts as rounding
MASS_SPREAD_RTOL = 1e-9


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

    When ``transition`` has more than ``FLUSH_MIN_NNZ_PER_STATE`` nonzeros per
    state, each rescaled vector of both passes has its entries below
    ``TINY`` set to zero before the next frame reads it.  On 40 plain chains
    of 250-frame lines, flushing made the passes about 11 % slower and saved
    nothing, so chains skip it and their workspace is the unflushed one bit
    for bit; on 24 merged networks of the same lines it cut the passes' time
    by about a quarter.
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
    flush = transition.nnz > FLUSH_MIN_NNZ_PER_STATE * states
    decayed = np.empty(states, dtype=bool)

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
        if flush:
            np.less(vec, TINY, out=decayed)
            np.copyto(vec, 0.0, where=decayed)
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
        if flush:
            np.less(vec, TINY, out=decayed)
            np.copyto(vec, 0.0, where=decayed)
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
    product with the state-to-symbol one-hot matrix), divides by the
    per-frame term row sum and then by the emission; no global scale factors
    are needed.  Entries with zero emission get zero.  Dividing by the row
    sum first keeps the divisor from underflowing where a small row sum
    meets a tiny emission.

    First checks that the passes agree: the target probability
    ``log P_t = log(row_total_t) + sum(log alpha_scales[:t+1]) +
    sum(log beta_scales[t:])`` is the same at every frame in exact
    arithmetic.  A spread over the frames beyond ``MASS_SPREAD_RTOL *
    max(1, |log P|)`` means mass was lost to underflow or to the flush in one
    pass and not the other, so the loss cannot be trusted: raises
    InfeasibleTarget naming the frame and the spread.  A frame whose row
    total is zero or subnormal raises too: its gradient keeps few digits.
    """
    terms = state_posterior_terms(ws)
    row_totals = terms.sum(axis=1)
    _check_mass_invariance(row_totals, ws)
    states = ws.num_states
    onehot = sp.csr_matrix(
        (np.ones(states), ws.state_symbols, np.arange(states + 1)),
        shape=(states, y.shape[1]),
    )
    binned = terms @ onehot
    grad = np.zeros_like(y)
    np.divide(binned / -row_totals[:, None], y, out=grad, where=y > 0.0)
    return grad


def _log_mass(row_totals: np.ndarray, ws: ForwardBackwardWorkspace) -> np.ndarray:
    """log of the unscaled total probability read at each frame; -inf where a row is 0."""
    with np.errstate(divide="ignore"):
        log_mass = np.log(row_totals)
    log_mass += np.cumsum(np.log(ws.alpha_scales))
    log_mass += np.cumsum(np.log(ws.beta_scales)[::-1])[::-1]
    return log_mass


def _check_mass_invariance(row_totals: np.ndarray, ws: ForwardBackwardWorkspace) -> None:
    normal = (row_totals >= TINY) & (row_totals < np.inf)
    if not normal.all():
        t = int(np.argmin(normal))
        raise InfeasibleTarget(f"the passes share {float(row_totals[t])!r} mass at frame {t}, "
                               "outside the normal range; mass was lost to underflow in one pass")
    log_mass = _log_mass(row_totals, ws)
    spread = float(np.ptp(log_mass))
    if spread > MASS_SPREAD_RTOL * max(1.0, abs(float(log_mass[-1]))):
        # the loss is read at the last frame: name the frame farthest from it
        worst = int(np.argmax(np.abs(log_mass - log_mass[-1])))
        raise InfeasibleTarget(
            f"total mass differs between frames by {spread!r} nats, most at frame "
            f"{worst}; mass was lost to underflow in one pass"
        )


def posterior_mass_at(ws: ForwardBackwardWorkspace, t: int) -> float:
    """Unscaled total probability evaluated at frame ``t``."""
    row_totals = state_posterior_terms(ws).sum(axis=1)
    return float(np.exp(_log_mass(row_totals, ws)[t]))

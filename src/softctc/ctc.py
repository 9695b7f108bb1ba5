"""Plain CTC through the transition-matrix formulation, plus the n-best sum.

A labeling is expanded into its blank-interleaved state chain and scored by
the shared forward-backward kernel, so the recursion code is byte-for-byte
the same one the compiled confusion-network targets use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp

from . import forward_backward as fb
from .types import (
    InfeasibleTarget,
    Labeling,
    LossResult,
    NBestList,
    PosteriorMatrix,
    ShapeMismatch,
    ValidationError,
    Vocabulary,
    check_finite,
)


@dataclass(frozen=True, eq=False)
class LinearTarget:
    """Blank-interleaved chain for one labeling.

    States are ordered blank, letter, blank, letter, ..., blank; the masks
    flag where an alignment may start (first blank and first letter) and end
    (last letter and last blank).
    """

    transition: sp.csr_matrix
    state_symbols: np.ndarray
    initial_mask: np.ndarray
    final_mask: np.ndarray

    @property
    def num_states(self) -> int:
        return self.state_symbols.shape[0]


def _check_labeling(l: Labeling, v: Vocabulary) -> None:
    for s in l:
        if not 0 <= s < len(v):
            raise ValidationError(f"symbol id {s} outside vocabulary")
        if s == v.blank:
            raise ValidationError("labelings may not contain the blank")


def build_linear_transition_matrix(l: Labeling, v: Vocabulary) -> LinearTarget:
    """Expand ``l`` into its 2*len(l)+1 state chain.

    Every state keeps a unit self-loop, each state feeds its successor, and a
    letter may skip the following blank only when the next letter differs.
    """
    _check_labeling(l, v)
    m = len(l)
    size = 2 * m + 1
    symbols = np.full(size, v.blank, dtype=np.int64)
    symbols[1::2] = list(l)

    rows = list(range(size))
    cols = list(range(size))
    vals = [1.0] * size
    for s in range(size - 1):
        rows.append(s)
        cols.append(s + 1)
        vals.append(1.0)
    for i in range(m - 1):
        if l[i] != l[i + 1]:
            rows.append(2 * i + 1)
            cols.append(2 * i + 3)
            vals.append(1.0)
    transition = sp.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(size, size)
    )
    transition.sort_indices()

    initial = np.zeros(size, dtype=bool)
    final = np.zeros(size, dtype=bool)
    initial[0] = True
    final[size - 1] = True
    if m:
        initial[1] = True
        final[size - 2] = True
    return LinearTarget(transition, symbols, initial, final)


def _check_posteriors(y: PosteriorMatrix, v: Vocabulary) -> None:
    if y.vocab_size != len(v):
        raise ShapeMismatch(
            f"posterior has {y.vocab_size} columns but vocabulary has {len(v)} symbols"
        )


def ctc_forward_backward(
    y: PosteriorMatrix, l: Labeling, v: Vocabulary
) -> tuple[LossResult, fb.ForwardBackwardWorkspace]:
    """Negative log probability of ``l`` and its gradient.

    Raises InfeasibleTarget when ``l`` cannot be aligned, e.g. when the frame
    count is too small for the required states, and NonFiniteEntry on a NaN
    or infinite posterior anywhere in ``y``.
    """
    _check_posteriors(y, v)
    check_finite(y)
    target = build_linear_transition_matrix(l, v)
    loss, ws = fb.run_passes(
        y.frames,
        target.transition,
        target.state_symbols,
        target.initial_mask.astype(np.float64),
        target.final_mask.astype(np.float64),
    )
    grad = fb.gradient(y.frames, ws)
    return LossResult(loss, grad), ws


def ctc_loss(y: PosteriorMatrix, l: Labeling, v: Vocabulary) -> LossResult:
    result, _ = ctc_forward_backward(y, l, v)
    return result


def multi_ctc(y: PosteriorMatrix, nbest: NBestList, v: Vocabulary) -> LossResult:
    """Weighted n-best objective: -log sum_i w_i p(l_i | y).

    Weights are taken as given (they need not sum to one).  The combination
    happens in the probability domain via log-sum-exp and the gradient is the
    probability-weighted mixture of the per-variant gradients.  Variants that
    cannot be aligned contribute zero; if none can, the whole list is
    infeasible.
    """
    log_terms = []
    grads = []
    for labeling, weight in nbest:
        try:
            result, _ = ctc_forward_backward(y, labeling, v)
        except InfeasibleTarget:
            continue
        log_terms.append(np.log(weight) + result.log_likelihood)
        grads.append(result.grad)
    if not log_terms:
        raise InfeasibleTarget("no variant of the n-best list can be aligned")
    log_total = float(logsumexp(log_terms))
    mix = np.exp(np.array(log_terms) - log_total)
    grad = np.zeros_like(y.frames)
    for c, g in zip(mix, grads):
        grad += c * g
    return LossResult(-log_total, grad)

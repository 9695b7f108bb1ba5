"""Plain CTC as the one-entry n-best target, plus the naive n-best sum.

A labeling is compiled by :func:`softctc.compiler.compile_nbest` into its
blank-interleaved state chain and scored by the shared forward-backward
kernel, so plain CTC and the soft targets share one target type and one
recursion.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from . import forward_backward as fb
from .compiler import compile_nbest
from .loss import soft_ctc
from .types import (
    InfeasibleTarget,
    Labeling,
    LossResult,
    NBestList,
    PosteriorMatrix,
    ShapeMismatch,
    Vocabulary,
)


def ctc_forward_backward(
    y: PosteriorMatrix, l: Labeling, v: Vocabulary
) -> tuple[LossResult, fb.ForwardBackwardWorkspace]:
    """Negative log probability of ``l`` and its gradient.

    The target is the one-entry n-best list of ``l``.  Raises
    InfeasibleTarget when ``l`` cannot be aligned, e.g. when the frame count
    is too small for the required states, ValidationError on a symbol outside
    the vocabulary or the blank, and NonFiniteEntry on a NaN or infinite
    posterior anywhere in ``y``.
    """
    if y.vocab_size != len(v):
        raise ShapeMismatch(
            f"posterior has {y.vocab_size} columns but vocabulary has {len(v)} symbols"
        )
    return soft_ctc(y, compile_nbest(NBestList(((l, 1.0),)), v))


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

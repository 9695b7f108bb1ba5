"""Loss over compiled targets.

Every target is a :class:`~softctc.compiler.CompiledTarget`: a compiled
confusion network, an n-best list, or plain CTC's one-entry n-best list,
and :func:`soft_ctc_loss` scores each of them with one forward-backward
pass.  :func:`multi_ctc` is the naive per-variant sum the compiled n-best
target is checked against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.special import logsumexp

from . import forward_backward as fb
from .compiler import CompiledTarget, compile_nbest
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


def _run_passes(y: PosteriorMatrix, target: CompiledTarget):
    """The loss and the kernel's workspace, after the shape and finiteness checks."""
    if int(target.state_symbols.max(initial=0)) >= y.vocab_size:
        raise ShapeMismatch("target references symbols outside the posterior columns")
    check_finite(y)
    return fb.run_passes(
        y.frames, target.transition, target.state_symbols, target.alpha_hat, target.beta_hat
    )


def soft_ctc_loss(y: PosteriorMatrix, target: CompiledTarget) -> LossResult:
    """Negative log probability of the target distribution and its gradient.

    The value is read at the last frame from the forward pass against the
    final weights; the gradient accumulates state posteriors into vocabulary
    bins with zero emissions contributing zero.  Raises NonFiniteEntry on a
    NaN or infinite posterior anywhere in ``y``, used by the target or not.
    """
    loss, ws = _run_passes(y, target)
    return LossResult(loss, fb.gradient(y.frames, ws))


def soft_ctc_value_at(y: PosteriorMatrix, target: CompiledTarget, t: int) -> float:
    """Target probability evaluated at frame ``t``; constant over frames.

    Diagnostic form of the loss: reassembles the unscaled alpha*beta/q sum at
    one frame from the rescaled passes.  Returns 0.0 for an infeasible
    instance instead of raising, so the invariance check covers that case;
    a non-finite posterior still raises NonFiniteEntry.
    """
    if not 0 <= t < y.num_frames:
        raise ValidationError(f"frame {t} outside [0, {y.num_frames})")
    try:
        _, ws = _run_passes(y, target)
    except InfeasibleTarget:
        return 0.0
    return fb.posterior_mass_at(ws, t)


def soft_ctc_batch(
    items: Iterable[tuple[PosteriorMatrix, CompiledTarget]]
) -> list[LossResult]:
    """Map the loss over (posterior, target) pairs, one line at a time.

    Items are independent, so callers may shard the list across workers.
    Stacking a batch into one block-diagonal matrix was measured at about
    15 % faster on 16 lines of 250 frames, but it raised the peak resident
    memory of that step from about 77 to 138 MiB because every line's
    forward vectors are held at once; the per-line kernel stays the one path.
    """
    return [soft_ctc_loss(y, target) for y, target in items]


def ctc_loss(y: PosteriorMatrix, l: Labeling, v: Vocabulary) -> LossResult:
    """Plain CTC: the loss of the one-entry n-best target of ``l``.

    Raises InfeasibleTarget when ``l`` cannot be aligned, e.g. when the frame
    count is too small for the required states, ValidationError on a symbol
    outside the vocabulary or the blank, and NonFiniteEntry on a NaN or
    infinite posterior anywhere in ``y``.
    """
    if y.vocab_size != len(v):
        raise ShapeMismatch(
            f"posterior has {y.vocab_size} columns but vocabulary has {len(v)} symbols"
        )
    return soft_ctc_loss(y, compile_nbest(NBestList(((l, 1.0),)), v))


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
            result = ctc_loss(y, labeling, v)
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

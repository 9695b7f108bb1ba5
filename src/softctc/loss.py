"""Loss over compiled targets.

Every target is a :class:`~softctc.compiler.CompiledTarget`: a compiled
confusion network, an n-best list, or plain CTC's one-entry n-best list,
and :func:`soft_ctc_batch` scores a batch of them with one lock-step
forward-backward pass per group of lines; :func:`soft_ctc_loss` is its
batch of one.  The kernel reports every line, and this layer owns the
failure policy: a batch with a failing line raises InfeasibleTarget for the
smallest such index once every line has run.  :func:`multi_ctc` is the
naive per-variant sum the compiled n-best target is checked against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

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
    check_integer,
    check_width,
)


def _checked(y: PosteriorMatrix, target: CompiledTarget) -> np.ndarray:
    """The posterior array, after the shape and finiteness checks."""
    if int(target.state_symbols.max(initial=0)) >= y.vocab_size:
        raise ShapeMismatch("target references symbols outside the posterior columns")
    check_finite(y)
    return y.frames


def soft_ctc_loss(y: PosteriorMatrix, target: CompiledTarget) -> LossResult:
    """Negative log probability of the target distribution and its gradient.

    The batch of one of :func:`soft_ctc_batch`: the value is read at the last
    frame from the forward pass against the final weights; the gradient is
    the exact derivative by every posterior entry, a zero one included.
    Raises NonFiniteEntry on a NaN or infinite posterior anywhere in ``y``,
    used by the target or not.
    """
    return soft_ctc_batch([(y, target)])[0]


def soft_ctc_value_at(y: PosteriorMatrix, target: CompiledTarget, t: int) -> float:
    """Target probability evaluated at frame ``t``; constant over frames.

    Diagnostic form of the loss: the kernel's log mass at frame ``t``, the
    frame's row total reassembled with the scales of the rescaled passes,
    read even where the kernel reports a failure, so that the invariance
    check sees what the row-total and spread checks bound.  Returns 0.0 for
    an instance whose passes find no mass instead of raising, so the
    invariance check covers that case.  A non-finite posterior still raises
    NonFiniteEntry, and a ``t`` that is not an integer frame index ValidationError.
    """
    if not 0 <= check_integer(t, "frame") < y.num_frames:
        raise ValidationError(f"frame {t} outside [0, {y.num_frames})")
    ((_, passes, _),) = fb.run_batch([(_checked(y, target), target)])
    return 0.0 if passes is None else float(np.exp(passes.log_mass[t]))


def soft_ctc_batch(
    items: Iterable[tuple[PosteriorMatrix, CompiledTarget]]
) -> list[LossResult]:
    """Loss and gradient of each (posterior, target) pair, in order.

    Every pair is checked first, so a NaN or infinite posterior anywhere in
    the batch raises NonFiniteEntry before any line runs.  The kernel then
    runs lines with the same frame count, vocabulary and flush rule in lock
    step, packed by state count into groups whose vectors of one pass take
    at most ``GROUP_BYTES`` (2 MiB); a group keeps both passes' vectors of
    every frame, twice that (see :mod:`softctc.forward_backward`), and
    reports each line.  Results come back in input order, each bitwise its
    line's batch of one.  After every line has run, the failing line of
    smallest index raises InfeasibleTarget naming that index and the reason
    the kernel gave.
    """
    lines = [(_checked(y, target), target) for y, target in items]
    results, failures = [None] * len(lines), []
    for index, passes, failure in fb.run_batch(lines):
        if failure is None:
            results[index] = LossResult(passes.loss, passes.grad)
        else:
            failures.append((index, failure))
    if failures:
        raise InfeasibleTarget("line {}: {}".format(*min(failures)))
    return results


def ctc_loss(y: PosteriorMatrix, l: Labeling, v: Vocabulary) -> LossResult:
    """Plain CTC: the loss of the one-entry n-best target of ``l``.

    Raises InfeasibleTarget when ``l`` cannot be aligned, e.g. when the frame
    count is too small for the required states, ValidationError on a symbol
    outside the vocabulary or the blank, and NonFiniteEntry on a NaN or
    infinite posterior anywhere in ``y``.
    """
    check_width(y, v)
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
    log_terms = np.array(log_terms)
    # log-sum-exp shifted by the largest term, so no term overflows
    peak = log_terms.max()
    log_total = float(peak + np.log(np.exp(log_terms - peak).sum()))
    mix = np.exp(log_terms - log_total)
    grad = np.zeros_like(y.frames)
    for c, g in zip(mix, grads):
        grad += c * g
    return LossResult(-log_total, grad)

"""Rescaled linear-domain forward-backward over sparse transition matrices.

Both the plain chain targets and compiled confusion-network targets run
through this kernel, a batch of lines at a time; a single line is a batch of
one.  The kernel raises nothing: it reports every line, and the loss layer
(:mod:`softctc.loss`) decides what a failing line costs.  Recursions stay in the linear domain; each frame's vectors are divided
by their sum and the log scale factors are accumulated, so the matrix
products never touch the log semiring.

Lines with the same frame count, vocabulary and flush rule (see below),
packed in ascending order of state count, form groups that each run in lock
step as one block-diagonal matrix: each line's states fill a slot of
``width`` states, its own count plus at least one padding state that no arc
touches.  Given the emissions, the forward and backward recursions are
independent (Rabiner 1989, section III.A), so one frame loop runs both:
iteration ``i`` advances the forward pass to frame ``i`` and the backward
pass to frame ``T-1-i`` with one CSR matrix-vector product on a stacked
matrix, whose first ``S`` rows are the group's transpose (forward) and whose
last ``S`` rows are the matrix itself (backward), shifted by ``S``.  The
product calls scipy's ``csr_matvec`` routine on the CSR arrays directly,
into preallocated rows, so an iteration allocates nothing and skips the
sparse operator dispatch.  One emission multiply, one ``np.add.reduceat``
over each line's slot (its scale) and one broadcast divide, which the
padding makes possible, then cover both passes and every line.  A row of a
block-diagonal product reads only its own block, so every line of a group
is bitwise the line run as a batch of one, and each pass is bitwise the pass
run on its own.

Every iteration's product, the vectors of both passes before the emission
multiply, is kept: row ``i`` of one ``(T, 2S)`` array holds forward frame
``i`` and then backward frame ``T-1-i``.  After the frame loop the gradient
bins each range of ``BLOCK_FRAMES`` frames from its rows of both passes, and
never divides by ``y``.  So a group holds both passes' vectors of every
frame, while the emissions are gathered one loop block of ``BLOCK_FRAMES``
iterations at a time: the emissions of a whole line are never held.

A :class:`~softctc.compiler.CompiledTarget` guarantees that no arc goes
back: it refuses one when it is built, and its arrays are read-only.  So a
forward state before the first nonzero forward entry of a vector, or a
backward state after the last nonzero backward entry, reads only zeros in
every later product of its pass, and from the second loop block on each
product runs on the stacked rows between those two entries of the vector
the block's first product reads, through a slice of ``indptr`` and of the
output row.  The rows left out would compute zeros and keep the zeros the
products array starts with, so every result is bitwise that of the full
product.

Rescaling keeps each vector's sum at one but not each entry in the normal
range (Rabiner 1989, section V.A): mass decaying far from the active states
sinks below ``np.finfo(float).tiny`` and, on x86, every product that reads
such a subnormal entry takes a slow path.  On targets with more than
``FLUSH_MIN_NNZ_PER_STATE`` transitions per state (networks with null skips)
both passes therefore flush entries below ``tiny`` to zero after each
frame's rescale.  Only lines that flush alike share a group, so a group
flushes as a whole.  The flush drops paths holding less than 2^-1022 of a
frame's mass; it changes a result only where such a path alone later
carries the line.  :func:`run_batch` checks the total mass at every frame
and reports that case as the line's failure instead of a wrong loss.  Where
such a path is the line's only one, a pass of a flushing group finds no
mass at all: its "forward mass" or "backward mass" failure then comes from
the flush, not from a target that admits no alignment.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs, csr_tocsc

from .compiler import CompiledTarget

# Chains (plain CTC, n-best lists) compile to about 2.5 transitions per
# state, decoded and merged networks to 3.7-27.  On chains the flush costs
# more than the subnormals it removes, so only denser targets flush.
FLUSH_MIN_NNZ_PER_STATE = 3
TINY = np.finfo(float).tiny
# largest spread of log P_t over frames, relative to max(1, |log P|), that
# run_batch passes as rounding
MASS_SPREAD_RTOL = 1e-9
# One pass's vectors (frames x lines x width x 8 bytes) that one packed group
# may hold, unless it is a single line; the group keeps both passes', twice
# that (trials in CHANGES.md, pairs in BENCH_batch_kernel.json and
# BENCH_packed_groups.json).
GROUP_BYTES = 2 * 2**20
# Iterations per loop block: the frames each emission gather and gradient
# binning covers (trials in CHANGES.md, pairs in BENCH_fused_passes.json).
BLOCK_FRAMES = 32


Line = tuple[np.ndarray, CompiledTarget]


class LinePasses(NamedTuple):
    """One line's result: the loss, its gradient, and log P read at each frame."""

    loss: float
    grad: np.ndarray
    log_mass: np.ndarray


def run_batch(lines: Sequence[Line]) -> Iterator[tuple[int, LinePasses | None, str | None]]:
    """Run both passes and the gradient over (posteriors, target) lines.

    Packs the lines into groups (see :func:`_groups`) and yields
    ``(index in lines, passes, failure)`` for every line, one group at a
    time, so a caller that copies each result holds one group's gradients at
    a time.

    The loss is read off the last forward vector against the final weights,
    which keeps it independent of the backward pass.  The gradient bins the
    products of both passes' vectors before the emission multiply by symbol,
    divided by the frame's two scales: P is affine in each ``y[t, k]``, and
    these are its slopes up to a factor per frame.  The row total weights
    them by the emissions, and the gradient is minus them over the row
    total, exact also where ``y`` is zero.

    ``failure`` is None for a line whose result can be trusted and otherwise
    says why not.  ``passes`` is None only when the passes found no mass: a
    forward or backward scale is not a finite positive number (no alignment
    carries mass, the flush dropped all that do, or non-finite posteriors),
    or no admissible final state is reachable.  A line keeps its passes, with a failure, when:

    - a frame's row total is zero or subnormal: its gradient keeps few
      digits;
    - the target probability ``log P_t``, read at each frame from its row
      total and the scales, the same at every frame in exact arithmetic,
      spreads over the frames by more than
      ``MASS_SPREAD_RTOL * max(1, |log P|)``: mass was lost to underflow or
      to the flush in one pass and not the other, so the loss cannot be
      trusted.
    """
    for indices in _groups(lines):
        yield from _Group(lines, indices).run()


def _groups(lines: Sequence[Line]) -> list[list[int]]:
    """The input indices of each group's lines, in the order the groups run.

    Lines of one (frame count, vocabulary, flushes) class are taken in
    ascending order of their state counts, ties in input order, and cut into
    groups whose vectors of one pass fit ``GROUP_BYTES``; the classes run in
    the order they first appear.  Sorting keeps lines of similar size, and so
    little padding, in one group.  Keying on the flush rule
    (:func:`_flushes`) makes each group flush as a whole or not at all.
    """
    classes: dict[tuple[int, int, bool], list[int]] = {}
    for i, (y, target) in enumerate(lines):
        classes.setdefault((*y.shape, _flushes(target)), []).append(i)
    groups = []
    for (frames, _, _), members in classes.items():
        members.sort(key=lambda i: lines[i][1].num_states)
        group: list[int] = []
        for i in members:
            width = lines[i][1].num_states + 1  # the widest slot so far
            if group and 8 * frames * (len(group) + 1) * width > GROUP_BYTES:
                groups.append(group)
                group = []
            group.append(i)
        groups.append(group)
    return groups


def _flushes(target: CompiledTarget) -> bool:
    """Whether a line of ``target`` flushes: over ``FLUSH_MIN_NNZ_PER_STATE`` arcs per state."""
    return target.transition.nnz > FLUSH_MIN_NNZ_PER_STATE * target.num_states


class _Group:
    """The block-diagonal layout of ``lines[indices]`` and its two passes.

    Line ``l``'s states are ``l * width + s`` for ``s < num_states``; the
    rest of its slot is padding, which no arc touches and no total reads.
    The stacked vectors of the frame loop hold the forward pass's states,
    then the backward pass's, each in this layout.
    """

    def __init__(self, lines: Sequence[Line], indices: list[int]):
        self.indices = indices
        self.ys = [lines[i][0] for i in indices]
        targets = [lines[i][1] for i in indices]
        self.frames, self.vocab = self.ys[0].shape
        self.lines = len(targets)
        sizes = np.array([t.num_states for t in targets])
        self.width = int(sizes.max()) + 1
        self.states = states = self.lines * self.width
        starts = np.arange(self.lines) * self.width
        # np.add.reduceat bounds of the stacked vector: each line's states,
        # then its padding, in the forward half and then the backward half
        bounds = np.column_stack((starts, starts + sizes)).reshape(-1)
        self.bounds = np.concatenate((bounds, bounds + states))
        # each target state's group state, the map every per-state array is
        # placed through: line l's state s is l * width + s
        state_ids = np.flatnonzero(np.arange(self.width) < sizes[:, None])
        symbols = np.concatenate([t.state_symbols for t in targets])
        # each slot's posterior column per state; padding reads column 0
        columns = np.zeros(states, dtype=symbols.dtype)
        columns[state_ids] = symbols
        self.columns = columns.reshape(self.lines, self.width)

        # the targets' own index type (scipy's int32 unless a target outgrows
        # it), widened when the stacked matrix's 2 * states or 2 * nnz do not fit
        nnz = sum(t.transition.nnz for t in targets)
        index = np.result_type(*(t.transition.indices.dtype for t in targets))
        if 2 * max(states, nnz) > np.iinfo(index).max:
            index = np.dtype(np.int64)
        counts = np.zeros(states, dtype=index)
        counts[state_ids] = np.concatenate([np.diff(t.transition.indptr) for t in targets])
        backward_indptr = np.zeros(states + 1, dtype=index)
        np.cumsum(counts, out=backward_indptr[1:])
        # the stacked matrix: rows [0, states) the transpose, whose CSR is the
        # matrix's CSC, then rows [states, 2 * states) the matrix, shifted
        indptr = np.empty(2 * states + 1, dtype=index)
        indices = np.empty(2 * nnz, dtype=index)
        data = np.empty(2 * nnz)
        np.concatenate([(t.transition.indices + start).astype(index)
                        for t, start in zip(targets, starts)], out=indices[nnz:])
        np.concatenate([t.transition.data for t in targets], out=data[nnz:])
        csr_tocsc(states, states, backward_indptr, indices[nnz:], data[nnz:],
                  indptr[: states + 1], indices[:nnz], data[:nnz])
        np.add(backward_indptr[1:], nnz, out=indptr[states + 1 :])
        indices[nnz:] += states
        self.matrix = (indptr, indices, data)

        # binning matrix: row line * vocab + k sums the line's states of
        # symbol k, in increasing state order
        rows = state_ids // self.width * self.vocab + symbols
        self.binned_rows = self.lines * self.vocab
        onehot_indptr = np.zeros(self.binned_rows + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=self.binned_rows), out=onehot_indptr[1:])
        order = np.argsort(rows, kind="stable")
        self.onehot = (onehot_indptr, state_ids[order].astype(index), np.ones(rows.shape[0]))

        # the first iteration's product: the initial weights, then the final ones
        weights = np.zeros((2, states))
        weights[0, state_ids] = np.concatenate([t.alpha_hat for t in targets])
        weights[1, state_ids] = np.concatenate([t.beta_hat for t in targets])
        self.weights = weights.reshape(-1)
        self.flush = _flushes(targets[0])  # as every line of the group does

    def _gather(self, i0: int, i1: int, out: np.ndarray) -> None:
        """Each state's emission at the frames iterations [i0, i1) reach, into ``out``.

        Row ``i - i0`` gets frame ``i`` in its forward half and frame
        ``T-1-i`` in its backward half.
        """
        frames = self.frames
        emissions = out.reshape(i1 - i0, 2, self.lines, self.width)
        for line, (y, columns) in enumerate(zip(self.ys, self.columns)):
            emissions[:, 0, line] = y[i0:i1].take(columns, axis=1)
            emissions[:, 1, line] = y[frames - i1 : frames - i0][::-1].take(columns, axis=1)

    # a failed line's 0/0 and log(0) stay in its own block; overflow in a
    # gradient still warns
    @np.errstate(divide="ignore", invalid="ignore")
    def run(self) -> list[tuple[int, LinePasses | None, str | None]]:
        """``(index, passes, failure)`` of each line, as :func:`run_batch` yields them."""
        frames, states, lines = self.frames, self.states, self.lines
        bounds, flush = self.bounds, self.flush
        indptr, indices, data = self.matrix
        decayed = np.empty(2 * states, dtype=bool)
        # the frame loop's calls, bound once
        multiply, divide, less, putmask = np.multiply, np.divide, np.less, np.putmask
        reduceat = np.add.reduceat
        # every iteration's product, the vectors before the emission multiply:
        # row i holds forward frame i, then backward frame T-1-i.  A product
        # fills only its block's window of rows; the rest stay zero.
        products = np.zeros((frames, 2 * states))
        products[0] = self.weights
        # one loop block's emissions, which each iteration rescales in place
        # into the vectors the next product reads; row 0 carries the
        # previous block's last vectors
        vectors = np.empty((BLOCK_FRAMES + 1, 2 * states))
        vector_lines = vectors.reshape(BLOCK_FRAMES + 1, 2 * lines, self.width)
        # each iteration's sums hold every line's forward mass and its
        # padding's, then the same for the backward pass
        sums = np.empty((frames, 4 * lines))
        div = sums.reshape(frames, 2 * lines, 2)[:, :, :1]
        lo, hi = 0, 2 * states
        for i0 in range(0, frames, BLOCK_FRAMES):
            i1 = min(i0 + BLOCK_FRAMES, frames)
            n = i1 - i0
            self._gather(i0, i1, vectors[1 : n + 1])
            rows, window = hi - lo, indptr[lo : hi + 1]
            for i, before, product, vec, vec_lines, row_sums, row_div in zip(
                range(i0, i1), vectors[:n], products[i0:i1], vectors[1 : n + 1],
                vector_lines[1 : n + 1], sums[i0:i1], div[i0:i1],
            ):
                if i:
                    csr_matvec(rows, 2 * states, window, indices, data, before, product[lo:hi])
                multiply(product, vec, out=vec)
                reduceat(vec, bounds, out=row_sums)
                divide(vec_lines, row_div, out=vec_lines)
                if flush:
                    less(vec, TINY, out=decayed)
                    putmask(vec, decayed, 0.0)
            vectors[0] = vectors[n]
            lo, hi = _window(vectors[0], states)

        # bin each range of frames from its rows of both passes
        alpha_div, beta_div = div[:, :lines], div[::-1, lines:]  # each pass's scales, by frame
        terms = np.empty(BLOCK_FRAMES * states)  # one binned range's posterior terms
        row_totals = np.empty((lines, frames))
        grads = [np.empty((frames, self.vocab)) for _ in range(lines)]  # every frame is binned once
        for t0 in range(0, frames, BLOCK_FRAMES):
            t1 = min(t0 + BLOCK_FRAMES, frames)
            self._bin(products[t0:t1, :states],
                      products[frames - t1 : frames - t0, states:][::-1], t0, t1,
                      _divisors(alpha_div[t0:t1], beta_div[t0:t1]), terms, row_totals, grads)
        final = self._final_mass(vectors[0, :states])

        alpha_scales = np.ascontiguousarray(sums[:, : 2 * lines : 2].T)
        beta_scales = np.ascontiguousarray(sums[::-1, 2 * lines :: 2].T)
        results = []
        for line, index in enumerate(self.indices):
            failure = _failure(alpha_scales[line], float(final[line]), beta_scales[line])
            if failure is not None:
                results.append((index, None, failure))
                continue
            log_mass = _log_mass(row_totals[line], alpha_scales[line], beta_scales[line])
            loss = -(np.log(alpha_scales[line]).sum() + np.log(final[line]))
            passes = LinePasses(float(loss), grads[line], log_mass)
            results.append((index, passes, _mass_failure(row_totals[line], log_mass)))
        return results

    def _final_mass(self, alpha: np.ndarray) -> np.ndarray:
        """Each line's mass in its final states, from the last rescaled forward vector."""
        final = self.weights[self.states :]
        return np.add.reduceat(alpha * final, self.bounds[: 2 * self.lines])[::2]

    def _bin(self, alphas, betas, t0, t1, divisors, terms, row_totals, grads) -> None:
        """Row totals and gradient of frames [t0, t1) from their vectors of both passes."""
        n = t1 - t0
        # the frames' forward vectors are read only here: scale them in place
        alphas_lines = alphas.reshape(n, self.lines, self.width)
        np.divide(alphas_lines, divisors, out=alphas_lines)
        # state-major, as the binning product reads it
        terms = terms[: self.states * n].reshape(self.states, n)
        np.multiply(alphas.T, betas.T, out=terms)
        binned = np.zeros((self.binned_rows, n))
        csr_matvecs(self.binned_rows, self.states, n, *self.onehot,
                    terms.reshape(-1), binned.reshape(-1))
        for y, grad, line_binned, row_total in zip(
            self.ys, grads, binned.reshape(self.lines, self.vocab, n), row_totals[:, t0:t1]
        ):
            np.sum(y[t0:t1] * line_binned.T, axis=1, out=row_total)
            np.divide(line_binned.T, -row_total[:, None], out=grad[t0:t1])


def _window(vector: np.ndarray, states: int) -> tuple[int, int]:
    """The stacked rows ``[lo, hi)`` that products reading ``vector`` and its successors fill.

    Arcs never go back, so a forward state below the first nonzero forward
    entry of ``vector``, or a backward state above the last nonzero backward
    entry, reads only zeros in every later product of its pass.  A NaN entry
    counts as nonzero.
    """
    forward = np.flatnonzero(vector[:states])
    backward = np.flatnonzero(vector[states:])
    lo = int(forward[0]) if forward.size else states
    hi = states + (int(backward[-1]) + 1 if backward.size else 0)
    return lo, hi


def _failure(alpha_scales: np.ndarray, final: float, beta_scales: np.ndarray) -> str | None:
    """Why a line's passes found no mass, checked in the order the passes run."""
    ok = (alpha_scales > 0.0) & (alpha_scales < np.inf)  # also catches NaN
    if not ok.all():
        t = int(np.argmin(ok))
        return f"forward mass {float(alpha_scales[t])!r} at frame {t}; target admits no alignment"
    if not 0.0 < final < np.inf:
        return f"final mass {final!r}; no admissible final state reachable"
    ok = (beta_scales > 0.0) & (beta_scales < np.inf)
    if not ok.all():
        # the flush can empty the backward pass of a line whose forward pass
        # kept mass; the backward pass meets the last failing frame first
        t = beta_scales.shape[0] - 1 - int(np.argmin(ok[::-1]))
        return f"backward mass {float(beta_scales[t])!r} at frame {t}"
    return None


def _divisors(alpha_scales: np.ndarray, beta_scales: np.ndarray) -> np.ndarray:
    """Each frame's divisor of its binned products: its two scales' product.

    It underflows where every symbol the frame allows is below about 1e-154;
    over a floor of 2^-1000 the binned products stay below 2^1000, as no
    entry of a vector before the emission multiply exceeds one.
    """
    return np.maximum(alpha_scales * beta_scales, 2.0**-1000)


def _log_mass(
    row_totals: np.ndarray, alpha_scales: np.ndarray, beta_scales: np.ndarray
) -> np.ndarray:
    """log of the unscaled total probability read at each frame; -inf where a row is 0."""
    log_mass = np.log(row_totals) + np.log(_divisors(alpha_scales, beta_scales))
    log_mass[1:] += np.cumsum(np.log(alpha_scales[:-1]))
    log_mass[:-1] += np.cumsum(np.log(beta_scales[:0:-1]))[::-1]
    return log_mass


def _mass_failure(row_totals: np.ndarray, log_mass: np.ndarray) -> str | None:
    normal = (row_totals >= TINY) & (row_totals < np.inf)
    if not normal.all():
        t = int(np.argmin(normal))
        return (f"the passes share {float(row_totals[t])!r} mass at frame {t}, "
                "outside the normal range; mass was lost to underflow in one pass")
    spread = float(np.ptp(log_mass))
    if spread > MASS_SPREAD_RTOL * max(1.0, abs(float(log_mass[-1]))):
        # the loss is read at the last frame: name the frame farthest from it
        worst = int(np.argmax(np.abs(log_mass - log_mass[-1])))
        return (f"total mass differs between frames by {spread!r} nats, most at frame "
                f"{worst}; mass was lost to underflow in one pass")
    return None

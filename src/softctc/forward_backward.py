"""Rescaled linear-domain forward-backward over sparse transition matrices.

Both the plain chain targets and compiled confusion-network targets run
through this kernel, a batch of lines at a time; a single line is a batch of
one.  Recursions stay in the linear domain; each frame's vectors are divided
by their sum and the log scale factors are accumulated, so the matrix
products never touch the log semiring.

Consecutive lines with the same frame count and vocabulary form a group,
which the frame loops run in lock step as one block-diagonal matrix: each
line's states fill a slot of ``width`` states, its own count plus at least
one padding state that no arc touches.  Each frame is one CSR
matrix-vector product for the whole group: the forward pass multiplies by
the transpose (built once per group), the backward pass by the matrix
itself.  Both call scipy's ``csr_matvec`` routine on the CSR arrays directly
and write into preallocated rows, so a frame allocates nothing and skips the
sparse-matrix operator dispatch.  ``np.add.reduceat`` over each line's slot
gives the line's scale, and the padding lets one broadcast divide rescale
every line.  A row of a block-diagonal product reads only its own block, so
every line of a group is bitwise the line run as a batch of one.

Only the forward vectors (before the emission multiply) are stored.  Both
passes gather the emissions one block of ``BLOCK_FRAMES`` frames at a time,
and the backward pass bins the gradient per block, so neither the
emissions of a whole line nor its backward vectors are ever held.

Rescaling keeps each vector's sum at one but not each entry in the normal
range (Rabiner 1989, section V.A): mass decaying far from the active states
sinks below ``np.finfo(float).tiny`` and, on x86, every product that reads
such a subnormal entry takes a slow path.  On targets with more than
``FLUSH_MIN_NNZ_PER_STATE`` transitions per state (networks with null skips)
both passes therefore flush entries below ``tiny`` to zero after each
frame's rescale.  That drops paths holding less than 2^-1022 of a frame's
mass; it changes a result only where such a path alone later carries the
line.  :func:`run_batch` checks the total mass at every frame, so that case
raises InfeasibleTarget instead of returning a wrong loss.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs, csr_tocsc

from .compiler import CompiledTarget
from .types import InfeasibleTarget

# Chains (plain CTC, n-best lists) compile to about 2.5 transitions per
# state, decoded and merged networks to 3.7-27.  On chains the flush costs
# more than the subnormals it removes, so only denser targets flush.
FLUSH_MIN_NNZ_PER_STATE = 3
TINY = np.finfo(float).tiny
# largest spread of log P_t over frames, relative to max(1, |log P|), that
# run_batch accepts as rounding
MASS_SPREAD_RTOL = 1e-9
# Stored forward vectors (frames x lines x width x 8 bytes) allowed in one
# group; a line larger than this runs alone.  The lock-step loops pay a
# frame's numpy calls once per group, and the store is most of the memory a
# group adds.  On the benchmark's 16 train-step lines (250 frames, 200-400
# states; a shared 2-CPU x86 host, perfbench's reference host speed) against
# the per-line loop's 182 lines/s at 78.3 MiB peak: 1 MiB
# (mostly one line per group) ran 218 at 75.5 MiB, 2 MiB (two or three
# lines) 302 at 77.5, 3 MiB 317 at 80.4, and one group of 16 lines 343 at
# 92.3.  2 MiB takes most of the gain at no more peak memory.
GROUP_BYTES = 2 * 2**20
# Frames per emission gather (both passes) and per gradient binning (the
# backward pass), at least 2: a block's calls are paid once per block, and
# its buffers grow with it.  Lines per second (peak MiB) on the benchmark,
# one run per seed on two seeds, same host as above -- train-step: 2 frames
# 178-201 (76.2-76.7), 8 254-258 (76.0-76.5), 32 280-282 (77.1-77.2), 128
# 267-282 (78.1-78.4), one block per line 247-252 (83.1); pseudolabel: 73-74,
# 83-86, 89-94, 89 (82.9 against 81.7 at 32), 85-86 (87.2-87.5);
# merge-transform: 33, 37-39, 37-39, 35-37 (84-85 against 78), 33-35 (94-95).
BLOCK_FRAMES = 32


class LinePasses(NamedTuple):
    """One line's result: the loss, its gradient, and log P read at each frame."""

    loss: float
    grad: np.ndarray
    log_mass: np.ndarray


def run_batch(lines: Sequence[tuple[np.ndarray, CompiledTarget]]) -> Iterator[LinePasses]:
    """Run both passes and the gradient over (posteriors, target) lines.

    Yields each line's result in order, one group at a time, so a caller
    that copies each result holds one group's gradients at a time.

    The loss is read off the last forward vector against the final weights,
    which keeps it independent of the backward pass.  The gradient bins the
    state posterior terms (the forward vector before the emission multiply
    times the backward vector after it) into vocabulary columns, divides by
    the frame's row total and then by the emission; entries with zero
    emission get zero.  Dividing by the row total first keeps the divisor
    from underflowing where a small row total meets a tiny emission.

    Raises InfeasibleTarget, naming the first failing line's index, when:

    - a forward or backward scale is not a finite positive number (no
      alignment carries mass, or non-finite posteriors), or no admissible
      final state is reachable;
    - a frame's row total is zero or subnormal: its gradient keeps few
      digits;
    - the target probability ``log P_t = log(row_total_t) + sum(log
      alpha_scales[:t+1]) + sum(log beta_scales[t:])``, the same at every
      frame in exact arithmetic, spreads over the frames by more than
      ``MASS_SPREAD_RTOL * max(1, |log P|)``: mass was lost to underflow or
      to the flush in one pass and not the other, so the loss cannot be
      trusted.
    """
    for first, last in _groups(lines):
        yield from _run_group(lines[first:last], first, check_mass=True)


def log_mass(y: np.ndarray, target: CompiledTarget) -> np.ndarray:
    """log P read at each frame of one line, without checking its spread.

    The diagnostic form of :func:`run_batch`: raises InfeasibleTarget only
    when a pass finds no mass, and returns what the row-total and spread
    checks would judge, so a caller can measure the spread they bound.
    """
    (passes,) = _run_group([(y, target)], 0, check_mass=False)
    return passes.log_mass


def _run_group(pairs, first: int, check_mass: bool) -> list[LinePasses]:
    group = _Group(pairs)
    # a failed line's 0/0 and log(0) stay in its own block; overflow in a
    # gradient still warns
    with np.errstate(divide="ignore", invalid="ignore"):
        return group.run(first, check_mass)


def _groups(lines: Sequence[tuple[np.ndarray, CompiledTarget]]) -> list[tuple[int, int]]:
    """[first, last) bounds of consecutive lines that run as one group."""
    bounds = []
    first, width = 0, 0
    for i, (y, target) in enumerate(lines):
        grown = max(width, target.num_states + 1)
        if i > first and (
            y.shape != lines[first][0].shape
            or 8 * y.shape[0] * (i + 1 - first) * grown > GROUP_BYTES
        ):
            bounds.append((first, i))
            first, grown = i, target.num_states + 1
        width = grown
    if lines:
        bounds.append((first, len(lines)))
    return bounds


def _padded(vectors: list[np.ndarray], width: int) -> np.ndarray:
    out = np.zeros((len(vectors), width))
    for line, vec in enumerate(vectors):
        out[line, : vec.shape[0]] = vec
    return out.reshape(-1)


class _Group:
    """One group's block-diagonal layout and its two passes.

    Line ``l``'s states are ``l * width + s`` for ``s < num_states``; the
    rest of its slot is padding, which no arc touches and no total reads.
    """

    def __init__(self, pairs: Sequence[tuple[np.ndarray, CompiledTarget]]):
        self.ys = [y for y, _ in pairs]
        targets = [target for _, target in pairs]
        self.frames, self.vocab = self.ys[0].shape
        self.lines = len(targets)
        sizes = np.array([t.num_states for t in targets])
        self.width = int(sizes.max()) + 1
        self.states = self.lines * self.width
        starts = np.arange(self.lines) * self.width
        # np.add.reduceat bounds: each line's states, then its padding
        self.bounds = np.column_stack((starts, starts + sizes)).reshape(-1)
        # each slot's posterior column per state; padding reads column 0
        self.columns = [
            np.pad(t.state_symbols, (0, self.width - t.num_states)) for t in targets
        ]

        # the targets' own index type (scipy's int32 unless a target outgrows
        # it); a group of several lines holds at most GROUP_BYTES / 8 states
        index = np.result_type(*(t.transition.indices.dtype for t in targets))
        counts = np.zeros((self.lines, self.width), dtype=index)
        for line, t in enumerate(targets):
            counts[line, : t.num_states] = np.diff(t.transition.indptr)
        indptr = np.zeros(self.states + 1, dtype=index)
        np.cumsum(counts.reshape(-1), out=indptr[1:])
        indices = np.concatenate(
            [(t.transition.indices + start).astype(index) for t, start in zip(targets, starts)]
        )
        data = np.concatenate([t.transition.data for t in targets])
        self.backward = (indptr, indices, data)
        # the transpose's CSR is the matrix's CSC
        self.forward = (np.empty_like(indptr), np.empty_like(indices), np.empty_like(data))
        csr_tocsc(self.states, self.states, *self.backward, *self.forward)

        # binning matrix: row line * vocab + k sums the line's states of
        # symbol k, and row lines * vocab + line all of them (the row
        # total), each in increasing state order
        state_ids = np.concatenate([start + np.arange(size) for start, size in zip(starts, sizes)])
        line_of = state_ids // self.width
        symbols = np.concatenate([t.state_symbols for t in targets])
        rows = np.concatenate((line_of * self.vocab + symbols, self.lines * self.vocab + line_of))
        self.binned_rows = self.lines * (self.vocab + 1)
        onehot_indptr = np.zeros(self.binned_rows + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=self.binned_rows), out=onehot_indptr[1:])
        order = np.argsort(rows, kind="stable")
        self.onehot = (onehot_indptr, np.tile(state_ids, 2)[order].astype(index),
                       np.ones(rows.shape[0]))

        self.alpha_init = _padded([t.alpha_hat for t in targets], self.width)
        self.beta_final = _padded([t.beta_hat for t in targets], self.width)
        flushes = [t.transition.nnz > FLUSH_MIN_NNZ_PER_STATE * t.num_states for t in targets]
        self.flush = any(flushes)
        # a line that does not flush gets floor 0, which no entry is below
        self.floor = np.repeat(np.where(flushes, TINY, 0.0), self.width)

    def _gather(self, t0: int, t1: int, out: np.ndarray) -> np.ndarray:
        """Each state's emission at frames [t0, t1), in the first rows of ``out``."""
        emissions = out[: t1 - t0].reshape(t1 - t0, self.lines, self.width)
        for line, (y, columns) in enumerate(zip(self.ys, self.columns)):
            emissions[:, line] = y[t0:t1].take(columns, axis=1)
        return out[: t1 - t0]

    def run(self, first: int, check_mass: bool) -> list[LinePasses]:
        frames, states, lines = self.frames, self.states, self.lines
        bounds, flush, floor = self.bounds, self.flush, self.floor
        decayed = np.empty(states, dtype=bool)
        # the frame loops' calls, bound once
        multiply, divide, less, putmask = np.multiply, np.divide, np.less, np.putmask
        reduceat = np.add.reduceat
        # a block of emissions; the backward pass reuses each block's memory
        # for its posterior terms once the block's frames are done
        block = np.empty(BLOCK_FRAMES * states)
        emissions = block.reshape(BLOCK_FRAMES, states)

        # forward vectors before the emission multiply, unscaled at their
        # frame; each frame's sums hold every line's mass, then its padding's
        alphas = np.zeros((frames, states))
        alpha_sums = np.empty((frames, 2 * lines))
        alpha_div = alpha_sums.reshape(frames, lines, 2)[:, :, :1]
        vec = np.empty(states)
        vec_lines = vec.reshape(lines, self.width)
        alphas[0] = self.alpha_init
        forward = (states, states, *self.forward)
        for t0 in range(0, frames, BLOCK_FRAMES):
            t1 = min(t0 + BLOCK_FRAMES, frames)
            q = self._gather(t0, t1, emissions)
            for t, alpha, emission, sums, div in zip(
                range(t0, t1), alphas[t0:t1], q, alpha_sums[t0:t1], alpha_div[t0:t1]
            ):
                if t > 0:
                    csr_matvec(*forward, vec, alpha)
                multiply(alpha, emission, out=vec)
                reduceat(vec, bounds, out=sums)
                divide(vec_lines, div, out=vec_lines)
                if flush:
                    less(vec, floor, out=decayed)
                    putmask(vec, decayed, 0.0)
        final = self._final_mass(vec)

        beta_sums = np.empty((frames, 2 * lines))
        beta_div = beta_sums.reshape(frames, lines, 2)[:, :, :1]
        row_totals = np.empty((lines, frames))
        grads = [np.zeros((frames, self.vocab)) for _ in range(lines)]
        betas = np.empty((BLOCK_FRAMES, states))  # one block of rescaled backward vectors
        betas_lines = betas.reshape(BLOCK_FRAMES, lines, self.width)
        backward = (states, states, *self.backward)
        after = None
        # blocks start at multiples of BLOCK_FRAMES, so only the last one is
        # short and the vector after a block always sits in the previous
        # block's first row, which the block writes last
        for t0 in reversed(range(0, frames, BLOCK_FRAMES)):
            t1 = min(t0 + BLOCK_FRAMES, frames)
            n = t1 - t0
            q = self._gather(t0, t1, emissions)
            for row, row_lines, emission, sums, div in zip(
                betas[:n][::-1], betas_lines[:n][::-1], q[::-1],
                beta_sums[t0:t1][::-1], beta_div[t0:t1][::-1],
            ):
                if after is None:
                    multiply(self.beta_final, emission, out=row)
                else:
                    row.fill(0.0)
                    csr_matvec(*backward, after, row)
                    multiply(row, emission, out=row)
                reduceat(row, bounds, out=sums)
                divide(row_lines, div, out=row_lines)
                if flush:
                    less(row, floor, out=decayed)
                    putmask(row, decayed, 0.0)
                after = row
            terms = block[: states * n].reshape(states, n)
            self._bin(alphas[t0:t1], alpha_div[t0:t1], betas[:n], terms, t0, t1, row_totals, grads)

        alpha_scales = np.ascontiguousarray(alpha_sums[:, ::2].T)
        beta_scales = np.ascontiguousarray(beta_sums[:, ::2].T)
        results = []
        for line in range(lines):
            reason = _failure(alpha_scales[line], float(final[line]), beta_scales[line])
            if reason is None:
                log_mass = _log_mass(row_totals[line], alpha_scales[line], beta_scales[line])
                if check_mass:
                    reason = _mass_failure(row_totals[line], log_mass)
            if reason is not None:
                raise InfeasibleTarget(f"line {first + line}: {reason}")
            loss = -(np.log(alpha_scales[line]).sum() + np.log(final[line]))
            results.append(LinePasses(float(loss), grads[line], log_mass))
        return results

    def _final_mass(self, alpha: np.ndarray) -> np.ndarray:
        """Each line's mass in its final states, from the last rescaled forward vector."""
        return np.add.reduceat(alpha * self.beta_final, self.bounds)[::2]

    def _bin(self, alphas, alpha_div, betas, terms, t0, t1, row_totals, grads) -> None:
        """Row totals and gradient of frames [t0, t1) from the block's passes."""
        n = t1 - t0
        # the block's forward vectors are read only here: scale them in place
        alphas_lines = alphas.reshape(n, self.lines, self.width)
        np.divide(alphas_lines, alpha_div, out=alphas_lines)
        # state-major, as the binning product reads it
        np.multiply(alphas.T, betas.T, out=terms)
        binned = np.zeros((self.binned_rows, n))
        csr_matvecs(self.binned_rows, self.states, n, *self.onehot,
                    terms.reshape(-1), binned.reshape(-1))
        split = self.lines * self.vocab
        row_totals[:, t0:t1] = binned[split:]
        ratio = binned[:split].reshape(self.lines, self.vocab, n) / -binned[split:, None, :]
        for y, grad, line_ratio in zip(self.ys, grads, ratio):
            emitted = y[t0:t1]
            np.divide(line_ratio.T, emitted, out=grad[t0:t1], where=emitted > 0.0)


def _failure(alpha_scales: np.ndarray, final: float, beta_scales: np.ndarray) -> str | None:
    """Why a line's passes found no mass, checked in the order the passes run."""
    ok = (alpha_scales > 0.0) & (alpha_scales < np.inf)  # also catches NaN
    if not ok.all():
        t = int(np.argmin(ok))
        return f"forward mass {alpha_scales[t]!r} at frame {t}; target admits no alignment"
    if not 0.0 < final < np.inf:
        return f"final mass {final!r}; no admissible final state reachable"
    ok = (beta_scales > 0.0) & (beta_scales < np.inf)
    if not ok.all():
        # cannot happen when the forward pass found mass, but fail loudly;
        # the backward pass meets the last failing frame first
        t = beta_scales.shape[0] - 1 - int(np.argmin(ok[::-1]))
        return f"backward mass {beta_scales[t]!r} at frame {t}"
    return None


def _log_mass(
    row_totals: np.ndarray, alpha_scales: np.ndarray, beta_scales: np.ndarray
) -> np.ndarray:
    """log of the unscaled total probability read at each frame; -inf where a row is 0."""
    log_mass = np.log(row_totals)
    log_mass += np.cumsum(np.log(alpha_scales))
    log_mass += np.cumsum(np.log(beta_scales)[::-1])[::-1]
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

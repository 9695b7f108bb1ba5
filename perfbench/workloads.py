"""The benchmark's three workloads and the output checks that gate them.

Each workload splits one run into ``setup`` (inputs, set-up decoding,
compiling and serialising), then per operation ``prepare`` (untimed input
work), ``execute`` (the timed calls into the library) and ``check`` (untimed
output checks).  ``check`` returns the layer whose output was wrong, or None.

Inputs come from catalogues of entries generated by ``inputs``; ``--seed``
chooses which entries a run uses and in what order.  ``reference.json``
stores, per catalogue entry, the set counts and losses the library produced
when the benchmark was defined; each workload's ``record`` rebuilds its part
(``run.py --record``).
"""

from __future__ import annotations

import io
import math

import numpy as np

import inputs
from tracing import Calls
from softctc import (
    DecodeConfig,
    InfeasibleTarget,
    PosteriorMatrix,
    ValidationError,
    Vocabulary,
    compile_cn,
    decode_to_cn,
    merge_cns,
    outlier_metric,
    prune,
    segment_line,
    smooth,
    soft_ctc_batch,
    soft_ctc_loss,
)
from softctc import io as cnio

# what an operation may raise and still count as a failed operation, not a crash
FAILURES = (InfeasibleTarget, ValidationError)

LOSS_RTOL = 1e-9
GRAD_IDENTITY_TOL = 1e-9

PSEUDOLABEL_CATALOGUE = 96
TRAIN_BATCH = 16
TRAIN_STEPS = 256
MERGE_CATALOGUE = 24
MERGE_POOL = 8
STRATA = 8
MERGE_COPIES = 4
PRUNE_CUTOFF = 0.01
SMOOTH_EXPONENT = 2.0


def vocabulary() -> Vocabulary:
    symbols = inputs.vocabulary_symbols()
    return Vocabulary(symbols, blank_index=len(symbols) - 1)


DECODE = DecodeConfig(beam_size=inputs.BEAM, strategy="partial")


def seeded_order(seed: int, n: int) -> list[int]:
    return [int(i) for i in np.random.default_rng([inputs.CATALOGUE_KEY, seed]).permutation(n)]


def stratified_order(seed: int, costs: list[float], strata: int = STRATA) -> list[int]:
    """Every catalogue id once, in an order whose every prefix spreads evenly over cost.

    Ids are sorted by a recorded cost and cut into ``strata`` equal groups;
    round r takes the r-th id of each seeded shuffle of the groups, in a
    seeded group order.  A run that stops after any number of operations
    then sees about as much cheap as dear work whatever the seed, which keeps
    seed-to-seed spread down without reusing inputs.
    """
    rng = np.random.default_rng([inputs.CATALOGUE_KEY, seed])
    ranked = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    size = len(ranked) // strata
    groups = [list(rng.permutation(ranked[g * size:(g + 1) * size])) for g in range(strata)]
    order = []
    for r in range(size):
        order.extend(int(groups[g][r]) for g in rng.permutation(strata))
    return order


def kernel_bytes(frames: int, target, vocab: int) -> int:
    """Bytes the forward-backward kernel touches at least once, computed from array sizes.

    Per frame and pass: the CSR matrix (value and column index per nonzero,
    one row pointer per state), the emission slice and the output vector.
    The gradient then reads four (frames, states) arrays and writes three
    (frames, vocab) ones.  A model of traffic, not a measurement.
    """
    t = target.transition
    csr = (t.data.itemsize + t.indices.itemsize) * t.nnz + t.indptr.itemsize * t.indptr.size
    states = target.num_states
    per_frame = 2 * (csr + 2 * 8 * states) + 4 * 8 * states + 3 * 8 * vocab
    return frames * per_frame


def loss_matches(loss: float, expected: float) -> bool:
    return abs(loss - expected) <= LOSS_RTOL * abs(expected)


def gradient_identity_holds(y: PosteriorMatrix, grad: np.ndarray) -> bool:
    """sum_k y[t,k] * dL/dy[t,k] == -1 on every frame."""
    per_frame = np.einsum("tk,tk->t", y.frames, grad)
    return bool(np.all(np.abs(per_frame + 1.0) <= GRAD_IDENTITY_TOL))


def _unconfident_frames(calls, y: PosteriorMatrix, v: Vocabulary) -> int:
    """Frames the partial strategy beam-searches, an input property of the line."""
    segments = calls("decoding.segment_line", segment_line, y, v, DECODE.confidence)
    return sum(s.end - s.start for s in segments if not s.confident)


def _decode(calls, y: PosteriorMatrix, v: Vocabulary, unconfident: int, normalize: bool = True):
    cn = calls("decoding.decode_to_cn", decode_to_cn, y, v, DECODE, normalize=normalize)
    calls.annotate(cn_sets=len(cn), unconfident_frames=unconfident)
    return cn


def _compile(calls, cn, v: Vocabulary):
    target = calls("compiler.compile_cn", compile_cn, cn, v)
    calls.annotate(states=target.num_states, nnz=target.transition.nnz)
    return target


def _loss(calls, y: PosteriorMatrix, target):
    result = calls("loss.soft_ctc_loss", soft_ctc_loss, y, target)
    if calls.traced:
        calls.annotate(lines=1, nnz_frames=target.transition.nnz * y.num_frames,
                       bytes_computed=kernel_bytes(y.num_frames, target, y.vocab_size))
    return result


class Pseudolabel:
    """One line per operation: decode_to_cn (beam 16, partial) -> compile_cn -> soft_ctc_loss."""

    name = "pseudolabel"
    lines_per_op = 1
    count_ops = 12
    min_ops = 50
    tail_percentile = 80
    cycle = 1  # operations need not cover the inputs evenly
    setup_repeats = 5  # set-up is short, so more of them steady its median

    def __init__(self, reference: dict, pool: int | None = None):
        self.reference = reference[self.name]["lines"]
        self.pool = pool or len(self.reference)
        self.v = vocabulary()

    def setup(self, seed: int, calls, part: int = 0) -> dict:
        costs = [line["unconfident_frames"] for line in self.reference]
        ids = stratified_order(seed, costs)[: self.pool]
        lines = []
        for i in ids:
            y = PosteriorMatrix(inputs.synthetic_line(inputs.line_rng(inputs.PSEUDOLABEL_LINE, i)))
            lines.append((i, y, _unconfident_frames(calls, y, self.v)))
        return {"lines": lines}

    def prepare(self, state: dict, k: int):
        return state["lines"][k % len(state["lines"])]

    def warm_up_args(self, state: dict):
        """The pool's lowest catalogue id: with the whole catalogue, one line whatever the seed."""
        return min(state["lines"], key=lambda line: line[0])

    def execute(self, state: dict, args, calls):
        _, y, unconfident = args
        cn = _decode(calls, y, self.v, unconfident)
        target = _compile(calls, cn, self.v)
        return len(cn), target, _loss(calls, y, target)

    def check(self, state: dict, args, out) -> str | None:
        line_id, y, _ = args
        sets, _, result = out
        expected = self.reference[line_id]
        if sets != expected["cn_sets"]:
            return "decoding"
        if not loss_matches(result.loss, expected["loss"]) or not gradient_identity_holds(y, result.grad):
            return "loss"
        return None

    def reference_pairs(self, state: dict, args, out):
        return [(args[1], out[1])]

    def record(self) -> dict:
        calls = Calls()
        lines = []
        for i in range(PSEUDOLABEL_CATALOGUE):
            y = PosteriorMatrix(inputs.synthetic_line(inputs.line_rng(inputs.PSEUDOLABEL_LINE, i)))
            unconfident = _unconfident_frames(calls, y, self.v)
            sets, _, result = self.execute(None, (i, y, unconfident), calls)
            lines.append({"cn_sets": sets, "loss": result.loss, "unconfident_frames": unconfident})
        return {"lines": lines}


class TrainStep:
    """One soft_ctc_batch call per operation over 16 targets fixed in set-up.

    Before each call the 16 lines get fresh posteriors from a temperature
    jitter, made outside the timed region; ``--seed`` orders the jitter steps.
    """

    name = "train-step"
    lines_per_op = TRAIN_BATCH
    count_ops = 8
    min_ops = 34
    tail_percentile = 70
    cycle = 1  # operations need not cover the inputs evenly
    setup_repeats = 3

    def __init__(self, reference: dict, pool: int | None = None):
        self.reference = reference[self.name]
        self.v = vocabulary()

    def decode_batch(self, calls):
        """The 16 base lines, their compiled targets, set counts and unconfident frames."""
        base = [inputs.synthetic_line(inputs.line_rng(inputs.TRAIN_LINE, i)) for i in range(TRAIN_BATCH)]
        targets, cn_sets, unconfident = [], [], 0
        for y in base:
            pm = PosteriorMatrix(y)
            frames = _unconfident_frames(calls, pm, self.v)
            cn = _decode(calls, pm, self.v, frames)
            targets.append(_compile(calls, cn, self.v))
            cn_sets.append(len(cn))
            unconfident += frames
        return base, targets, cn_sets, unconfident

    def setup(self, seed: int, calls, part: int = 0) -> dict:
        base, targets, cn_sets, _ = self.decode_batch(calls)
        steps = seeded_order(seed, len(self.reference["loss"]))
        return {"base": base, "targets": targets, "steps": steps,
                "decoded_ok": cn_sets == self.reference["cn_sets"]}

    @staticmethod
    def jittered(base: list[np.ndarray], step: int) -> list[PosteriorMatrix]:
        return [
            PosteriorMatrix(inputs.jitter(y, inputs.line_rng(inputs.TRAIN_JITTER, step, i)))
            for i, y in enumerate(base)
        ]

    def prepare(self, state: dict, k: int):
        step = state["steps"][k % len(state["steps"])]
        return step, self.jittered(state["base"], step)

    def warm_up_args(self, state: dict):
        return self.prepare(state, -1)

    def execute(self, state: dict, args, calls):
        _, ys = args
        pairs = list(zip(ys, state["targets"]))
        results = calls("loss.soft_ctc_batch", soft_ctc_batch, pairs)
        if calls.traced:
            calls.annotate(
                lines=len(pairs),
                nnz_frames=sum(t.transition.nnz * y.num_frames for y, t in pairs),
                bytes_computed=sum(kernel_bytes(y.num_frames, t, y.vocab_size) for y, t in pairs),
            )
        return results

    def check(self, state: dict, args, out) -> str | None:
        step, ys = args
        if not state["decoded_ok"]:
            return "decoding"
        expected = self.reference["loss"][step]
        if len(out) != len(ys):
            return "loss"
        for y, result, want in zip(ys, out, expected):
            if not loss_matches(result.loss, want) or not gradient_identity_holds(y, result.grad):
                return "loss"
        return None

    def reference_pairs(self, state: dict, args, out):
        return list(zip(args[1], state["targets"]))

    def record(self) -> dict:
        base, targets, cn_sets, unconfident = self.decode_batch(Calls())
        losses = []
        for step in range(TRAIN_STEPS):
            ys = self.jittered(base, step)
            losses.append([r.loss for r in soft_ctc_batch(list(zip(ys, targets)))])
        return {"cn_sets": cn_sets, "unconfident_frames": unconfident, "loss": losses}


class MergeTransform:
    """One line per operation: merge four decoded copies, transform, serialise and score.

    Set-up decodes the clean line and three augmented copies raw and writes
    each network to in-memory text.  The operation reads the four texts,
    merges, prunes, smooths, takes the outlier metric (recorded, not gating),
    writes the result, compiles it and scores it against the clean line.
    """

    name = "merge-transform"
    lines_per_op = 1
    count_ops = 12
    min_ops = 100
    tail_percentile = 90
    setup_repeats = MERGE_CATALOGUE // MERGE_POOL  # one set-up per part of the catalogue

    def __init__(self, reference: dict, pool: int | None = None):
        self.reference = reference[self.name]["lines"]
        self.pool = pool or MERGE_POOL
        self.cycle = self.pool  # every line of a set-up gets as many operations
        self.v = vocabulary()

    @staticmethod
    def copies(line_id: int) -> list[np.ndarray]:
        clean = inputs.synthetic_line(inputs.line_rng(inputs.MERGE_LINE, line_id))
        return [clean] + [
            inputs.augment(clean, inputs.line_rng(inputs.MERGE_AUGMENT, line_id, c))
            for c in range(1, MERGE_COPIES)
        ]

    def serialise(self, calls, line_id: int):
        """Clean posteriors, the four network texts and the decoded set counts."""
        copies = self.copies(line_id)
        texts, sets = [], []
        for y in copies:
            pm = PosteriorMatrix(y)
            cn = _decode(calls, pm, self.v, _unconfident_frames(calls, pm, self.v), normalize=False)
            buf = io.StringIO()
            calls("io.write_cn", cnio.write_cn, buf, cn, self.v)
            texts.append(buf.getvalue())
            calls.annotate(bytes=len(texts[-1]))
            sets.append(len(cn))
        return PosteriorMatrix(copies[0]), texts, sets

    def setup(self, seed: int, calls, part: int = 0) -> dict:
        """Serialise the ``part``-th run of ``pool`` lines in the seed's order.

        The order takes one line of each cost stratum per round, so every
        part mixes cheap and dear lines alike, and the three parts of a run
        (one per set-up) cover the whole catalogue whatever the seed.
        """
        lines = []
        costs = [line["nnz"] for line in self.reference]
        order = stratified_order(seed, costs)
        start = part * self.pool % len(order)
        for line_id in order[start: start + self.pool]:
            y, texts, sets = self.serialise(calls, line_id)
            lines.append((line_id, y, texts, sets == self.reference[line_id]["sets_in"]))
        return {"lines": lines}

    def prepare(self, state: dict, k: int):
        return state["lines"][k % len(state["lines"])]

    def warm_up_args(self, state: dict):
        return self.prepare(state, -1)

    def execute(self, state: dict, args, calls):
        _, y, texts, _ = args
        cns = []
        for text in texts:
            cns.append(calls("io.read_cn", cnio.read_cn, io.StringIO(text), self.v)[0])
            calls.annotate(bytes=len(text))
        merged = calls("confusion.merge_cns", merge_cns, cns)
        calls.annotate(sets_in=sum(len(cn) for cn in cns))
        pruned = calls("confusion.prune", prune, merged, PRUNE_CUTOFF)
        smoothed = calls("confusion.smooth", smooth, pruned, SMOOTH_EXPONENT)
        if calls.traced:
            calls.annotate(sets_out=len(smoothed),
                           null_sets=sum(1 for s in smoothed.sets if s.null > 0.0))
        metric = calls("confusion.outlier_metric", outlier_metric, smoothed)
        calls.annotate(value=metric if math.isfinite(metric) else repr(metric))
        buf = io.StringIO()
        calls("io.write_cn", cnio.write_cn, buf, smoothed, self.v)
        if calls.traced:
            calls.annotate(bytes=len(buf.getvalue()))
        target = _compile(calls, smoothed, self.v)
        return smoothed, metric, target, _loss(calls, y, target)

    def check(self, state: dict, args, out) -> str | None:
        line_id, y, _, decoded_ok = args
        if not decoded_ok:
            return "decoding"
        _, _, _, result = out
        expected = self.reference[line_id]
        if not loss_matches(result.loss, expected["loss"]) or not gradient_identity_holds(y, result.grad):
            return "loss"
        return None

    def reference_pairs(self, state: dict, args, out):
        return [(args[1], out[2])]

    def record(self) -> dict:
        calls = Calls()
        lines = []
        for line_id in range(MERGE_CATALOGUE):
            y, texts, sets = self.serialise(calls, line_id)
            merged, _, target, result = self.execute(None, (line_id, y, texts, True), calls)
            lines.append({
                "sets_in": sets,
                "sets_out": len(merged),
                "nnz": target.transition.nnz,
                "null_sets": sum(1 for s in merged.sets if s.null > 0.0),
                "loss": result.loss,
            })
        return {"lines": lines}


WORKLOADS = {w.name: w for w in (Pseudolabel, TrainStep, MergeTransform)}

"""Confusion networks: ordered confusion sets over transcription variants.

A confusion set maps symbols to scores and reserves extra mass for ``null``,
the explicit skip choice.  Null is not the blank: it removes the set from a
variant entirely rather than emitting anything.  Scores are raw accumulations
until a network is normalized, after which every set is a distribution.

A network is stored as flat arrays (set offsets, ascending symbols, scores,
nulls), and the transforms, network merging included, are array operations on
them.  Per-set totals are exactly rounded and powers are Python's ``**``, so
results match the per-set loops kept in :mod:`softctc.oracle` bit for bit.
Only the n-best fold, whose networks hold a handful of sets, folds mutable
per-set dicts, and only it caches its alignments (see :func:`_fold_align`);
:func:`levenshtein_align` and :func:`merge_cns` do not.  All operations are
pure; networks are never mutated in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Sequence

import numpy as np

from .types import Labeling, NBestList, ValidationError


@dataclass(frozen=True, eq=True)
class ConfusionSet:
    """One position of a confusion network.

    ``alternatives`` maps symbol id to a positive finite score; ``null``
    carries the finite, nonnegative skip mass.  A set consisting of null
    alone is forbidden; transformations that would produce one drop the set
    instead.
    """

    alternatives: dict[int, float]
    null: float = 0.0

    def __post_init__(self):
        alts = {int(k): float(v) for k, v in self.alternatives.items()}
        object.__setattr__(self, "alternatives", alts)
        object.__setattr__(self, "null", float(self.null))
        if not alts:
            raise ValidationError("a confusion set needs at least one alternative")
        # written so that NaN fails each check
        if any(not 0.0 < v < math.inf for v in alts.values()):
            raise ValidationError("alternative scores must be positive and finite")
        if not 0.0 <= self.null < math.inf:
            raise ValidationError("null score must be nonnegative and finite")

    __hash__ = None

    def total(self) -> float:
        return math.fsum(list(self.alternatives.values()) + [self.null])

    def size(self) -> int:
        """Number of choices the set offers, counting null when present."""
        return len(self.alternatives) + (1 if self.null > 0.0 else 0)

    def normalized(self) -> "ConfusionSet":
        # Divide rather than multiply by the reciprocal: one rounding per
        # entry keeps renormalization of an already-normal set bit-stable.
        t = self.total()
        return ConfusionSet({k: v / t for k, v in self.alternatives.items()}, self.null / t)


def _fsum_totals(offsets: np.ndarray, scores: np.ndarray, nulls: np.ndarray) -> np.ndarray:
    """Exactly rounded total of every set, null included: ``ConfusionSet.total``.

    A set of at most two values (one alternative and a null, or two
    alternatives) takes one IEEE addition, which is exactly rounded already;
    only sets of three or more values go through ``math.fsum``.
    """
    totals = np.add.reduceat(scores, offsets[:-1]) + nulls
    wide = np.flatnonzero(np.diff(offsets) + (nulls > 0.0) > 2)
    if wide.size:
        values, off, null = scores.tolist(), offsets.tolist(), nulls.tolist()
        totals[wide] = [math.fsum(values[off[i] : off[i + 1]] + [null[i]]) for i in wide.tolist()]
    return totals


class ConfusionNetwork:
    """Ordered confusion sets, stored as flat arrays, plus raw-score bookkeeping.

    Set ``i`` offers ``symbols[offsets[i]:offsets[i + 1]]`` (ascending) with
    the matching ``scores`` and skip mass ``nulls[i]``.  ``total_score`` is
    the per-set mass a raw network conserves (the sum of folded hypothesis
    weights); it must be 1.0 for normalized networks.  Every set must total 1.0
    (normalized) or ``total_score`` (raw) to within 1e-6 relative.  The
    arrays are read-only; ``sets`` is a view of them as ``ConfusionSet``
    values, built on first access.
    """

    def __init__(self, sets: Iterable[ConfusionSet], normalized: bool = True, total_score: float = 1.0):
        self._init(*_flatten_sets(tuple(sets)), normalized, total_score)

    @classmethod
    def _from_arrays(cls, offsets, symbols, scores, nulls, normalized=True, total_score=1.0):
        cn = cls.__new__(cls)
        cn._init(offsets, symbols, scores, nulls, normalized, total_score)
        return cn

    def _init(self, offsets, symbols, scores, nulls, normalized, total_score):
        self.__dict__.update(
            offsets=np.asarray(offsets, dtype=np.int64), symbols=np.asarray(symbols, dtype=np.int64),
            scores=np.asarray(scores, dtype=np.float64), nulls=np.asarray(nulls, dtype=np.float64),
            normalized=bool(normalized), total_score=float(total_score),
        )
        for a in (self.offsets, self.symbols, self.scores, self.nulls):
            a.setflags(write=False)
        positive = (self.scores > 0.0) & (self.scores < math.inf)  # NaN fails too
        nonnegative = (self.nulls >= 0.0) & (self.nulls < math.inf)
        if not (positive.all() and nonnegative.all() and np.diff(self.offsets).all()):
            _unpack(self, ConfusionSet)  # the first bad set raises its own error
        if not 0.0 < self.total_score < math.inf:  # also catches NaN
            raise ValidationError(f"total score must be positive and finite, got {self.total_score!r}")
        if self.normalized and self.total_score != 1.0:
            raise ValidationError(f"a normalized network totals 1.0, got {self.total_score!r}")
        expected = 1.0 if self.normalized else self.total_score
        totals = np.add.reduceat(self.scores, self.offsets[:-1]) + self.nulls
        off = np.flatnonzero(~(np.abs(totals - expected) <= 1e-6 * expected))
        if off.size:
            i = int(off[0])
            kind = "normalized" if self.normalized else "raw"
            raise ValidationError(
                f"set {i} of a {kind} network sums to {self.sets[i].total()!r}, expected {expected!r}"
            )

    @functools.cached_property
    def sets(self) -> tuple[ConfusionSet, ...]:
        return tuple(_unpack(self, ConfusionSet))

    def totals(self) -> list[float]:
        """Exactly rounded total of every set, null included."""
        return _fsum_totals(self.offsets, self.scores, self.nulls).tolist()

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, ConfusionNetwork):
            return NotImplemented
        fields = ("normalized", "total_score", "offsets", "symbols", "scores", "nulls")
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)

    __hash__ = None

    def __repr__(self) -> str:
        return f"ConfusionNetwork({self.sets!r}, normalized={self.normalized}, total_score={self.total_score!r})"


def _unpack(cn: ConfusionNetwork, make) -> list:
    """``make(alternatives, null)`` for every set of ``cn``."""
    offsets, symbols, scores, nulls = (a.tolist() for a in (cn.offsets, cn.symbols, cn.scores, cn.nulls))
    return [
        make(dict(zip(symbols[a:b], scores[a:b])), null)
        for a, b, null in zip(offsets, offsets[1:], nulls)
    ]


_Arrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _flatten_sets(sets) -> _Arrays:
    """(offsets, symbols, scores, nulls) of sets with ``alternatives`` dicts and ``null``."""
    items = [sorted(s.alternatives.items()) for s in sets]
    flat = [kv for it in items for kv in it]
    return (
        np.cumsum([0] + [len(it) for it in items]),
        np.array([k for k, _ in flat], dtype=np.int64),
        np.array([v for _, v in flat], dtype=np.float64),
        np.array([s.null for s in sets], dtype=np.float64),
    )


def _normalized(offsets, symbols, scores, nulls) -> ConfusionNetwork:
    """Divide every set by its exactly rounded total: one rounding per entry
    keeps renormalization of an already-normal set bit-stable."""
    totals = _fsum_totals(offsets, scores, nulls)
    return ConfusionNetwork._from_arrays(
        offsets, symbols, scores / np.repeat(totals, np.diff(offsets)), nulls / totals
    )


def trivial_cn(labeling: Labeling | Iterable[int], weight: float = 1.0) -> ConfusionNetwork:
    """Singleton-set network representing exactly one labeling."""
    symbols = [int(s) for s in labeling]
    return ConfusionNetwork._from_arrays(
        np.arange(len(symbols) + 1), symbols, np.full(len(symbols), float(weight)),
        np.zeros(len(symbols)), normalized=(weight == 1.0), total_score=float(weight),
    )


def normalize_cn(cn: ConfusionNetwork) -> ConfusionNetwork:
    return _normalized(cn.offsets, cn.symbols, cn.scores, cn.nulls)


def _best_positions(
    offsets: np.ndarray, symbols: np.ndarray, scores: np.ndarray, nulls: np.ndarray
) -> tuple[list[int], list[int]]:
    """Best-path symbols and the indices of the sets they come from: each
    set's highest-scoring alternative, the smaller symbol on ties, unless its
    null is strictly greater."""
    sets = np.arange(nulls.shape[0])
    set_of = np.repeat(sets, np.diff(offsets))
    peak = np.maximum.reduceat(scores, offsets[:-1])
    # symbols ascend, so a set's first maximum is its smallest best symbol
    ties = np.flatnonzero(scores == peak[set_of])
    best = symbols[ties[np.searchsorted(set_of[ties], sets)]]
    positions = np.flatnonzero(~(nulls > peak))
    return best[positions].tolist(), positions.tolist()


def best_path(cn: ConfusionNetwork) -> Labeling:
    """Most probable variant under per-set independent choices.

    Sets whose best choice is null contribute nothing.
    """
    symbols, _ = _best_positions(cn.offsets, cn.symbols, cn.scores, cn.nulls)
    return Labeling(tuple(symbols))


MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"


def levenshtein_align(a: Sequence[int], b: Sequence[int]) -> list[tuple[str, int, int]]:
    """Minimum-edit alignment of ``b`` against ``a``.

    Returns (kind, i, j) ops where i indexes ``a``, j indexes ``b`` and -1
    marks the absent side.  At equal cost the walk prefers match, then
    substitution, then deletion, then insertion, resolving ties left to right.

    Row ``i`` of the table ``dist[i][j]`` (edit distance of ``a[i:]`` and
    ``b[j:]``) is two bit vectors (Myers 1999, Hyyro's edit-distance form,
    on the reversed strings): bit ``k`` of ``pv``/``mv`` marks
    ``dist[i][m-k-1]`` one above/below ``dist[i][m-k]``; ``dist[i][m] = n-i``.
    """
    a, b = list(a), list(b)
    n, m = len(a), len(b)
    full = (1 << m) - 1
    match_bits: dict[int, int] = {}
    for j, s in enumerate(b):
        match_bits[s] = match_bits.get(s, 0) | 1 << (m - 1 - j)
    pv, mv = full, 0
    rows = [(pv, mv)]
    for s in reversed(a):
        eq = match_bits.get(s, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & full
        mh = pv & xh
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
        rows.append((pv, mv))
    rows.reverse()

    def dist(i: int, j: int) -> int:
        pv, mv = rows[i]
        mask = (1 << (m - j)) - 1
        return n - i + (pv & mask).bit_count() - (mv & mask).bit_count()

    # each step lands on the neighbour whose test passed; an insertion is
    # taken only when the others fail, so there dist falls by exactly one
    ops: list[tuple[str, int, int]] = []
    i = j = 0
    here = dist(0, 0)
    while i < n or j < m:
        if i < n and j < m and here == (diag := dist(i + 1, j + 1)) + (a[i] != b[j]):
            ops.append((MATCH if a[i] == b[j] else SUBSTITUTE, i, j))
            i += 1
            j += 1
            here = diag
        elif i < n and here == (down := dist(i + 1, j)) + 1:
            ops.append((DELETE, i, -1))
            i += 1
            here = down
        else:
            ops.append((INSERT, -1, j))
            j += 1
            here -= 1
    return ops


# how many equality patterns _fold_align keeps: a fold's hypotheses differ
# from its best path by a few edits, so few distinct patterns occur and
# they recur across lines (594 for the 10,653 alignments of the 96
# benchmark pseudolabel lines); a miss costs about 1.5x an uncached
# alignment of such short pairs, so the cache pays once over about 41 %
# of alignments repeat (timings in CHANGES.md)
FOLD_ALIGN_CACHE = 2048


def _fold_align(a: Sequence[int], b: Sequence[int]) -> tuple[tuple[str, int, int], ...]:
    """``levenshtein_align(a, b)``, cached by the pair's equality pattern.

    The aligner only compares symbols for equality, so relabelling both
    sides by first occurrence (across ``a`` then ``b``) keeps its result.
    """
    ids: dict[int, int] = {}
    return _pattern_align(
        tuple([ids.setdefault(s, len(ids)) for s in a]), tuple([ids.setdefault(s, len(ids)) for s in b])
    )


@functools.lru_cache(maxsize=FOLD_ALIGN_CACHE)
def _pattern_align(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[str, int, int], ...]:
    return tuple(levenshtein_align(a, b))


@dataclass(slots=True)
class _RawSet:
    """A mutable confusion set that takes ownership of ``alternatives``.

    ``best`` caches the highest-scoring alternative, the smaller symbol on
    ties, and ``best_score`` its score; whoever changes a score keeps them.
    """

    alternatives: dict[int, float]
    null: float
    best: int
    best_score: float


def _merge_hypothesis(
    sets: list[_RawSet], total: float, labeling: Sequence[int], weight: float
) -> list[_RawSet]:
    """Align a one-path hypothesis against the best path of ``sets`` and add it.

    ``total`` is the per-set mass of ``sets`` and ``weight`` the hypothesis'
    mass.  A set the hypothesis has no symbol for (skipped by its own best
    path, or deleted) absorbs ``weight`` on null, and an inserted symbol opens
    a set holding ``total`` on null, so every output set totals ``total +
    weight``.  The input sets are reused, and each matched set updates its
    cached best as its scores grow.
    """
    positions = [i for i, s in enumerate(sets) if not s.null > s.best_score]
    out: list[_RawSet] = []
    ca = 0
    for kind, i, j in _fold_align([sets[p].best for p in positions], labeling):
        if kind == INSERT:
            sym = labeling[j]
            out.append(_RawSet({sym: weight}, total, sym, weight))
            continue
        stop = positions[i] + (kind == DELETE)
        for s in sets[ca:stop]:
            s.null += weight
        out.extend(sets[ca:stop])
        ca = stop
        if kind != DELETE:  # MATCH or SUBSTITUTE
            s, sym = sets[ca], labeling[j]
            score = s.alternatives.get(sym, 0.0) + weight
            s.alternatives[sym] = score
            # scores only grow, so the new best is the old one or this one
            if score > s.best_score or (score == s.best_score and sym <= s.best):
                s.best, s.best_score = sym, score
            out.append(s)
            ca += 1
    for s in sets[ca:]:
        s.null += weight
    out.extend(sets[ca:])
    return out


def _fold(entries: Iterable[tuple[tuple[int, ...], float]]) -> tuple[list[_RawSet], float]:
    """Raw sets and per-set total of (symbols, weight) hypotheses, folded by descending weight.

    The top hypothesis seeds one singleton set per symbol, and each following
    one is merged in as a one-path network whose best path is its symbols.
    """
    (top, total), *rest = sorted(entries, key=lambda e: (-e[1], e[0]))
    sets = [_RawSet({s: total}, 0.0, s, total) for s in top]
    for symbols, weight in rest:
        sets = _merge_hypothesis(sets, total, symbols, weight)
        total += weight
    return sets, total


def build_cn(nbest: NBestList, normalize: bool = True) -> ConfusionNetwork:
    """Fold an n-best list into a confusion network.

    Hypotheses are folded in descending weight order: the top one seeds a
    singleton-set network, each following one is aligned against the current
    best path and accumulated, and per-set normalization runs once at the end
    (skipped when ``normalize`` is false so networks can still be merged).
    """
    sets, total = _fold([(labeling.symbols, weight) for labeling, weight in nbest])
    if normalize:
        return _normalized(*_flatten_sets(sets))
    return ConfusionNetwork._from_arrays(*_flatten_sets(sets), normalized=False, total_score=total)


# the sides an output set of a pair merge joins: one or both
_IN_A, _IN_B = 1, 2


def _merge_order(a: _Arrays, b: _Arrays) -> np.ndarray:
    """The sides each output set of a pair merge joins, in output order.

    The best paths are aligned, and a set off its own best path goes out
    just before the next set of its side that the alignment places.  So
    every set of each side goes out once, in its side's order.
    """
    pa, posa = _best_positions(*a)
    pb, posb = _best_positions(*b)
    sides: list[int] = []
    ca = cb = 0
    for kind, i, j in levenshtein_align(pa, pb):
        if kind != INSERT:
            if ca < posa[i]:
                sides.extend([_IN_A] * (posa[i] - ca))
            ca = posa[i] + 1
        if kind != DELETE:
            if cb < posb[j]:
                sides.extend([_IN_B] * (posb[j] - cb))
            cb = posb[j] + 1
        sides.append(_IN_A if kind == DELETE else _IN_B if kind == INSERT else _IN_A | _IN_B)
    sides.extend([_IN_A] * (a[3].shape[0] - ca) + [_IN_B] * (b[3].shape[0] - cb))
    return np.array(sides, dtype=np.int64)


def _merge_pair(a: _Arrays, a_total: float, b: _Arrays, b_total: float) -> _Arrays:
    """Align ``b``'s best path against ``a``'s and sum the paired sets.

    ``a_total`` and ``b_total`` are the per-set masses of the two sides.  A
    set the other side has no counterpart for (skipped by its own best path,
    deleted or inserted) absorbs the other side's total on null, so every
    output set totals ``a_total + b_total``.  A paired set holds at most one
    entry per side for each symbol, and IEEE addition is commutative, so
    every sum has the bits of the per-set dict merge.
    """
    sides = _merge_order(a, b)
    if not sides.shape[0]:
        return a
    in_a, in_b = np.flatnonzero(sides & _IN_A), np.flatnonzero(sides & _IN_B)
    # each side's null, or that side's total where it has no set
    left, right = np.full(sides.shape[0], a_total), np.full(sides.shape[0], b_total)
    left[in_a], right[in_b] = a[3], b[3]
    owner = np.concatenate((np.repeat(in_a, np.diff(a[0])), np.repeat(in_b, np.diff(b[0]))))
    symbols, values = np.concatenate((a[1], b[1])), np.concatenate((a[2], b[2]))
    order = np.lexsort((symbols, owner))
    owner, symbols, values = owner[order], symbols[order], values[order]
    repeat = (owner[1:] == owner[:-1]) & (symbols[1:] == symbols[:-1])
    first = np.flatnonzero(np.concatenate(([True], ~repeat)))
    offsets = np.zeros(sides.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[first], minlength=sides.shape[0]), out=offsets[1:])
    return offsets, symbols[first], np.add.reduceat(values, first), left + right


def merge_cns(cns: Sequence[ConfusionNetwork]) -> ConfusionNetwork:
    """Merge networks for the same line by aligning their best paths.

    Scores are treated as raw accumulations (each input's total mass weights
    its contribution) and corresponding sets are summed, left to right;
    normalization happens once at the very end.
    """
    if not cns:
        raise ValidationError("nothing to merge")
    if any(cn.normalized for cn in cns):
        raise ValidationError("merge expects raw networks; normalization is final")
    acc, total = (cns[0].offsets, cns[0].symbols, cns[0].scores, cns[0].nulls), cns[0].total_score
    for cn in cns[1:]:
        acc = _merge_pair(acc, total, (cn.offsets, cn.symbols, cn.scores, cn.nulls), cn.total_score)
        total += cn.total_score
    return normalize_cn(ConfusionNetwork._from_arrays(*acc, normalized=False, total_score=total))


def smooth(cn: ConfusionNetwork, n: float) -> ConfusionNetwork:
    """Flatten per-set distributions by taking the n-th root and renormalizing.

    n = 1 is the identity, n = inf yields the uniform distribution over the
    choices present (null included when it carries mass).  Composes as
    smooth(smooth(cn, a), b) == smooth(cn, a * b).
    """
    if not n >= 1.0:
        raise ValidationError(f"smoothing exponent must be >= 1, got {n!r}")
    if math.isinf(n):
        scores, nulls = np.ones(cn.scores.shape[0]), (cn.nulls > 0.0).astype(np.float64)
    else:
        # Python's float power, not np.power, whose results differ in the last bit
        inv = 1.0 / n
        scores = np.array([v**inv for v in cn.scores.tolist()])
        nulls = np.array([v**inv for v in cn.nulls.tolist()])
    return _normalized(cn.offsets, cn.symbols, scores, nulls)


def prune(cn: ConfusionNetwork, cutoff: float = 0.01) -> ConfusionNetwork:
    """Keep only alternatives whose probability exceeds ``cutoff``.

    Null mass is never pruned.  A set whose alternatives all fall at or below
    the cutoff keeps its single best alternative (the smallest symbol among
    ties), so no set ever degenerates to null alone.  Idempotent:
    renormalization only raises surviving entries.
    """
    if not 0.0 <= cutoff < 1.0:
        raise ValidationError(f"cutoff must be in [0, 1), got {cutoff!r}")
    counts = np.diff(cn.offsets)
    totals = _fsum_totals(cn.offsets, cn.scores, cn.nulls)
    probs = cn.scores / np.repeat(totals, counts)
    set_of = np.repeat(np.arange(counts.shape[0]), counts)
    kept = probs > cutoff
    bare = np.bincount(set_of[kept], minlength=counts.shape[0]) == 0
    if bare.any():
        # symbols ascend, so a set's first maximum is its smallest best symbol
        peak = np.maximum.reduceat(probs, cn.offsets[:-1])
        best = np.flatnonzero(bare[set_of] & (probs == peak[set_of]))
        kept[best[np.unique(set_of[best], return_index=True)[1]]] = True
    offsets = np.concatenate(([0], np.cumsum(np.bincount(set_of[kept], minlength=counts.shape[0]))))
    return _normalized(offsets, cn.symbols[kept], probs[kept], cn.nulls / totals)


def outlier_metric(cn: ConfusionNetwork) -> float:
    """Product of set sizes divided by the number of sets.

    Grows with the number of variants a network encodes; used to rank and
    drop the least reliable lines of a corpus.  An empty network is fully
    determined, so its metric is 0.
    """
    if not len(cn):
        return 0.0
    try:
        return count_variant_paths(cn) / len(cn)
    except OverflowError:
        return math.inf


def count_variant_paths(cn: ConfusionNetwork) -> int:
    """Exact number of per-set choice combinations (path convention).

    Distinct strings can be fewer: different combinations may collapse to the
    same string once nulls are dropped.  The enumeration oracle reports both.
    """
    return math.prod((np.diff(cn.offsets) + (cn.nulls > 0.0)).tolist())

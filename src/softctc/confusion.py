"""Confusion networks: ordered confusion sets over transcription variants.

A confusion set maps symbols to scores and reserves extra mass for ``null``,
the explicit skip choice.  Null is not the blank: it removes the set from a
variant entirely rather than emitting anything.  Scores are raw accumulations
until a network is normalized, after which every set is a distribution.

A network is stored as flat arrays (set offsets, ascending symbols, scores,
nulls), and the transforms are array operations on them.  Per-set totals are
exactly rounded (``math.fsum``) and powers are Python's ``**``, so results
match the per-set loops kept in :mod:`softctc.oracle` bit for bit.  Merging
folds mutable per-set dicts through one aligner.  All operations are pure;
networks are never mutated in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Sequence

import numpy as np

from .types import Labeling, NBestList, ValidationError


def _best_choice(alternatives: dict[int, float], null: float) -> tuple[int | None, float]:
    """Highest-scoring choice; ties between symbols go to the smaller id,
    and a tie between null and a symbol keeps the symbol."""
    if len(alternatives) == 1:
        ((sym, score),) = alternatives.items()
    else:
        score = max(alternatives.values())
        sym = min(k for k, v in alternatives.items() if v == score)
    if null > score:
        return None, null
    return sym, score


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

    def best(self) -> tuple[int | None, float]:
        return _best_choice(self.alternatives, self.null)

    def normalized(self) -> "ConfusionSet":
        # Divide rather than multiply by the reciprocal: one rounding per
        # entry keeps renormalization of an already-normal set bit-stable.
        t = self.total()
        return ConfusionSet({k: v / t for k, v in self.alternatives.items()}, self.null / t)


def _fsum_totals(offsets: np.ndarray, scores: np.ndarray, nulls: np.ndarray) -> list[float]:
    """Exactly rounded total of every set, null included: ``ConfusionSet.total``."""
    # each set's scores followed by its null, so every total is one slice
    values = np.insert(scores, offsets[1:], nulls).tolist()
    ends = (offsets[1:] + np.arange(1, nulls.shape[0] + 1)).tolist()
    return [math.fsum(values[a:b]) for a, b in zip([0] + ends, ends)]


class ConfusionNetwork:
    """Ordered confusion sets, stored as flat arrays, plus raw-score bookkeeping.

    Set ``i`` offers ``symbols[offsets[i]:offsets[i + 1]]`` (ascending) with
    the matching ``scores`` and skip mass ``nulls[i]``.  ``total_score`` is
    the per-set mass a raw network conserves (the sum of folded hypothesis
    weights); it is 1.0 for normalized networks.  Every set must total 1.0
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
        return _fsum_totals(self.offsets, self.scores, self.nulls)

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, ConfusionNetwork):
            return NotImplemented
        return (self.sets, self.normalized, self.total_score) == (other.sets, other.normalized, other.total_score)

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


def _flatten(
    alternatives: Sequence[dict[int, float]], nulls: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, symbols, scores, nulls) of sets given as symbol-to-score dicts and nulls."""
    items = [sorted(alts.items()) for alts in alternatives]
    flat = [kv for it in items for kv in it]
    return (
        np.cumsum([0] + [len(it) for it in items]),
        np.array([k for k, _ in flat], dtype=np.int64),
        np.array([v for _, v in flat], dtype=np.float64),
        np.array(nulls, dtype=np.float64),
    )


def _flatten_sets(sets) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_flatten` of sets with ``alternatives`` and ``null``."""
    return _flatten([s.alternatives for s in sets], [s.null for s in sets])


def _normalized(offsets, symbols, scores, nulls) -> ConfusionNetwork:
    """Divide every set by its exactly rounded total: one rounding per entry
    keeps renormalization of an already-normal set bit-stable."""
    totals = np.array(_fsum_totals(offsets, scores, nulls))
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


def _best_positions(sets: Sequence[_RawSet]) -> tuple[list[int], list[int]]:
    """Best-path symbols and the indices of the sets they come from: each set's
    cached best alternative, unless its null is strictly greater."""
    positions = [i for i, s in enumerate(sets) if not s.null > s.best_score]
    return [sets[i].best for i in positions], positions


def best_path(cn: ConfusionNetwork) -> Labeling:
    """Most probable variant under per-set independent choices.

    Sets whose best choice is null contribute nothing.
    """
    symbols, _ = _best_positions(_raw_sets(cn))
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


def _raw_sets(cn: ConfusionNetwork) -> list[_RawSet]:
    """Mutable copies of the sets of ``cn``, best alternatives cached."""
    if not len(cn):
        return []
    set_of = np.repeat(np.arange(len(cn)), np.diff(cn.offsets))
    peak = np.maximum.reduceat(cn.scores, cn.offsets[:-1])
    # symbols ascend, so a set's first maximum is its smallest best symbol
    ties = np.flatnonzero(cn.scores == peak[set_of])
    best = cn.symbols[ties[np.unique(set_of[ties], return_index=True)[1]]].tolist()
    offsets, symbols, scores = (a.tolist() for a in (cn.offsets, cn.symbols, cn.scores))
    return [
        _RawSet(dict(zip(symbols[a:b], scores[a:b])), null, sym, score)
        for a, b, null, sym, score in zip(offsets, offsets[1:], cn.nulls.tolist(), best, peak.tolist())
    ]


def _merge_pair(
    a_sets: list[_RawSet],
    a_total: float,
    b_sets: list[_RawSet],
    b_total: float,
    b_best: tuple[list[int], Sequence[int]],
) -> list[_RawSet]:
    """Align ``b``'s best path ``b_best`` against ``a``'s and sum the paired sets.

    ``a_total`` and ``b_total`` are the per-set masses of the two sides, and
    ``b_best`` is ``_best_positions(b_sets)``.  A set the other side has no
    counterpart for (skipped by its own best path, deleted or inserted)
    absorbs the other side's total on null, so every output set totals
    ``a_total + b_total``.  The input sets are reused, and each summed set
    updates its cached best as its scores grow.
    """
    pa, posa = _best_positions(a_sets)
    pb, posb = b_best
    out: list[_RawSet] = []

    def flush(sets: list[_RawSet], start: int, stop: int, other_total: float) -> int:
        for s in sets[start:stop]:
            s.null += other_total
        out.extend(sets[start:stop])
        return stop

    ca = cb = 0
    for kind, i, j in levenshtein_align(pa, pb):
        if kind == DELETE:
            ca = flush(a_sets, ca, posa[i] + 1, b_total)
        elif kind == INSERT:
            cb = flush(b_sets, cb, posb[j] + 1, a_total)
        else:  # MATCH or SUBSTITUTE
            if ca < posa[i]:
                ca = flush(a_sets, ca, posa[i], b_total)
            if cb < posb[j]:
                cb = flush(b_sets, cb, posb[j], a_total)
            sa, sb = a_sets[ca], b_sets[cb]
            for sym, v in sb.alternatives.items():
                score = sa.alternatives.get(sym, 0.0) + v
                sa.alternatives[sym] = score
                # scores only grow, so the new best is the old one or this one
                if score > sa.best_score or (score == sa.best_score and sym <= sa.best):
                    sa.best, sa.best_score = sym, score
            sa.null += sb.null
            out.append(sa)
            ca, cb = ca + 1, cb + 1
    flush(a_sets, ca, len(a_sets), b_total)
    flush(b_sets, cb, len(b_sets), a_total)
    return out


def _accumulate(parts: Iterable[tuple[list[_RawSet], float, tuple]]) -> tuple[list[_RawSet], float]:
    """Merge ``(raw sets, per-set total, best path)`` parts left to right.

    Returns the merged sets and their per-set total.  A part's best path is
    ``_best_positions`` of its sets; the first part's is not read.
    """
    parts = iter(parts)
    acc, acc_total, _ = next(parts)
    for sets, total, best in parts:
        acc = _merge_pair(acc, acc_total, sets, total, best)
        acc_total += total
    return acc, acc_total


def _fold(nbest: NBestList) -> tuple[list[_RawSet], float]:
    """Raw sets and per-set total of an n-best list, folded by descending weight.

    Each hypothesis is a one-path network whose best path is its labeling.
    """
    entries = sorted(nbest.entries, key=lambda e: (-e[1], e[0].symbols))
    return _accumulate(
        ([_RawSet({s: w}, 0.0, s, w) for s in labeling], w, (labeling.symbols, range(len(labeling))))
        for labeling, w in entries
    )


def build_cn(nbest: NBestList, normalize: bool = True) -> ConfusionNetwork:
    """Fold an n-best list into a confusion network.

    Hypotheses are folded in descending weight order: the top one seeds a
    singleton-set network, each following one is aligned against the current
    best path and accumulated, and per-set normalization runs once at the end
    (skipped when ``normalize`` is false so networks can still be merged).
    """
    sets, total = _fold(nbest)
    if normalize:
        return _normalized(*_flatten_sets(sets))
    return ConfusionNetwork._from_arrays(*_flatten_sets(sets), normalized=False, total_score=total)


def merge_cns(cns: Sequence[ConfusionNetwork]) -> ConfusionNetwork:
    """Merge networks for the same line by aligning their best paths.

    Scores are treated as raw accumulations (each input's total mass weights
    its contribution) and corresponding sets are summed; normalization happens
    once at the very end.
    """
    if not cns:
        raise ValidationError("nothing to merge")
    if any(cn.normalized for cn in cns):
        raise ValidationError("merge expects raw networks; normalization is final")
    parts = [_raw_sets(cn) for cn in cns]
    sets, total = _accumulate(
        (sets, cn.total_score, _best_positions(sets)) for sets, cn in zip(parts, cns)
    )
    raw = ConfusionNetwork._from_arrays(*_flatten_sets(sets), normalized=False, total_score=total)
    return normalize_cn(raw)


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
    totals = np.array(cn.totals())
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

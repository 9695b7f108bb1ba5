"""Confusion networks: ordered confusion sets over transcription variants.

A confusion set maps symbols to scores and reserves extra mass for ``null``,
the explicit skip choice.  Null is not the blank: it removes the set from a
variant entirely rather than emitting anything.  Scores are raw accumulations
until a network is normalized, after which every set is a distribution.

All operations are pure; networks are never mutated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True, eq=True)
class ConfusionNetwork:
    """Ordered confusion sets plus bookkeeping for raw-score networks.

    ``total_score`` is the per-set mass a raw network conserves (the sum of
    folded hypothesis weights); it is 1.0 for normalized networks.  Every set
    must total 1.0 (normalized) or ``total_score`` (raw) to within 1e-6
    relative.
    """

    sets: tuple[ConfusionSet, ...]
    normalized: bool = True
    total_score: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "total_score", float(self.total_score))
        if not 0.0 < self.total_score < math.inf:  # also catches NaN
            raise ValidationError(
                f"total score must be positive and finite, got {self.total_score!r}"
            )
        expected = 1.0 if self.normalized else self.total_score
        for i, s in enumerate(self.sets):
            total = s.total()
            if not abs(total - expected) <= 1e-6 * expected:
                kind = "normalized" if self.normalized else "raw"
                raise ValidationError(
                    f"set {i} of a {kind} network sums to {total!r}, expected {expected!r}"
                )

    __hash__ = None

    def __len__(self) -> int:
        return len(self.sets)


def trivial_cn(labeling: Labeling | Iterable[int], weight: float = 1.0) -> ConfusionNetwork:
    """Singleton-set network representing exactly one labeling."""
    sets = tuple(ConfusionSet({int(s): float(weight)}) for s in labeling)
    return ConfusionNetwork(sets, normalized=(weight == 1.0), total_score=float(weight))


def normalize_cn(cn: ConfusionNetwork) -> ConfusionNetwork:
    return ConfusionNetwork(tuple(s.normalized() for s in cn.sets), normalized=True)


def _best_positions(sets: Sequence[ConfusionSet | _RawSet]) -> tuple[list[int], list[int]]:
    """Best-path symbols and the indices of the sets they come from."""
    symbols: list[int] = []
    positions: list[int] = []
    for i, s in enumerate(sets):
        sym, _ = _best_choice(s.alternatives, s.null)
        if sym is not None:
            symbols.append(sym)
            positions.append(i)
    return symbols, positions


def best_path(cn: ConfusionNetwork) -> Labeling:
    """Most probable variant under per-set independent choices.

    Sets whose best choice is null contribute nothing.
    """
    symbols, _ = _best_positions(cn.sets)
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
    """
    a = list(a)
    b = list(b)
    n, m = len(a), len(b)
    # dist[i][j] = edit distance between a[i:] and b[j:]
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][m] = n - i
    for j in range(m + 1):
        dist[n][j] = m - j
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            sub = dist[i + 1][j + 1] + (a[i] != b[j])
            dist[i][j] = min(sub, dist[i + 1][j] + 1, dist[i][j + 1] + 1)
    ops: list[tuple[str, int, int]] = []
    i = j = 0
    while i < n or j < m:
        here = dist[i][j]
        if i < n and j < m and a[i] == b[j] and here == dist[i + 1][j + 1]:
            ops.append((MATCH, i, j))
            i += 1
            j += 1
        elif i < n and j < m and a[i] != b[j] and here == dist[i + 1][j + 1] + 1:
            ops.append((SUBSTITUTE, i, j))
            i += 1
            j += 1
        elif i < n and here == dist[i + 1][j] + 1:
            ops.append((DELETE, i, -1))
            i += 1
        else:
            ops.append((INSERT, -1, j))
            j += 1
    return ops


class _RawSet:
    """A mutable confusion set that takes ownership of ``alternatives``."""

    __slots__ = ("alternatives", "null")

    def __init__(self, alternatives: dict[int, float], null: float = 0.0):
        self.alternatives = alternatives
        self.null = null

    def freeze(self) -> ConfusionSet:
        return ConfusionSet(self.alternatives, self.null)


def _merge_pair(
    a_sets: list[_RawSet], a_total: float, b_sets: list[_RawSet], b_total: float
) -> list[_RawSet]:
    """Align ``b``'s best path against ``a``'s and sum the paired sets.

    ``a_total`` and ``b_total`` are the per-set masses of the two sides.  A
    set the other side has no counterpart for (skipped by its own best path,
    deleted or inserted) absorbs the other side's total on null, so every
    output set totals ``a_total + b_total``.  The input sets are reused.
    """
    pa, posa = _best_positions(a_sets)
    pb, posb = _best_positions(b_sets)
    ops = levenshtein_align(pa, pb)
    out: list[_RawSet] = []
    ca = cb = 0

    def flush_a(target: int):
        nonlocal ca
        while ca < target:
            s = a_sets[ca]
            s.null += b_total
            out.append(s)
            ca += 1

    def flush_b(target: int):
        nonlocal cb
        while cb < target:
            s = b_sets[cb]
            s.null += a_total
            out.append(s)
            cb += 1

    for kind, i, j in ops:
        if kind == DELETE:
            flush_a(posa[i] + 1)
        elif kind == INSERT:
            flush_b(posb[j] + 1)
        else:  # MATCH or SUBSTITUTE
            flush_a(posa[i])
            flush_b(posb[j])
            sa = a_sets[ca]
            sb = b_sets[cb]
            ca += 1
            cb += 1
            alts = sa.alternatives
            for sym, v in sb.alternatives.items():
                alts[sym] = alts.get(sym, 0.0) + v
            sa.null += sb.null
            out.append(sa)
    flush_a(len(a_sets))
    flush_b(len(b_sets))
    return out


def _accumulate(parts: Iterable[tuple[list[_RawSet], float]]) -> ConfusionNetwork:
    """Merge ``(raw sets, per-set total)`` parts left to right into a raw network."""
    parts = iter(parts)
    acc, acc_total = next(parts)
    for sets, total in parts:
        acc = _merge_pair(acc, acc_total, sets, total)
        acc_total += total
    return ConfusionNetwork(tuple(s.freeze() for s in acc), normalized=False, total_score=acc_total)


def build_cn(nbest: NBestList, normalize: bool = True) -> ConfusionNetwork:
    """Fold an n-best list into a confusion network.

    Hypotheses are folded in descending weight order: the top one seeds a
    singleton-set network, each following one is aligned against the current
    best path and accumulated, and per-set normalization runs once at the end
    (skipped when ``normalize`` is false so networks can still be merged).
    """
    entries = sorted(nbest.entries, key=lambda e: (-e[1], e[0].symbols))
    cn = _accumulate(([_RawSet({s: w}) for s in labeling], w) for labeling, w in entries)
    return normalize_cn(cn) if normalize else cn


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
    parts = (([_RawSet(dict(s.alternatives), s.null) for s in cn.sets], cn.total_score) for cn in cns)
    return normalize_cn(_accumulate(parts))


def smooth(cn: ConfusionNetwork, n: float) -> ConfusionNetwork:
    """Flatten per-set distributions by taking the n-th root and renormalizing.

    n = 1 is the identity, n = inf yields the uniform distribution over the
    choices present (null included when it carries mass).  Composes as
    smooth(smooth(cn, a), b) == smooth(cn, a * b).
    """
    if not n >= 1.0:
        raise ValidationError(f"smoothing exponent must be >= 1, got {n!r}")
    out = []
    for s in cn.sets:
        if math.isinf(n):
            alts = {k: 1.0 for k in s.alternatives}
            null = 1.0 if s.null > 0.0 else 0.0
        else:
            inv = 1.0 / n
            alts = {k: v**inv for k, v in s.alternatives.items()}
            null = s.null**inv
        out.append(ConfusionSet(alts, null).normalized())
    return ConfusionNetwork(tuple(out), normalized=True)


def prune(cn: ConfusionNetwork, cutoff: float = 0.01) -> ConfusionNetwork:
    """Keep only alternatives whose probability exceeds ``cutoff``.

    Null mass is never pruned.  A set whose alternatives all fall at or below
    the cutoff keeps its single best alternative, so no set ever degenerates
    to null alone.  Idempotent: renormalization only raises surviving entries.
    """
    if not 0.0 <= cutoff < 1.0:
        raise ValidationError(f"cutoff must be in [0, 1), got {cutoff!r}")
    out = []
    for s in cn.sets:
        probs = s.normalized()
        kept = {k: v for k, v in probs.alternatives.items() if v > cutoff}
        if not kept:
            sym, score = _best_choice(probs.alternatives, 0.0)
            kept = {sym: score}
        out.append(ConfusionSet(kept, probs.null).normalized())
    return ConfusionNetwork(tuple(out), normalized=True)


def outlier_metric(cn: ConfusionNetwork) -> float:
    """Product of set sizes divided by the number of sets.

    Grows with the number of variants a network encodes; used to rank and
    drop the least reliable lines of a corpus.  An empty network is fully
    determined, so its metric is 0.
    """
    if not cn.sets:
        return 0.0
    try:
        return count_variant_paths(cn) / len(cn.sets)
    except OverflowError:
        return math.inf


def count_variant_paths(cn: ConfusionNetwork) -> int:
    """Exact number of per-set choice combinations (path convention).

    Distinct strings can be fewer: different combinations may collapse to the
    same string once nulls are dropped.  The enumeration oracle reports both.
    """
    product = 1
    for s in cn.sets:
        product *= s.size()
    return product

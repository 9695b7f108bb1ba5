"""Decoding posteriors into labelings, n-best lists, and confusion networks.

The beam search keeps per-prefix blank and non-blank mass (log domain) and
merges paths as soon as they collapse to the same prefix, so hypothesis
weights are accumulated posterior mass and never exceed the true posterior
of the labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confusion import ConfusionNetwork, _flatten, _fold, _normalized
from .types import Labeling, NBestList, PosteriorMatrix, ValidationError, Vocabulary

NEG_INF = float("-inf")


@dataclass(frozen=True)
class DecodeConfig:
    """Beam width, line strategy, and the confidence threshold.

    ``full`` decodes the whole line with one beam search; ``partial`` splits
    the line at confident blanks and only beam-decodes the ambiguous spans.
    """

    beam_size: int = 16
    strategy: str = "partial"
    confidence: float = 0.99

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValidationError("beam size must be at least 1")
        if self.strategy not in ("full", "partial"):
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if not 0.5 <= self.confidence < 1.0:
            raise ValidationError("confidence threshold must be in [0.5, 1)")


@dataclass(frozen=True)
class Segment:
    """Half-open frame range [start, end) and whether it is confident."""

    start: int
    end: int
    confident: bool

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValidationError(f"bad segment bounds [{self.start}, {self.end})")


def greedy_decode(y: PosteriorMatrix, v: Vocabulary) -> Labeling:
    """Best path decode: frame-wise argmax, collapse repeats, drop blanks."""
    path = np.argmax(y.frames, axis=1)
    out: list[int] = []
    prev = -1
    for s in path:
        if s != prev:
            out.append(int(s))
        prev = s
    return Labeling(tuple(s for s in out if s != v.blank))


def _greedy_path_mass(y: np.ndarray) -> float:
    """Probability of the single argmax path; a lower bound on its labeling."""
    return float(np.prod(np.max(y, axis=1)))


def prefix_beam_search(y: PosteriorMatrix, v: Vocabulary, beam_size: int) -> NBestList:
    """Top labelings by accumulated posterior mass.

    Standard prefix search over (blank, non-blank) mass pairs: extending a
    prefix with its own last symbol needs the blank share, repeating it
    without a blank keeps the prefix unchanged.  Returned weights are the
    total collected mass per prefix, sorted descending; ties break on the
    symbol tuple so the output is reproducible.

    Each frame scores the whole (beam, vocabulary) extension grid at once.
    A prefix collects at most two terms per frame (its own stay and the one
    extension of its parent), and logaddexp is commutative bit for bit, so
    the masses equal those of the one-candidate-at-a-time loop kept as
    :func:`softctc.oracle.reference_prefix_beam_search`.
    """
    if beam_size < 1:
        raise ValidationError("beam size must be at least 1")
    with np.errstate(divide="ignore"):
        log_y = np.log(y.frames)
    blank = v.blank
    vocab = log_y.shape[1]

    prefixes: list[tuple[int, ...]] = [()]
    lp_b = np.zeros(1)
    lp_nb = np.full(1, NEG_INF)
    last = np.full(1, -1)  # -1 marks the empty prefix
    for row in log_y:
        width = len(prefixes)
        total = np.logaddexp(lp_b, lp_nb)
        stay_b = total + row[blank]
        # the empty prefix has lp_nb = -inf, so its row[-1] pick stays -inf
        stay_nb = lp_nb + row[last]
        ext = total[:, None] + row[None, :]
        rep = np.flatnonzero(last >= 0)
        ext[rep, last[rep]] = lp_b[rep] + row[last[rep]]

        # NaN marks grid cells that are no candidate of their own: extensions
        # folded into a beam prefix, the blank, and impossible symbols
        index = {p: i for i, p in enumerate(prefixes)}
        for j, p in enumerate(prefixes):
            i = index.get(p[:-1]) if p else None
            if i is not None:  # the extension of p's parent lands on p
                stay_nb[j] = np.logaddexp(stay_nb[j], ext[i, p[-1]])
                ext[i, p[-1]] = np.nan
        ext[:, row == NEG_INF] = np.nan
        ext[:, blank] = np.nan

        # candidate c < width stays prefix c; c >= width extends a prefix by a symbol
        def prefix_of(c: int) -> tuple[int, ...]:
            if c < width:
                return prefixes[c]
            i, k = divmod(c - width, vocab)
            return prefixes[i] + (k,)

        cost = -np.concatenate((np.logaddexp(stay_b, stay_nb), ext.ravel()))
        kth = np.nan
        if beam_size < cost.size:
            # partition sorts NaN last: kth is NaN when the beam holds every candidate
            kth = np.partition(cost, beam_size - 1)[beam_size - 1]
        if np.isnan(kth):
            chosen = np.flatnonzero(~np.isnan(cost)).tolist()
        else:
            chosen = np.flatnonzero(cost < kth).tolist()
            tied = sorted(np.flatnonzero(cost == kth).tolist(), key=prefix_of)
            chosen += tied[: beam_size - len(chosen)]
        prefixes = [prefix_of(c) for c in chosen]
        lp_b = np.concatenate((stay_b, np.full(ext.size, NEG_INF)))[chosen]
        lp_nb = np.concatenate((stay_nb, ext.ravel()))[chosen]
        last = np.concatenate((last, np.arange(ext.size) % vocab))[chosen]

    scored = sorted(
        ((p, float(np.logaddexp(b, nb))) for p, b, nb in zip(prefixes, lp_b, lp_nb)),
        key=lambda kv: (-kv[1], kv[0]),
    )
    entries = [
        (Labeling(p), math.exp(lm)) for p, lm in scored if math.exp(lm) > 0.0
    ]
    if not entries:
        # all mass underflowed; keep the top prefix with a representable weight
        entries = [(Labeling(scored[0][0]), 5e-324)]
    return NBestList(tuple(entries))


def segment_line(y: PosteriorMatrix, v: Vocabulary, threshold: float = 0.99) -> list[Segment]:
    """Partition frames into confident and unconfident segments.

    A frame is a confident blank when the blank exceeds the threshold and
    unconfident when nothing does.  Unconfident segments are the maximal runs
    between confident blanks that contain at least one unconfident frame;
    line boundaries count as confident blanks.  The result covers [0, T)
    without gaps or overlaps.
    """
    frames = y.frames
    total = frames.shape[0]
    conf_blank = frames[:, v.blank] > threshold
    unconfident = frames.max(axis=1) <= threshold

    boundaries = [-1] + [int(t) for t in np.flatnonzero(conf_blank)] + [total]
    marks = np.zeros(total, dtype=bool)  # True marks frames of unconfident segments
    for left, right in zip(boundaries[:-1], boundaries[1:]):
        if right - left > 1 and unconfident[left + 1 : right].any():
            marks[left + 1 : right] = True

    segments: list[Segment] = []
    start = 0
    for t in range(1, total + 1):
        if t == total or marks[t] != marks[start]:
            segments.append(Segment(start, t, confident=not marks[start]))
            start = t
    return segments


def _segment_nbest(part: PosteriorMatrix, v: Vocabulary, beam_size: int) -> NBestList:
    """Beam search a slice, guaranteeing the greedy labeling is represented.

    The beam can prune the greedy prefix mid-line; when that happens the
    greedy labeling is appended with its argmax-path mass, a valid
    under-estimate of its posterior.
    """
    nbest = prefix_beam_search(part, v, beam_size)
    greedy = greedy_decode(part, v)
    if not any(lab.symbols == greedy.symbols for lab, _ in nbest):
        mass = max(_greedy_path_mass(part.frames), 5e-324)
        nbest = NBestList(tuple(nbest.entries) + ((greedy, mass),))
    return nbest


@dataclass(frozen=True)
class DecodedLine:
    """A decoded line: its segments, each segment's n-best list, and the network.

    ``nbests[i]`` belongs to ``segments[i]`` and is exactly what the network
    was built from: unconfident segments carry the beam (greedy fallback
    included), confident ones their greedy labeling with weight 1.
    """

    segments: tuple[Segment, ...]
    nbests: tuple[NBestList, ...]
    network: ConfusionNetwork


def decode_line(
    y: PosteriorMatrix, v: Vocabulary, cfg: DecodeConfig, normalize: bool = True
) -> DecodedLine:
    """Decode a line into per-segment n-best lists and a confusion network.

    Full strategy: one beam search over the line.  Partial strategy: beam
    search only the unconfident segments, transcribe confident ones greedily
    into singleton sets, and concatenate in frame order.  With ``normalize``
    off, the per-set totals of every segment are scaled to the product of the
    segment beam masses, so the raw network conserves one line-level
    confidence score that later merging can weight by.  That product is
    floored at the smallest normal double, so a line whose confidence
    underflows keeps its per-set proportions.
    """
    if cfg.strategy == "full":
        segments = (Segment(0, y.num_frames, confident=False),)
    else:
        segments = tuple(segment_line(y, v, cfg.confidence))
    nbests = []
    for seg in segments:
        part = PosteriorMatrix(y.frames[seg.start : seg.end])
        if seg.confident:
            nbests.append(NBestList(((greedy_decode(part, v), 1.0),)))
        else:
            nbests.append(_segment_nbest(part, v, cfg.beam_size))
    # a confident segment is the one-entry list of weight 1: singleton sets
    folds = [_fold(nbest) for nbest in nbests]
    offsets, symbols, scores, nulls = _flatten([s for sets, _ in folds for s in sets])
    if normalize:
        network = _normalized(offsets, symbols, scores, nulls)
    else:
        masses = [nb.total_weight for seg, nb in zip(segments, nbests) if not seg.confident]
        line_confidence = max(float(np.prod(masses)) if masses else 1.0, np.finfo(float).tiny)
        # each segment's sets total its fold's mass: rescale them per set
        factor = np.repeat([line_confidence / t for _, t in folds], [len(f) for f, _ in folds])
        scores = np.maximum(scores * np.repeat(factor, np.diff(offsets)), 5e-324)
        network = ConfusionNetwork._from_arrays(
            offsets, symbols, scores, nulls * factor, normalized=False, total_score=line_confidence
        )
    return DecodedLine(segments, tuple(nbests), network)


def decode_to_cn(
    y: PosteriorMatrix, v: Vocabulary, cfg: DecodeConfig, normalize: bool = True
) -> ConfusionNetwork:
    """Decode a line into a confusion network; see :func:`decode_line`."""
    return decode_line(y, v, cfg, normalize).network

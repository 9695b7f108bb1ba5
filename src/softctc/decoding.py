"""Decoding posteriors into labelings, n-best lists, and confusion networks.

The beam search keeps per-prefix blank and non-blank mass (log domain) and
merges paths as soon as they collapse to the same prefix, so hypothesis
weights are accumulated posterior mass and never exceed the true posterior
of the labeling.  All unconfident segments of a line are searched as one
batch, in lock step, so the frame loop runs as often as the longest segment
is long.

The search and the n-best fold pass hypotheses as plain (symbols tuple,
weight) pairs.  :func:`decode_line` and :func:`prefix_beam_search` wrap
them into checked ``Labeling`` and ``NBestList`` objects, while
:func:`decode_to_cn` builds none.  The fold aligns each hypothesis with the
network's best path through a cache keyed by the pair's equality pattern
(symbols renumbered by first occurrence across both sides), bounded at
``confusion.FOLD_ALIGN_CACHE`` entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .confusion import ConfusionNetwork, _flatten_sets, _fold, _normalized
from .types import (
    Labeling,
    NBestList,
    PosteriorMatrix,
    ValidationError,
    Vocabulary,
    check_decoder_input,
)

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


# a decoder hypothesis: its symbols and its weight
_Hypothesis = tuple[tuple[int, ...], float]


def _collapse(path: np.ndarray, starts: Sequence[int], blank: int) -> list[tuple[int, ...]]:
    """Greedy symbols of the runs of an argmax ``path`` that begin at ``starts``.

    Each run ends where the next begins, the last at the end of the path.
    Repeats merge within a run, never across a run start; then blanks drop.
    """
    keep = np.empty(path.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(path[1:], path[:-1], out=keep[1:])
    keep[starts] = True
    kept = np.flatnonzero(keep & (path != blank))
    bounds = np.searchsorted(kept, list(starts) + [path.shape[0]]).tolist()
    symbols = path[kept].tolist()
    return [tuple(symbols[a:b]) for a, b in zip(bounds, bounds[1:])]


def greedy_decode(y: PosteriorMatrix, v: Vocabulary) -> Labeling:
    """Best path decode: frame-wise argmax, collapse repeats, drop blanks."""
    return Labeling(_collapse(np.argmax(y.frames, axis=1), [0], v.blank)[0])


class _Trie:
    """Beam prefixes as node ids, shared by every span of a batch.

    Node ``n`` extends ``parent[n]`` by ``symbol[n]``, ``depth[n]`` symbols
    from its root.  ``child`` maps ``n * vocab + k`` to the node of that
    prefix extended by ``k``, so a prefix keeps one node however often it
    leaves and re-enters its beam.  Node 0 is a sentinel: the parent of
    every span's root (its empty prefix) and the node of every padding slot,
    never itself a beam entry.  ``slot[n]`` is the flat grid slot of node
    ``n`` during a frame, else -1.
    """

    def __init__(self, roots: int, vocab: int, capacity: int):
        self.size = 1 + roots
        self.vocab = vocab
        self.child: dict[int, int] = {}
        self.parent, self.symbol, self.depth, self.slot = (
            np.full(capacity, fill, dtype=np.int64) for fill in (0, -1, 0, -1)
        )

    def extend(self, nodes: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """The node of each ``nodes[i]`` extended by ``symbols[i]``; the pairs are distinct."""
        keys = (nodes * self.vocab + symbols).tolist()
        fresh = [i for i, key in enumerate(keys) if key not in self.child]
        if fresh:
            start, stop = self.size, self.size + len(fresh)
            if stop > self.parent.shape[0]:
                pad = max(stop, self.parent.shape[0])  # at least double
                self.parent, self.symbol, self.depth, self.slot = (
                    np.concatenate((a, np.full(pad, fill, dtype=np.int64)))
                    for a, fill in ((self.parent, 0), (self.symbol, -1), (self.depth, 0), (self.slot, -1))
                )
            src = nodes[fresh]
            self.parent[start:stop], self.symbol[start:stop] = src, symbols[fresh]
            self.depth[start:stop] = self.depth[src] + 1
            self.child.update(zip([keys[i] for i in fresh], range(start, stop)))
            self.size = stop
        return np.array([self.child[key] for key in keys], dtype=np.int64)

    def padded_paths(self, nodes: np.ndarray, extra: np.ndarray) -> np.ndarray:
        """Row ``i``: the prefix of ``nodes[i]``, then ``extra[i]``, padded with -1."""
        depth = self.depth[nodes]
        out = np.full((nodes.shape[0], int(depth.max()) + 1), -1, dtype=np.int64)
        out[np.arange(nodes.shape[0]), depth] = extra
        cur = nodes.copy()
        for d in range(out.shape[1] - 2, -1, -1):
            deep = np.flatnonzero(depth > d)
            out[deep, d] = self.symbol[cur[deep]]
            cur[deep] = self.parent[cur[deep]]
        return out

    def prefixes(self, nodes: np.ndarray) -> list[tuple[int, ...]]:
        if not nodes.shape[0]:
            return []
        paths = self.padded_paths(nodes, np.full(nodes.shape[0], -1))
        return [tuple(path[:d]) for path, d in zip(paths.tolist(), self.depth[nodes].tolist())]


def _break_ties(
    cost: np.ndarray, top: np.ndarray, rows: np.ndarray, kth: np.ndarray, node: np.ndarray, trie: _Trie
) -> None:
    """Fill the cut of each of ``rows`` of ``top`` with its smallest tied prefixes.

    In these rows more candidates cost exactly ``kth`` than the beam has
    room for; the smaller symbol tuples win.  ``np.lexsort`` over the -1
    padded symbol paths gives tuple order, as the padding sorts a prefix
    before its extensions.
    """
    width = node.shape[1]
    vocab = (cost.shape[1] - width) // width
    slots = top[rows]
    at_cut = cost[rows[:, None], slots] == kth[:, None]
    room = at_cut.sum(axis=1)
    r, c = np.nonzero(cost[rows] == kth[:, None])
    # one slot's extensions ascend by symbol, so past the row's room they
    # cannot win; the stays of a row share group -1 and all contend
    group = r * (width + 1) + np.maximum(c - width, -1) // vocab
    contender = (np.arange(r.shape[0]) - np.searchsorted(group, group) < room[r]) | (c < width)
    r, c = r[contender], c[contender]
    grows = c >= width
    paths = trie.padded_paths(
        node[rows[r], np.where(grows, (c - width) // vocab, c)],
        np.where(grows, (c - width) % vocab, -1),
    )
    ranked = np.lexsort(tuple(paths.T[::-1]) + (r,))
    r, c = r[ranked], c[ranked]
    slots[at_cut] = c[np.arange(r.shape[0]) - np.searchsorted(r, r) < room[r]]
    top[rows] = slots


def _beam_batch(
    frames: np.ndarray, spans: Sequence[tuple[int, int]], blank: int, beam_size: int
) -> list[list[_Hypothesis]]:
    """:func:`prefix_beam_search` of every frame span ``[start, end)`` of ``frames``, in lock step.

    Frame ``t`` of every span still running is one (spans, slots, vocabulary)
    grid, padded to the widest beam.  Spans run longest first, so the live
    ones are a leading block of rows and a span that has ended is frozen
    where it stands.  Returns one list per span, in the order of ``spans``.
    """
    vocab = frames.shape[1]
    lengths = [end - start for start, end in spans]
    order = sorted(range(len(spans)), key=lambda i: -lengths[i])  # stable
    lengths = [lengths[i] for i in order]
    with np.errstate(divide="ignore"):
        log_y = np.log(frames[np.concatenate([np.arange(*spans[i]) for i in order])])
    starts = np.cumsum([0] + lengths[:-1])
    live_after = [sum(n > t for n in lengths) for t in range(1, lengths[0] + 1)]
    count = len(spans)
    trie = _Trie(count, vocab, 1 + count + sum(lengths) * min(beam_size, vocab))

    # one row per live span; a padding slot is node 0 with NaN masses
    node = np.arange(1, count + 1)[:, None]
    lp_b = np.zeros((count, 1))
    lp_nb = np.full((count, 1), NEG_INF)
    impossible = np.empty((count, vocab), dtype=bool)
    span_rows = np.arange(count)[:, None]
    final: list = [None] * count
    live = count
    # NaN marks padding slots and non-candidates, whose comparisons would warn
    with np.errstate(invalid="ignore"):
        for t in range(lengths[0]):
            row = log_y[starts[:live] + t]
            at = span_rows[:live]
            width = node.shape[1]
            last = trie.symbol[node]  # -1 for the empty prefix and padding
            total = np.logaddexp(lp_b, lp_nb)
            stay_b = total + row[:, blank, None]
            # the empty prefix has lp_nb = -inf, so its row[-1] pick stays -inf
            row_last = row[at, last]
            stay_nb = lp_nb + row_last

            # cost[s, c] is a negated log mass: candidate c < width stays slot c,
            # and c = width + w * vocab + k extends slot w by symbol k
            cost = np.empty((live, width * (1 + vocab)))
            ext = cost[:, width:].reshape(live, width, vocab)
            np.subtract(-total[:, :, None], row[:, None, :], out=ext)
            cells = cost.reshape(-1)
            # flat index in cells of the first extension of each slot
            first_cell = (at * cost.shape[1] + width + np.arange(width) * vocab).ravel()
            rep = np.flatnonzero(last >= 0)
            cells[first_cell[rep] + last.ravel()[rep]] = -(lp_b.ravel()[rep] + row_last.ravel()[rep])

            # the extension of a prefix's parent lands on the prefix: fold it in.
            # A prefix collects at most two terms per frame (its own stay and that
            # one extension), and logaddexp is commutative bit for bit.
            nodes = node.ravel()
            trie.slot[nodes] = np.arange(nodes.shape[0])
            trie.slot[0] = -1
            src = trie.slot[trie.parent[nodes]]
            trie.slot[nodes] = -1
            into = np.flatnonzero(src >= 0)
            cell = first_cell[src[into]] + trie.symbol[nodes[into]]
            stays_nb = stay_nb.reshape(-1)
            stays_nb[into] = np.logaddexp(stays_nb[into], -cells[cell])
            # NaN marks grid cells that are no candidate of their own: extensions
            # folded into a beam prefix, the blank, and impossible symbols
            cells[cell] = np.nan
            np.equal(row, NEG_INF, out=impossible[:live])
            impossible[:live, blank] = True
            np.copyto(ext, np.nan, where=impossible[:live, None, :])
            np.negative(np.logaddexp(stay_b, stay_nb), out=cost[:, :width])

            if beam_size < cost.shape[1]:
                # partition sorts NaN last, so a row with fewer than beam_size
                # candidates keeps them all among its first beam_size columns
                top = np.argpartition(cost, (beam_size - 1, beam_size), axis=1)
                edge = cost[at, top[:, beam_size - 1 : beam_size + 1]]
                top = top[:, :beam_size]
                tied = np.flatnonzero(edge[:, 0] == edge[:, 1])
                if tied.size:
                    _break_ties(cost, top, tied, edge[tied, 0], node, trie)
            else:
                top = np.broadcast_to(np.arange(cost.shape[1]), cost.shape)
            picked = cost[at, top]

            stay = top < width
            w = np.where(stay, top, (top - width) // vocab)
            k = (top - width) % vocab
            new_node = node[at, w]
            lp_b = np.where(stay, stay_b[at, w], NEG_INF)
            lp_nb = np.where(stay, stay_nb[at, w], -picked)
            valid = ~np.isnan(picked)
            grown = valid & ~stay
            new_node[grown] = trie.extend(new_node[grown], k[grown])
            node = new_node
            if not valid.all():
                # pad the missing candidates and move them last
                pad = ~valid
                node[pad], lp_b[pad], lp_nb[pad] = 0, np.nan, np.nan
                keep = np.argsort(pad, axis=1, kind="stable")[:, : int(valid.sum(axis=1).max())]
                node, lp_b, lp_nb = (a[at, keep] for a in (node, lp_b, lp_nb))

            ended, live = live, live_after[t]
            for i in range(live, ended):
                kept = node[i] > 0
                final[order[i]] = (node[i, kept], np.logaddexp(lp_b[i, kept], lp_nb[i, kept]))
            if live < ended:
                node, lp_b, lp_nb = node[:live], lp_b[:live], lp_nb[:live]

    out = []
    # every span's prefixes from one walk of the trie
    prefixes = iter(trie.prefixes(np.concatenate([nodes for nodes, _ in final])))
    for nodes, masses in final:
        scored = sorted(zip(itertools.islice(prefixes, nodes.shape[0]), masses.tolist()),
                        key=lambda kv: (-kv[1], kv[0]))
        # check_decoder_input lets rows sum to 1 + ROW_TOL as rounding, which
        # compounds over the frames: a mass past 1 is read as 1
        weights = [(p, min(math.exp(lm), 1.0)) for p, lm in scored]
        entries = [(p, w) for p, w in weights if w > 0.0]
        # if all mass underflowed, keep the top prefix with a representable weight
        out.append(entries or [(scored[0][0], 5e-324)])
    return out


def prefix_beam_search(y: PosteriorMatrix, v: Vocabulary, beam_size: int) -> NBestList:
    """Top labelings by accumulated posterior mass.

    Standard prefix search over (blank, non-blank) mass pairs: extending a
    prefix with its own last symbol needs the blank share, repeating it
    without a blank keeps the prefix unchanged.  Returned weights are the
    total collected mass per prefix, sorted descending; ties break on the
    symbol tuple so the output is reproducible.  ``y`` must have one finite,
    nonnegative column per symbol of ``v``, and its rows may sum below one
    but not above (:func:`softctc.types.check_decoder_input`).

    This is a batch of one of the lock-step search :func:`decode_line` runs
    over all unconfident segments of a line.  Each frame scores the whole
    (segment, beam, vocabulary) extension grid at once, and every segment
    keeps its top ``beam_size`` candidates through one ``np.argpartition``
    along the grid's rows.  Prefixes are nodes of a trie (parent, symbol),
    so whether the extension of a prefix's parent lands on the prefix is an
    index lookup.  Candidates tied at the cut are ranked by ``np.lexsort``
    over their symbol paths padded with -1, which is the order of the symbol
    tuples.  The result equals the one-candidate-at-a-time loop kept as
    :func:`softctc.oracle.reference_prefix_beam_search`.
    """
    if beam_size < 1:
        raise ValidationError("beam size must be at least 1")
    check_decoder_input(y, v)
    return _nbest_list(_beam_batch(y.frames, [(0, y.num_frames)], v.blank, beam_size)[0])


def _nbest_list(hypotheses: list[_Hypothesis]) -> NBestList:
    return NBestList(tuple((Labeling(symbols), weight) for symbols, weight in hypotheses))


def segment_line(y: PosteriorMatrix, v: Vocabulary, threshold: float = 0.99) -> list[Segment]:
    """Partition frames into confident and unconfident segments.

    A frame is a confident blank when the blank exceeds the threshold and
    unconfident when nothing does.  Unconfident segments are the maximal runs
    between confident blanks that contain at least one unconfident frame;
    line boundaries count as confident blanks.  The result covers [0, T)
    without gaps or overlaps.
    """
    frames = y.frames
    conf_blank = frames[:, v.blank] > threshold
    unconfident = frames.max(axis=1) <= threshold
    # a confident blank opens a run that lasts up to the next one
    run = np.cumsum(conf_blank)
    doubtful = np.bincount(run[unconfident], minlength=int(run[-1]) + 1) > 0
    marks = doubtful[run] & ~conf_blank  # True marks frames of unconfident segments
    bounds = [0] + (np.flatnonzero(marks[1:] != marks[:-1]) + 1).tolist() + [frames.shape[0]]
    return [
        Segment(a, b, confident=not marks[a]) for a, b in zip(bounds, bounds[1:])
    ]


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
    search only the unconfident segments, all of them as one lock-step batch
    (see :func:`prefix_beam_search`), transcribe confident ones greedily into
    singleton sets, and concatenate in frame order.  Where the beam pruned a
    segment's greedy labeling, it is appended to that segment's list with
    its argmax-path mass.  ``y`` is checked once per call
    (:func:`softctc.types.check_decoder_input`); rows need not sum to one,
    but none may sum above it.

    With ``normalize`` off, the per-set totals of every segment are scaled to
    the product of the segment beam masses, so the raw network conserves one
    line-level confidence score that later merging can weight by.  That
    product is floored at the smallest normal double, so a line whose
    confidence underflows keeps its per-set proportions.
    """
    segments, hypotheses, network = _decode(y, v, cfg, normalize)
    return DecodedLine(segments, tuple(map(_nbest_list, hypotheses)), network)


def decode_to_cn(
    y: PosteriorMatrix, v: Vocabulary, cfg: DecodeConfig, normalize: bool = True
) -> ConfusionNetwork:
    """Decode a line into a confusion network; see :func:`decode_line`.

    The same decode, without building the n-best lists as objects.
    """
    return _decode(y, v, cfg, normalize)[2]


def _decode(
    y: PosteriorMatrix, v: Vocabulary, cfg: DecodeConfig, normalize: bool
) -> tuple[tuple[Segment, ...], list[list[_Hypothesis]], ConfusionNetwork]:
    """:func:`decode_line` on plain hypotheses: segments, each one's hypotheses, network."""
    check_decoder_input(y, v)
    frames = y.frames
    if cfg.strategy == "full":
        segments = (Segment(0, y.num_frames, confident=False),)
    else:
        segments = tuple(segment_line(y, v, cfg.confidence))
    greedy = _collapse(np.argmax(frames, axis=1), [seg.start for seg in segments], v.blank)
    hypotheses = [[(symbols, 1.0)] for symbols in greedy]
    doubtful = [i for i, seg in enumerate(segments) if not seg.confident]
    spans = [(segments[i].start, segments[i].end) for i in doubtful]
    for i, beam in zip(doubtful, _beam_batch(frames, spans, v.blank, cfg.beam_size) if spans else []):
        if not any(symbols == greedy[i] for symbols, _ in beam):
            # the beam pruned the greedy labeling mid-segment: list it with its
            # argmax-path mass, a valid under-estimate of its posterior
            peak = np.max(frames[segments[i].start : segments[i].end], axis=1)
            beam.append((greedy[i], min(max(float(np.prod(peak)), 5e-324), 1.0)))
        hypotheses[i] = beam
    # a confident segment is the one-entry list of weight 1: singleton sets
    folds = [_fold(h) for h in hypotheses]
    offsets, symbols, scores, nulls = _flatten_sets([s for sets, _ in folds for s in sets])
    if normalize:
        network = _normalized(offsets, symbols, scores, nulls)
    else:
        masses = [sum(w for _, w in h) for seg, h in zip(segments, hypotheses) if not seg.confident]
        line_confidence = max(float(np.prod(masses)) if masses else 1.0, np.finfo(float).tiny)
        # each segment's sets total its fold's mass: rescale them per set
        factor = np.repeat([line_confidence / t for _, t in folds], [len(f) for f, _ in folds])
        scores = np.maximum(scores * np.repeat(factor, np.diff(offsets)), 5e-324)
        network = ConfusionNetwork._from_arrays(
            offsets, symbols, scores, nulls * factor, normalized=False, total_score=line_confidence
        )
    return segments, hypotheses, network

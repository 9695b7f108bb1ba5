import math
import warnings

import numpy as np
import pytest

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    DecodeConfig,
    Labeling,
    NBestList,
    NegativeEntry,
    NonFiniteEntry,
    PosteriorMatrix,
    RowNotNormalized,
    Segment,
    ShapeMismatch,
    ValidationError,
    Vocabulary,
    compile_cn,
    ctc_loss,
    decode_line,
    decode_to_cn,
    greedy_decode,
    merge_cns,
    normalize_cn,
    prefix_beam_search,
    prune,
    segment_line,
    smooth,
    soft_ctc_loss,
    validate_posteriors,
)
from softctc import decoding
from softctc.confusion import _pattern_align
from softctc.decoding import _beam_batch, _nbest_list
from softctc.oracle import oracle_softctc, reference_build_cn, reference_prefix_beam_search

VA = Vocabulary.from_characters("a")  # a=0, blank=1
VAB = Vocabulary.from_characters("ab")  # a=0, b=1, blank=2


def rand_posteriors(rng, frames, vocab=3):
    y = rng.uniform(0.05, 1.0, size=(frames, vocab))
    return PosteriorMatrix(y / y.sum(axis=1, keepdims=True))


def row(vocab_size, **mass):
    """One posterior frame; leftover probability goes to the blank."""
    r = np.zeros(vocab_size)
    for k, p in mass.items():
        r[int(k)] = p
    r[vocab_size - 1] = 1.0 - r[: vocab_size - 1].sum()
    return r


class TestGreedyDecode:
    def test_collapses_repeats_and_drops_blanks(self):
        y = PosteriorMatrix(
            np.array(
                [
                    row(3, **{"0": 0.9}),
                    row(3, **{"0": 0.9}),
                    row(3),
                    row(3, **{"0": 0.9}),
                    row(3, **{"1": 0.9}),
                ]
            )
        )
        assert greedy_decode(y, VAB).symbols == (0, 0, 1)

    def test_all_blank_gives_empty_labeling(self):
        y = PosteriorMatrix(np.tile(row(3), (4, 1)))
        assert greedy_decode(y, VAB).symbols == ()


class TestPrefixBeamSearch:
    def test_two_frame_hand_value(self):
        # paths aa, a#, #a collapse to "a": 0.3 + 0.3 + 0.2
        y = PosteriorMatrix(np.array([[0.6, 0.4], [0.5, 0.5]]))
        nbest = prefix_beam_search(y, VA, beam_size=4)
        got = {lab.symbols: w for lab, w in nbest}
        assert got[(0,)] == pytest.approx(0.8, rel=1e-12)
        assert got[()] == pytest.approx(0.2, rel=1e-12)
        assert nbest.entries[0][0].symbols == (0,)

    def test_beam_one_tracks_the_peaked_labeling(self):
        y = PosteriorMatrix(
            np.array([row(3, **{"0": 0.95}), row(3), row(3, **{"1": 0.95})])
        )
        nbest = prefix_beam_search(y, VAB, beam_size=1)
        assert len(nbest.entries) == 1
        assert nbest.entries[0][0].symbols == greedy_decode(y, VAB).symbols

    def test_weights_sorted_descending(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            y = rand_posteriors(rng, int(rng.integers(1, 6)))
            nbest = prefix_beam_search(y, VAB, int(rng.integers(1, 9)))
            weights = [w for _, w in nbest]
            assert weights == sorted(weights, reverse=True)

    def test_unpruned_weights_equal_exact_posteriors(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            y = rand_posteriors(rng, int(rng.integers(1, 6)))
            nbest = prefix_beam_search(y, VAB, beam_size=10_000)
            assert nbest.total_weight == pytest.approx(1.0, rel=1e-9)
            for lab, w in nbest:
                exact = ctc_loss(y, lab, VAB)
                assert w == pytest.approx(math.exp(-exact.loss), rel=1e-9)

    def test_pruned_weights_never_exceed_true_posterior(self):
        rng = np.random.default_rng(79)
        for _ in range(15):
            y = rand_posteriors(rng, int(rng.integers(2, 6)))
            nbest = prefix_beam_search(y, VAB, beam_size=2)
            for lab, w in nbest:
                exact = ctc_loss(y, lab, VAB)
                assert w <= math.exp(-exact.loss) + 1e-9

    def test_rejects_bad_beam_size(self):
        y = PosteriorMatrix(np.tile(row(3), (2, 1)))
        with pytest.raises(ValidationError):
            prefix_beam_search(y, VAB, 0)

    @pytest.mark.parametrize("size", [2.5, 3.0, True, np.float64(2.0), "4", None])
    def test_rejects_a_beam_size_that_is_not_an_integer(self, size):
        # a float used to fail deep in the search with numpy's TypeError, and
        # True ran as a beam of one
        y = PosteriorMatrix(np.tile(row(3, **{"0": 0.4, "1": 0.3}), (3, 1)))
        with pytest.raises(ValidationError, match="beam size must be an integer"):
            prefix_beam_search(y, VAB, size)
        with pytest.raises(ValidationError, match="beam size must be an integer"):
            DecodeConfig(beam_size=size)

    @pytest.mark.parametrize("size", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_beam_sizes_decode_like_ints(self, size):
        y = rand_posteriors(np.random.default_rng(61), 6)
        assert prefix_beam_search(y, VAB, size) == prefix_beam_search(y, VAB, 3)
        cfg = DecodeConfig(beam_size=size)
        assert decode_to_cn(y, VAB, cfg) == decode_to_cn(y, VAB, DecodeConfig(beam_size=3))


def beam_instances(rng, count):
    """Random (posteriors, vocabulary, beam) triples for the reference check.

    Cycles through plain random rows, rows with exact zeros, uniform rows
    (every candidate ties, so only the symbol-tuple order decides), long runs
    of one symbol, and unbounded beams (short lines, since the beam then holds
    every prefix).  The blank sits at a random index; the other beams range
    from 1 to 8.
    """
    for n in range(count):
        kind = n % 5
        vocab = int(rng.integers(2, 5 if kind == 4 else 7))
        frames = int(rng.integers(1, 7 if kind == 4 else 13))
        if kind == 2:
            y = np.full((frames, vocab), 1.0 / vocab)
        elif kind == 3:
            y = np.full((frames, vocab), 0.02)
            y[:, int(rng.integers(0, vocab))] = 1.0
            y[rng.random(frames) < 0.2] = 1.0
        else:
            y = rng.dirichlet(np.full(vocab, 0.5), size=frames)
        if kind == 1:
            y[rng.random(y.shape) < 0.3] = 0.0
            y[y.sum(axis=1) == 0.0, int(rng.integers(0, vocab))] = 1.0
        y = y / y.sum(axis=1, keepdims=True)
        beam = 10_000 if kind == 4 else int(rng.choice([1, 2, 3, 5, 8]))
        v = Vocabulary(tuple(str(k) for k in range(vocab)), int(rng.integers(0, vocab)))
        yield PosteriorMatrix(y), v, beam


def assert_same_nbest(got: NBestList, want: NBestList):
    assert [lab.symbols for lab, _ in got] == [lab.symbols for lab, _ in want]
    for (_, w_got), (_, w_want) in zip(got, want):
        assert w_got == pytest.approx(w_want, rel=1e-12, abs=0.0)


class TestAgainstReferenceBeamSearch:
    def test_random_instances(self):
        rng = np.random.default_rng(101)
        for y, v, beam in beam_instances(rng, 400):
            assert_same_nbest(
                prefix_beam_search(y, v, beam), reference_prefix_beam_search(y, v, beam)
            )

    def test_wide_vocabulary_ranks_many_candidates(self):
        rng = np.random.default_rng(103)
        v = Vocabulary(tuple(str(k) for k in range(40)), 39)
        for _ in range(3):
            y = PosteriorMatrix(rng.dirichlet(np.full(40, 0.2), size=30))
            assert_same_nbest(
                prefix_beam_search(y, v, 16), reference_prefix_beam_search(y, v, 16)
            )

    def test_underflowed_line_keeps_the_top_prefix(self):
        rng = np.random.default_rng(107)
        v = Vocabulary(tuple(str(k) for k in range(6)), 5)
        y = PosteriorMatrix(rng.dirichlet(np.ones(6), size=1000))
        nbest = prefix_beam_search(y, v, 3)
        assert [w for _, w in nbest] == [5e-324]
        assert_same_nbest(nbest, reference_prefix_beam_search(y, v, 3))


def beam_batches(rng, count):
    """Random (posteriors, spans, vocabulary, beam) batches for the lock-step search.

    Each batch shares one vocabulary (2 to 7 symbols, blank at a random
    index) and one beam (1, 2, 3, 5, 8, or unbounded, which keeps spans
    short).  Its 1-6 spans of 1-12 frames each mix plain random rows, rows
    with exact zeros, uniform rows (every candidate ties) and long runs of
    one symbol.  Every tenth batch (6 or 7 symbols, beam 1-3) adds a
    1000-frame span whose mass underflows, so it takes the 5e-324 fallback.
    """
    for n in range(count):
        long_span = n % 10 == 0
        beam = int(rng.choice([1, 2, 3] if long_span else [1, 2, 3, 5, 8, 10_000]))
        vocab = int(rng.integers(6 if long_span else 2, 5 if beam == 10_000 else 8))
        blocks = []
        for _ in range(int(rng.integers(1, 7))):
            frames = int(rng.integers(1, 6 if beam == 10_000 else 13))
            kind = int(rng.integers(0, 4))
            if kind == 2:
                y = np.full((frames, vocab), 1.0 / vocab)
            elif kind == 3:
                y = np.full((frames, vocab), 0.02)
                y[:, int(rng.integers(0, vocab))] = 1.0
            else:
                y = rng.dirichlet(np.full(vocab, 0.5), size=frames)
            if kind == 1:
                y[rng.random(y.shape) < 0.3] = 0.0
                y[y.sum(axis=1) == 0.0, int(rng.integers(0, vocab))] = 1.0
            blocks.append(y / y.sum(axis=1, keepdims=True))
        if long_span:
            blocks.insert(int(rng.integers(0, len(blocks) + 1)), rng.dirichlet(np.ones(vocab), size=1000))
        bounds = np.cumsum([0] + [b.shape[0] for b in blocks]).tolist()
        v = Vocabulary(tuple(str(k) for k in range(vocab)), int(rng.integers(0, vocab)))
        yield np.concatenate(blocks), list(zip(bounds, bounds[1:])), v, beam


class TestBatchedBeamSearch:
    def test_every_span_matches_the_reference_and_its_batch_of_one(self):
        rng = np.random.default_rng(109)
        underflowed = 0
        for frames, spans, v, beam in beam_batches(rng, 120):
            got = _beam_batch(frames, spans, v.blank, beam)
            assert len(got) == len(spans)
            for (start, end), hypotheses in zip(spans, got):
                nbest = _nbest_list(hypotheses)
                part = PosteriorMatrix(frames[start:end])
                if end - start < 1000:
                    assert_same_nbest(nbest, reference_prefix_beam_search(part, v, beam))
                else:
                    assert [w for _, w in nbest] == [5e-324]
                    underflowed += 1
                assert nbest == prefix_beam_search(part, v, beam)
        assert underflowed == 12

    def test_the_underflowing_span_matches_the_reference_in_a_batch(self):
        rng = np.random.default_rng(113)
        v = Vocabulary(tuple(str(k) for k in range(6)), 5)
        frames = np.concatenate(
            [rng.dirichlet(np.ones(6), size=4), rng.dirichlet(np.ones(6), size=1000), np.full((3, 6), 1 / 6)]
        )
        spans = [(0, 4), (4, 1004), (1004, 1007)]
        for (start, end), hypotheses in zip(spans, _beam_batch(frames, spans, v.blank, 3)):
            assert_same_nbest(
                _nbest_list(hypotheses), reference_prefix_beam_search(PosteriorMatrix(frames[start:end]), v, 3)
            )

    def test_decode_line_runs_one_selection_per_frame_of_its_longest_segment(self, monkeypatch):
        # three unconfident segments of 3, 5 and 2 frames between confident blanks
        blank = row(3)
        doubt = row(3, **{"0": 0.5, "1": 0.45})
        y = PosteriorMatrix(
            np.array([blank] + [doubt] * 3 + [blank] + [doubt] * 5 + [blank] + [doubt] * 2 + [blank])
        )
        lengths = [s.end - s.start for s in segment_line(y, VAB) if not s.confident]
        assert lengths == [3, 5, 2]
        calls = []
        for name in ("partition", "argpartition"):
            original = getattr(np, name)
            monkeypatch.setattr(
                np, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
            )
        decode_line(y, VAB, DecodeConfig(beam_size=1))
        # a per-segment loop would make one selection per frame of every segment
        assert 1 <= len(calls) <= max(lengths)


class TestSegmentLine:
    def test_all_confident_blanks_give_one_confident_segment(self):
        y = PosteriorMatrix(np.tile(row(3), (5, 1)))
        assert segment_line(y, VAB) == [Segment(0, 5, confident=True)]

    def test_confident_letters_fold_into_an_ambiguous_span(self):
        # confident blank at 0 and 5, confident letter at 1, unconfident 2-4:
        # the whole span between the blanks turns unconfident
        y = PosteriorMatrix(
            np.array(
                [
                    row(3),
                    row(3, **{"0": 0.995}),
                    row(3, **{"0": 0.5, "1": 0.45}),
                    row(3, **{"0": 0.5, "1": 0.45}),
                    row(3, **{"0": 0.5, "1": 0.45}),
                    row(3),
                ]
            )
        )
        assert segment_line(y, VAB) == [
            Segment(0, 1, confident=True),
            Segment(1, 5, confident=False),
            Segment(5, 6, confident=True),
        ]

    def test_confident_letter_span_without_doubt_stays_confident(self):
        y = PosteriorMatrix(
            np.array([row(3), row(3, **{"0": 0.995}), row(3, **{"0": 0.995}), row(3)])
        )
        assert segment_line(y, VAB) == [Segment(0, 4, confident=True)]

    def test_unconfident_first_frame(self):
        y = PosteriorMatrix(
            np.array([row(3, **{"0": 0.5, "1": 0.45}), row(3), row(3)])
        )
        assert segment_line(y, VAB) == [
            Segment(0, 1, confident=False),
            Segment(1, 3, confident=True),
        ]

    def test_all_unconfident_is_one_segment(self):
        y = PosteriorMatrix(np.tile(row(3, **{"0": 0.5, "1": 0.45}), (4, 1)))
        assert segment_line(y, VAB) == [Segment(0, 4, confident=False)]

    def test_threshold_is_strict(self):
        # blank exactly at the threshold is not a confident separator
        y = PosteriorMatrix(
            np.array([row(3, **{"0": 0.5, "1": 0.45}), row(3, **{"2": 0.0})])
        )
        y_frames = y.frames.copy()
        y_frames[1] = [0.005, 0.005, 0.99]
        y = PosteriorMatrix(y_frames)
        assert segment_line(y, VAB, threshold=0.99) == [
            Segment(0, 2, confident=False)
        ]

    @pytest.mark.parametrize("threshold", [float("nan"), 0.49, 1.0, 1.5, -0.2])
    def test_rejects_the_thresholds_decode_config_rejects(self, threshold):
        # NaN used to pass: every comparison with it is False, so each line
        # came back as one confident segment and skipped the beam
        y = PosteriorMatrix(np.tile(row(3, **{"0": 0.5, "1": 0.45}), (4, 1)))
        with pytest.raises(ValidationError, match=r"confidence threshold must be in \[0.5, 1\)"):
            segment_line(y, VAB, threshold)
        with pytest.raises(ValidationError, match=r"confidence threshold must be in \[0.5, 1\)"):
            DecodeConfig(confidence=threshold)

    def test_segments_partition_the_line(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            total = int(rng.integers(1, 20))
            y = rng.dirichlet(np.full(3, 0.3), size=total)
            segs = segment_line(PosteriorMatrix(y), VAB)
            assert segs[0].start == 0
            assert segs[-1].end == total
            for left, right in zip(segs[:-1], segs[1:]):
                assert left.end == right.start
                assert left.confident != right.confident

    def test_segment_rejects_bad_bounds(self):
        with pytest.raises(ValidationError):
            Segment(3, 3, confident=True)


def recoverable(cn: ConfusionNetwork, symbols: tuple[int, ...]) -> bool:
    """True when the symbol sequence can be spelled by the network."""

    def walk(i: int, j: int) -> bool:
        if i == len(cn.sets):
            return j == len(symbols)
        s = cn.sets[i]
        if j < len(symbols) and symbols[j] in s.alternatives:
            if walk(i + 1, j + 1):
                return True
        return s.null > 0.0 and walk(i + 1, j)

    return walk(0, 0)


AMBIGUOUS_LINE = np.array(
    [
        [0.0025, 0.0025, 0.995],
        [0.995, 0.0025, 0.0025],
        [0.0025, 0.0025, 0.995],
        [0.5, 0.5, 0.0],
        [0.0025, 0.0025, 0.995],
    ]
)


class TestDecodeToCn:
    def test_fully_confident_line_is_singletons_of_the_greedy_text(self):
        y = PosteriorMatrix(
            np.array(
                [
                    row(3),
                    row(3, **{"0": 0.995}),
                    row(3),
                    row(3, **{"1": 0.995}),
                    row(3),
                ]
            )
        )
        cn = decode_to_cn(y, VAB, DecodeConfig())
        assert cn.normalized
        assert [s.alternatives for s in cn.sets] == [{0: 1.0}, {1: 1.0}]
        assert all(s.null == 0.0 for s in cn.sets)

    def test_single_ambiguous_frame_gives_one_two_way_set(self):
        y = PosteriorMatrix(AMBIGUOUS_LINE)
        cn = decode_to_cn(y, VAB, DecodeConfig())
        assert len(cn.sets) == 2
        assert cn.sets[0].alternatives == {0: 1.0}
        assert cn.sets[1].alternatives == {0: 0.5, 1: 0.5}
        assert cn.sets[1].null == 0.0

    def test_singletons_outside_the_ambiguous_span(self):
        y = PosteriorMatrix(
            np.array(
                [
                    row(3, **{"0": 0.995}),
                    row(3),
                    row(3, **{"0": 0.5, "1": 0.45}),
                    row(3, **{"0": 0.45, "1": 0.5}),
                    row(3),
                    row(3, **{"1": 0.995}),
                ]
            )
        )
        cn = decode_to_cn(y, VAB, DecodeConfig())
        segs = segment_line(y, VAB)
        assert [s.confident for s in segs] == [True, False, True]
        # first and last sets come from the confident spans
        assert cn.sets[0].size() == 1 and cn.sets[0].null == 0.0
        assert cn.sets[-1].size() == 1 and cn.sets[-1].null == 0.0

    def test_greedy_text_is_always_representable(self):
        rng = np.random.default_rng(89)
        for strategy in ("full", "partial"):
            for _ in range(25):
                y = rand_posteriors(rng, int(rng.integers(2, 9)))
                cfg = DecodeConfig(beam_size=3, strategy=strategy)
                cn = decode_to_cn(y, VAB, cfg)
                if strategy == "full":
                    assert recoverable(cn, greedy_decode(y, VAB).symbols)
                else:
                    for seg in segment_line(y, VAB, cfg.confidence):
                        part = PosteriorMatrix(y.frames[seg.start : seg.end])
                        assert recoverable(
                            cn, greedy_decode(part, VAB).symbols
                        ) or not seg.confident

    def test_normalized_sets_each_total_one(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            y = rand_posteriors(rng, int(rng.integers(2, 9)))
            cn = decode_to_cn(y, VAB, DecodeConfig(beam_size=4))
            for s in cn.sets:
                assert s.total() == pytest.approx(1.0, rel=1e-9)

    def test_raw_mode_carries_the_beam_mass(self):
        y = PosteriorMatrix(AMBIGUOUS_LINE.copy())
        frames = y.frames.copy()
        frames[3] = [0.495, 0.495, 0.01]
        y = PosteriorMatrix(frames)
        cfg = DecodeConfig(beam_size=2)
        cn = decode_to_cn(y, VAB, cfg, normalize=False)
        assert not cn.normalized
        # beam of 2 keeps "a" and "b", dropping the blank-only path
        assert cn.total_score == pytest.approx(0.99, rel=1e-9)
        for s in cn.sets:
            assert s.total() == pytest.approx(cn.total_score, rel=1e-9)

    def test_raw_decode_survives_an_underflowing_line_confidence(self):
        # 200 ambiguous bursts: the product of their beam masses underflows
        v = Vocabulary.from_characters("abcdefghij")
        rng = np.random.default_rng(11)
        blank = np.eye(11)[v.blank]
        rows = [blank]
        for _ in range(200):
            rows.extend(rng.dirichlet(np.ones(11), size=5))
            rows.append(blank)
        y = PosteriorMatrix(np.array(rows))
        cfg = DecodeConfig(beam_size=4)
        raw = decode_to_cn(y, v, cfg, normalize=False)
        ref = decode_to_cn(y, v, cfg)
        assert raw.total_score == np.finfo(float).tiny
        got = normalize_cn(raw)
        assert len(got) == len(ref)
        for g, r in zip(got.sets, ref.sets):
            assert g.alternatives == pytest.approx(r.alternatives, rel=0, abs=1e-6)
            assert g.null == pytest.approx(r.null, rel=0, abs=1e-6)

    def test_full_strategy_spans_whole_line(self):
        y = PosteriorMatrix(AMBIGUOUS_LINE)
        cn = decode_to_cn(y, VAB, DecodeConfig(strategy="full"))
        assert recoverable(cn, greedy_decode(y, VAB).symbols)
        for s in cn.sets:
            assert s.total() == pytest.approx(1.0, rel=1e-9)


# argmax path b, a collapses to "ba"; a beam of one keeps only "b"
GREEDY_PRUNED_LINE = np.array([[0.1, 0.7, 0.2], [0.5, 0.3, 0.2]])


class TestDecodeLine:
    def test_each_segment_carries_its_source_nbest(self):
        y = PosteriorMatrix(AMBIGUOUS_LINE)
        decoded = decode_line(y, VAB, DecodeConfig())
        assert decoded.segments == tuple(segment_line(y, VAB))
        for seg, nbest in zip(decoded.segments, decoded.nbests):
            part = PosteriorMatrix(y.frames[seg.start : seg.end])
            if seg.confident:
                assert nbest.entries == ((greedy_decode(part, VAB), 1.0),)
            else:
                assert nbest == prefix_beam_search(part, VAB, 16)

    def test_seeded_segments_carry_their_own_greedy_and_beam(self):
        rng = np.random.default_rng(131)
        for _ in range(40):
            y = PosteriorMatrix(rng.dirichlet(np.full(3, 0.15), size=int(rng.integers(2, 30))))
            decoded = decode_line(y, VAB, DecodeConfig(beam_size=2, confidence=0.9))
            for seg, nbest in zip(decoded.segments, decoded.nbests):
                part = PosteriorMatrix(y.frames[seg.start : seg.end])
                greedy = greedy_decode(part, VAB)
                if seg.confident:
                    assert nbest.entries == ((greedy, 1.0),)
                else:
                    beam = prefix_beam_search(part, VAB, 2)
                    assert nbest.entries[: len(beam)] == beam.entries
                    assert greedy in [lab for lab, _ in nbest]

    def test_pruned_greedy_labeling_is_listed_with_its_path_mass(self):
        y = PosteriorMatrix(GREEDY_PRUNED_LINE)
        decoded = decode_line(y, VAB, DecodeConfig(beam_size=1, strategy="full"))
        assert decoded.segments == (Segment(0, 2, confident=False),)
        (top, _), (greedy, mass) = decoded.nbests[0].entries
        assert top.symbols == (1,)
        assert greedy.symbols == (1, 0)
        assert mass == pytest.approx(0.7 * 0.5, rel=1e-12)


class TestBadPosteriors:
    """The decoder checks its input once per call, with the texts of
    validate_posteriors; rows need not sum to one, but none may sum above it."""

    V4 = Vocabulary.from_characters("abc")  # a, b, c, blank

    @staticmethod
    def good():
        return np.tile([0.1, 0.2, 0.3, 0.4], (3, 1))

    def bad_inputs(self):
        nan_row, negative_row, lone_nan = self.good(), self.good(), self.good()
        nan_row[1] = np.nan
        negative_row[2] = [-0.1, 0.5, 0.3, 0.3]
        lone_nan[0, 2] = np.nan
        return [
            (nan_row, NonFiniteEntry),
            (negative_row, NegativeEntry),
            (self.good()[:, :3], ShapeMismatch),
            (lone_nan, NonFiniteEntry),
            (np.tile([0.1, 0.2, 0.3, 0.2, 0.2], (3, 1)), ShapeMismatch),
        ]

    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("strategy", ["full", "partial"])
    def test_decode_line_raises_the_validation_error(self, case, strategy):
        y, error = self.bad_inputs()[case]
        m = PosteriorMatrix(y)
        with pytest.raises(error) as want:
            validate_posteriors(m, self.V4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as got:
                decode_line(m, self.V4, DecodeConfig(beam_size=2, strategy=strategy))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("case", range(5))
    def test_prefix_beam_search_raises_the_validation_error(self, case):
        y, error = self.bad_inputs()[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                prefix_beam_search(PosteriorMatrix(y), self.V4, 2)

    @pytest.mark.parametrize("strategy", ["full", "partial"])
    def test_rows_above_one_raise_the_row_error(self, strategy):
        # a beam over rows summing to 2 collects a weight above 1; the
        # decoder names the input, not its own n-best list
        y = self.good() * 2
        cfg = DecodeConfig(beam_size=2, strategy=strategy)
        with pytest.raises(RowNotNormalized) as got:
            decode_line(PosteriorMatrix(y), self.V4, cfg)
        assert str(got.value) == "frame 0 sums to 2.0, expected 1"
        assert (got.value.t, got.value.total) == (0, 2.0)
        # rows below one pass; the first row above one is named
        y[0] *= 0.25
        with pytest.raises(RowNotNormalized) as got:
            decode_line(PosteriorMatrix(y), self.V4, cfg)
        assert got.value.t == 1
        with pytest.raises(RowNotNormalized) as want:
            validate_posteriors(PosteriorMatrix(y), self.V4)
        assert want.value.t == 0  # the validator keeps its own frame order

    @pytest.mark.parametrize("case", range(6))
    @pytest.mark.parametrize("decode", [greedy_decode, segment_line])
    def test_greedy_decode_and_segment_line_raise_what_decode_to_cn_raises(self, decode, case):
        y, error = (self.bad_inputs() + [(self.good() * 2, RowNotNormalized)])[case]
        m = PosteriorMatrix(y)
        with pytest.raises(error) as want:
            decode_to_cn(m, self.V4, DecodeConfig(beam_size=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as got:
                decode(m, self.V4)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("strategy", ["full", "partial"])
    def test_a_decode_checks_its_input_once(self, strategy, monkeypatch):
        checked = []
        monkeypatch.setattr(decoding, "check_decoder_input", lambda *args: checked.append(args))
        cfg = DecodeConfig(beam_size=2, strategy=strategy)
        decode_to_cn(PosteriorMatrix(self.good()), self.V4, cfg)
        decode_line(PosteriorMatrix(self.good()), self.V4, cfg)
        assert len(checked) == 2

    def test_prefix_beam_search_raises_on_rows_above_one(self):
        with pytest.raises(RowNotNormalized) as got:
            prefix_beam_search(PosteriorMatrix(self.good() * 2), self.V4, 2)
        assert str(got.value) == "frame 0 sums to 2.0, expected 1"

    @pytest.mark.parametrize("strategy", ["full", "partial"])
    def test_rows_within_the_tolerance_above_one_decode(self, strategy):
        y = self.good()
        y[1] *= 1.0 + 1e-9
        assert y[1].sum() > 1.0
        decoded = decode_line(PosteriorMatrix(y), self.V4, DecodeConfig(beam_size=2, strategy=strategy))
        assert decoded.nbests[0].entries[0][0].symbols == (2,)

    @pytest.mark.parametrize("strategy", ["full", "partial"])
    def test_rounding_compounded_over_frames_keeps_weight_one(self, strategy):
        # every row passes the check, but 40 frames compound the rounding to
        # a beam mass of about 1 + 2e-5: the decoder reads it as weight 1
        y = PosteriorMatrix(np.tile([1.0 + 5e-7, 0.0, 0.0, 0.0], (40, 1)))
        decoded = decode_line(y, self.V4, DecodeConfig(beam_size=2, strategy=strategy))
        assert decoded.nbests == (NBestList(((Labeling((0,)), 1.0),)),)
        assert prefix_beam_search(y, self.V4, 2).entries[0] == (Labeling((0,)), 1.0)

    def test_rows_need_not_sum_to_one(self):
        y = PosteriorMatrix(self.good() * 0.5)
        beam = prefix_beam_search(y, self.V4, 2)
        decoded = decode_line(y, self.V4, DecodeConfig(beam_size=2, strategy="full"))
        assert decoded.nbests[0].entries[: len(beam)] == beam.entries


def reference_decoded_network(decoded, normalize):
    """The network decode_line builds from its own n-best lists, each folded by the oracle."""
    folds = [reference_build_cn(nbest, normalize=False) for nbest in decoded.nbests]
    if normalize:
        return ConfusionNetwork(tuple(s.normalized() for cn in folds for s in cn.sets))
    masses = [nb.total_weight for seg, nb in zip(decoded.segments, decoded.nbests) if not seg.confident]
    confidence = max(float(np.prod(masses)) if masses else 1.0, np.finfo(float).tiny)
    sets = []
    for cn in folds:
        factor = confidence / cn.total_score
        sets += [
            ConfusionSet({k: max(v * factor, 5e-324) for k, v in s.alternatives.items()}, s.null * factor)
            for s in cn.sets
        ]
    return ConfusionNetwork(tuple(sets), normalized=False, total_score=confidence)


def network_bits(cn):
    return (
        cn.offsets.tolist(), cn.symbols.tolist(), cn.scores.tobytes(), cn.nulls.tobytes(),
        cn.normalized, cn.total_score.hex(),
    )


class TestDecodeLineFoldsLikeTheReference:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_seeded_lines(self, normalize):
        rng = np.random.default_rng(127)
        v = Vocabulary.from_characters("abcde")
        for n in range(40):
            rows = [np.eye(6)[v.blank]]
            for _ in range(int(rng.integers(1, 6))):
                burst = rng.dirichlet(np.full(6, 0.4), size=int(rng.integers(1, 7)))
                rows.extend(burst)
                # a confident symbol: 0.996, and the row sums to one
                rows.append(np.eye(6)[int(rng.integers(0, 6))] * 0.9952 + 0.0008)
                rows.append(np.eye(6)[v.blank])
            cfg = DecodeConfig(beam_size=int(rng.choice([1, 2, 4, 8])), strategy="full" if n % 5 == 0 else "partial")
            decoded = decode_line(PosteriorMatrix(np.array(rows)), v, cfg, normalize)
            assert network_bits(decoded.network) == network_bits(reference_decoded_network(decoded, normalize))


V5 = Vocabulary.from_characters("abcde")


def bursty_lines(rng, count):
    """(posteriors, beam) pairs over ``V5``: ambiguous bursts between
    confident symbols and confident blanks, so lines hold several doubtful
    segments whose beams differ from their best paths by a few edits."""
    for _ in range(count):
        rows = [np.eye(6)[V5.blank]]
        for _ in range(int(rng.integers(1, 6))):
            rows.extend(rng.dirichlet(np.full(6, 0.4), size=int(rng.integers(1, 7))))
            rows.append(np.eye(6)[int(rng.integers(0, 5))] * 0.9952 + 0.0008)
            rows.append(np.eye(6)[V5.blank])
        yield PosteriorMatrix(np.array(rows)), int(rng.choice([1, 2, 4, 8, 16]))


class TestDecodeToCnFoldsPlainHypotheses:
    @pytest.mark.parametrize("strategy", ["partial", "full"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_is_the_network_of_decode_line(self, strategy, normalize):
        rng = np.random.default_rng(227)
        for y, beam in bursty_lines(rng, 40):
            cfg = DecodeConfig(beam_size=beam, strategy=strategy)
            got = decode_to_cn(y, V5, cfg, normalize)
            assert network_bits(got) == network_bits(decode_line(y, V5, cfg, normalize).network)

    def test_builds_no_labeling_or_nbest_list(self, monkeypatch):
        built = []
        for cls in (Labeling, NBestList):
            monkeypatch.setattr(
                cls, "__post_init__", lambda self, _f=cls.__post_init__: built.append(type(self)) or _f(self)
            )
        lines = list(bursty_lines(np.random.default_rng(229), 10))
        for y, beam in lines:
            for strategy in ("partial", "full"):
                for normalize in (True, False):
                    decode_to_cn(y, V5, DecodeConfig(beam_size=beam, strategy=strategy), normalize)
        assert built == []
        # the patched constructors do count what decode_line wraps
        decode_line(lines[0][0], V5, DecodeConfig(beam_size=lines[0][1]))
        assert Labeling in built and NBestList in built

    def test_a_cold_and_a_warm_fold_cache_give_the_same_networks(self):
        cfgs = [(y, DecodeConfig(beam_size=beam)) for y, beam in bursty_lines(np.random.default_rng(233), 30)]
        _pattern_align.cache_clear()
        cold = [network_bits(decode_to_cn(y, V5, cfg, normalize=False)) for y, cfg in cfgs]
        filled = _pattern_align.cache_info()
        assert 0 < filled.currsize < filled.maxsize
        warm = [network_bits(decode_to_cn(y, V5, cfg, normalize=False)) for y, cfg in cfgs]
        again = _pattern_align.cache_info()
        assert again.misses == filled.misses and again.hits > filled.hits
        assert warm == cold


def assert_scores_like_the_oracle(y, cn, v):
    """The network compiles, and its loss is the oracle's to 1e-9 of max(1, |log P|)."""
    want = -math.log(oracle_softctc(y, cn, v))
    got = soft_ctc_loss(y, compile_cn(cn, v)).loss
    assert abs(got - want) <= 1e-9 * max(1.0, want), (got, want)


class TestDecodedNetworksScore:
    """Every network the decoder and the transforms emit compiles and scores."""

    V = Vocabulary.from_characters("abc")

    def test_segments_led_by_the_empty_hypothesis_with_tiny_tails(self):
        # each segment's beam is led by "" and its last hypothesis lies below
        # 1e-9 of its mass, so the fold opens a set of null mass past 1 - 1e-9
        rng = np.random.default_rng(211)
        for _ in range(12):
            rows = [row(3)]
            for _ in range(int(rng.integers(1, 3))):
                for _ in range(int(rng.integers(1, 3))):
                    tail = 10.0 ** rng.uniform(-14.0, -9.5)
                    rows.append(row(3, **{"0": rng.uniform(0.1, 0.25), "1": tail}))
                rows.append(row(3))
            y = PosteriorMatrix(np.array(rows))
            decoded = decode_line(y, VAB, DecodeConfig(beam_size=4))
            doubtful = [nb for seg, nb in zip(decoded.segments, decoded.nbests) if not seg.confident]
            assert doubtful
            for nbest in doubtful:
                assert nbest.entries[0][0].symbols == ()
                assert min(w for _, w in nbest) < 1e-9 * nbest.total_weight
            assert max(s.null for s in decoded.network.sets) > 1.0 - 1e-9
            for strategy in ("partial", "full"):
                assert_scores_like_the_oracle(y, decode_to_cn(y, VAB, DecodeConfig(4, strategy)), VAB)

    def test_random_decodes_and_their_transforms(self):
        rng = np.random.default_rng(223)
        for _ in range(150):
            frames = int(rng.integers(2, 7))
            temperature = float(rng.choice([1.0, 0.25, 1 / 12, 1 / 30]))
            logits = rng.normal(size=(frames, 4))
            logits[:, self.V.blank] += rng.uniform(0.0, 1.0, size=frames)  # blank-heavy
            y = np.exp((logits - logits.max(axis=1, keepdims=True)) / temperature)
            y[(rng.random(y.shape) < 0.15) & (y < 1.0)] = 0.0  # zeroed entries, never the peak
            y = PosteriorMatrix(y / y.sum(axis=1, keepdims=True))
            raws = []
            for strategy in ("partial", "full"):
                cfg = DecodeConfig(beam_size=4, strategy=strategy)
                assert_scores_like_the_oracle(y, decode_to_cn(y, self.V, cfg), self.V)
                raws.append(decode_to_cn(y, self.V, cfg, normalize=False))
            merged = merge_cns(raws)
            for cn in (merged, prune(merged, 0.01), smooth(merged, 2.0)):
                assert_scores_like_the_oracle(y, cn, self.V)


class TestDecodeConfig:
    def test_rejects_bad_beam(self):
        with pytest.raises(ValidationError):
            DecodeConfig(beam_size=0)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValidationError):
            DecodeConfig(strategy="greedy")

    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(ValidationError):
            DecodeConfig(confidence=0.3)
        with pytest.raises(ValidationError):
            DecodeConfig(confidence=1.0)

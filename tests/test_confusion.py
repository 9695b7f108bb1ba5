import io
import math

import numpy as np
import pytest

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    Labeling,
    NBestList,
    ValidationError,
    Vocabulary,
    best_path,
    build_cn,
    count_variant_paths,
    merge_cns,
    normalize_cn,
    outlier_metric,
    prune,
    smooth,
    trivial_cn,
)
from softctc.confusion import _fold_align, _fsum_totals, _pattern_align, levenshtein_align
from softctc.io import read_cn, write_cn
from softctc.oracle import (
    _reference_best_positions,
    enumerate_cn_strings,
    reference_build_cn,
    reference_levenshtein_align,
    reference_merge_cns,
    reference_normalize_cn,
    reference_prune,
    reference_smooth,
)

V = Vocabulary.from_characters("actu")


def lab(text):
    return V.encode(text)


def nbest(*pairs):
    return NBestList(tuple((lab(t), w) for t, w in pairs))


def set_by_name(s):
    return {V.symbols[k]: p for k, p in sorted(s.alternatives.items())}


def bits(cn):
    """Every float of a network as hex, in dict order."""
    return (
        cn.normalized,
        cn.total_score.hex(),
        [([(k, v.hex()) for k, v in s.alternatives.items()], s.null.hex()) for s in cn.sets],
    )


class TestConfusionSet:
    def test_rejects_empty_alternatives(self):
        with pytest.raises(ValidationError):
            ConfusionSet({}, 1.0)

    def test_rejects_nonpositive_alternative(self):
        with pytest.raises(ValidationError):
            ConfusionSet({0: 0.0})

    def test_rejects_negative_null(self):
        with pytest.raises(ValidationError):
            ConfusionSet({0: 1.0}, -0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_scores(self, value):
        with pytest.raises(ValidationError, match="alternative scores"):
            ConfusionSet({0: value, 1: 0.5})
        with pytest.raises(ValidationError, match="null score"):
            ConfusionSet({0: 0.5}, value)

    def test_size_counts_null_only_when_present(self):
        assert ConfusionSet({0: 0.5, 1: 0.5}).size() == 2
        assert ConfusionSet({0: 0.5, 1: 0.3}, 0.2).size() == 3

    def test_best_prefers_smaller_symbol_on_tie(self):
        assert best_path(ConfusionNetwork((ConfusionSet({1: 0.5, 0: 0.5}),))).symbols == (0,)

    def test_best_null_wins_only_strictly(self):
        assert best_path(ConfusionNetwork((ConfusionSet({0: 0.5}, 0.5),))).symbols == (0,)
        assert best_path(ConfusionNetwork((ConfusionSet({0: 0.4}, 0.6),))).symbols == ()

    def test_normalized_is_exact_for_exact_totals(self):
        s = ConfusionSet({0: 0.6, 1: 0.3}, 0.1).normalized()
        assert s.alternatives == {0: 0.6, 1: 0.3}
        assert s.null == 0.1


class TestNetworkValidation:
    def test_normalized_flag_checks_set_totals(self):
        with pytest.raises(ValidationError):
            ConfusionNetwork((ConfusionSet({0: 0.5}),), normalized=True)

    def test_raw_network_accepts_sets_that_total_its_score(self):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 2.5}), ConfusionSet({0: 2.0, 1: 0.5 + 1e-6})),
            normalized=False,
            total_score=2.5,
        )
        assert cn.total_score == 2.5

    def test_raw_network_checks_set_totals_against_its_score(self):
        message = "set 1 of a raw network sums to 3.0, expected 0.5"
        with pytest.raises(ValidationError, match=message):
            ConfusionNetwork(
                (ConfusionSet({0: 0.5}), ConfusionSet({0: 3.0})),
                normalized=False,
                total_score=0.5,
            )

    @pytest.mark.parametrize("total", [0.0, -1.0, math.nan, math.inf])
    def test_total_score_must_be_positive_and_finite(self, total):
        with pytest.raises(ValidationError, match=f"got {total!r}"):
            ConfusionNetwork((ConfusionSet({0: 0.5}),), normalized=False, total_score=total)

    def test_normalized_network_must_total_one(self):
        # a normalized network's sets are distributions, so its total is 1.0
        with pytest.raises(ValidationError, match="a normalized network totals 1.0, got 2.0"):
            ConfusionNetwork((ConfusionSet({0: 1.0}),), normalized=True, total_score=2.0)

    def test_trivial_cn(self):
        cn = trivial_cn(lab("cat"))
        assert len(cn) == 3
        assert all(s.size() == 1 for s in cn.sets)
        assert best_path(cn).symbols == lab("cat").symbols


class TestLevenshteinAlign:
    def test_identity_is_all_matches(self):
        ops = levenshtein_align((0, 1, 2), (0, 1, 2))
        assert [op for op, _, _ in ops] == ["match"] * 3

    def test_single_substitution(self):
        ops = levenshtein_align(lab("cat").symbols, lab("cut").symbols)
        assert [op for op, _, _ in ops] == ["match", "substitute", "match"]

    def test_insertion_in_the_middle(self):
        # "cat" vs "cast": insert after the second position
        va = Vocabulary.from_characters("acst")
        ops = levenshtein_align(va.encode("cat").symbols, va.encode("cast").symbols)
        assert [op for op, _, _ in ops] == ["match", "match", "insert", "match"]

    def test_deletion(self):
        ops = levenshtein_align(lab("cat").symbols, lab("ct").symbols)
        assert [op for op, _, _ in ops] == ["match", "delete", "match"]

    def test_prefers_substitution_over_indel_pairs(self):
        ops = levenshtein_align((0, 1), (1, 0))
        assert [op for op, _, _ in ops] == ["substitute", "substitute"]

    def test_empty_sides(self):
        assert [op for op, _, _ in levenshtein_align((), (0, 1))] == ["insert", "insert"]
        assert [op for op, _, _ in levenshtein_align((0, 1), ())] == ["delete", "delete"]

    def test_matches_the_full_table_on_seeded_pairs(self):
        # one-letter alphabets force long tie chains; lengths up to 200 span
        # several machine words of the bit vectors
        rng = np.random.default_rng(17)
        for k in range(3200):
            letters = (1, 2, 4, int(rng.integers(5, 40)))[k % 4]
            top = 200 if k % 10 == 0 else 24
            n, m = (0 if k % 50 == side else int(rng.integers(0, top + 1)) for side in (1, 2))
            a = rng.integers(0, letters, size=n).tolist()
            b = rng.integers(0, letters, size=m).tolist()
            assert levenshtein_align(a, b) == reference_levenshtein_align(a, b), (a, b)

    def test_the_fold_aligner_is_the_aligner_on_relabelled_pairs(self):
        # the fold caches alignments by equality pattern: a relabelled copy of
        # a pair reuses the pair's entry and still gets its own alignment
        rng = np.random.default_rng(19)
        _pattern_align.cache_clear()
        for _ in range(2000):
            letters = int(rng.integers(1, 5))
            a, b = (rng.integers(0, letters, size=int(rng.integers(0, 9))).tolist() for _ in range(2))
            assert list(_fold_align(a, b)) == levenshtein_align(a, b), (a, b)
            relabel = rng.permutation(100)[:letters].tolist()
            a, b = [relabel[s] for s in a], [relabel[s] for s in b]
            hits = _pattern_align.cache_info().hits
            assert list(_fold_align(a, b)) == levenshtein_align(a, b), (a, b)
            assert _pattern_align.cache_info().hits == hits + 1


class TestArrayNetwork:
    def test_arrays_hold_sets_in_ascending_symbol_order(self):
        cn = ConfusionNetwork(
            (ConfusionSet({3: 0.25, 1: 0.75}), ConfusionSet({2: 0.5}, 0.5)), normalized=True
        )
        assert cn.offsets.tolist() == [0, 2, 3]
        assert cn.symbols.tolist() == [1, 3, 2]
        assert cn.scores.tolist() == [0.75, 0.25, 0.5]
        assert cn.nulls.tolist() == [0.0, 0.5]
        assert len(cn) == 2
        # the derived view lists alternatives by symbol, not by insertion
        assert list(cn.sets[0].alternatives) == [1, 3]
        assert cn.sets == (ConfusionSet({1: 0.75, 3: 0.25}), ConfusionSet({2: 0.5}, 0.5))

    def test_arrays_and_fields_are_read_only(self):
        cn = trivial_cn(lab("cat"))
        for name in ("offsets", "symbols", "scores", "nulls"):
            with pytest.raises(ValueError):
                getattr(cn, name)[0] = 0
        with pytest.raises(AttributeError):
            cn.normalized = False

    def test_equal_across_constructors_and_a_file_round_trip(self):
        cn = build_cn(nbest(("cat", 0.6), ("ct", 0.3), ("at", 0.1)))
        assert ConfusionNetwork(cn.sets) == cn
        buf = io.StringIO()
        write_cn(buf, cn, V)
        back, _, _ = read_cn(io.StringIO(buf.getvalue()), V)
        assert back == cn and cn == back

    def test_unequal_on_either_field_or_one_score_bit(self):
        cn = build_cn(nbest(("cat", 0.6), ("ct", 0.4)))
        raw = ConfusionNetwork(cn.sets, normalized=False, total_score=1.0)
        assert raw != cn and cn != raw
        assert raw == ConfusionNetwork(cn.sets, normalized=False, total_score=1.0)
        assert raw != ConfusionNetwork(cn.sets, normalized=False, total_score=math.nextafter(1.0, 2.0))
        arrays = [cn.offsets, cn.symbols, cn.scores.copy(), cn.nulls.copy()]
        for values in arrays[2:]:
            flipped = values.copy()
            flipped.view(np.int64)[0] ^= 1  # the last bit of the first entry
            changed = [flipped if a is values else a for a in arrays]
            assert ConfusionNetwork._from_arrays(*arrays) == cn
            assert ConfusionNetwork._from_arrays(*changed) != cn

    def test_other_types_are_not_implemented(self):
        cn = trivial_cn(lab("cat"))
        assert cn.__eq__(cn.sets) is NotImplemented
        assert cn != cn.sets and cn != "cat"

    def test_repr_evaluates_back_to_an_equal_network(self):
        cn = ConfusionNetwork((ConfusionSet({3: 0.5, 1: 1.5}), ConfusionSet({2: 1.0}, 1.0)),
                              normalized=False, total_score=2.0)
        text = repr(cn)
        assert text == (
            "ConfusionNetwork((ConfusionSet(alternatives={1: 1.5, 3: 0.5}, null=0.0), "
            "ConfusionSet(alternatives={2: 1.0}, null=1.0)), normalized=False, total_score=2.0)"
        )
        assert eval(text, {"ConfusionNetwork": ConfusionNetwork, "ConfusionSet": ConfusionSet}) == cn

    def test_totals_are_exactly_rounded(self):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 0.1, 1: 0.2}, 0.7), ConfusionSet({0: 1.0})), normalized=True
        )
        assert cn.totals() == [s.total() for s in cn.sets] == [math.fsum([0.1, 0.2, 0.7]), 1.0]


class TestExactTotals:
    """Sets of one or two values take one IEEE addition, which is exactly
    rounded; wider sets need ``math.fsum``."""

    # round-to-even pairs: the first sum ties and rounds down to 1.0, the
    # second lies just past the tie and rounds up
    EDGES = [(1.0, 2.0**-53), (1.0, 2.0**-53 + 2.0**-105), (2.0**-53, 1.0)]

    def rand_sets(self, rng):
        """(alternatives, null) of 1-4 values each, at magnitudes from 1e-300 to 1."""
        sets = []
        for _ in range(int(rng.integers(1, 30))):
            if rng.random() < 0.2:
                values = list(self.EDGES[int(rng.integers(0, len(self.EDGES)))])
                if rng.random() < 0.5:
                    values.append(2.0**-105)  # a third value: sequential sums miss it
            else:
                values = (10.0 ** rng.uniform(-300, 0, size=int(rng.integers(1, 5)))).tolist()
            null = values.pop() if len(values) > 1 and rng.random() < 0.5 else 0.0
            sets.append((values, null))
        return sets

    def test_matches_per_set_fsum(self):
        rng = np.random.default_rng(59)
        widths = {}
        for _ in range(400):
            sets = self.rand_sets(rng)
            offsets = np.cumsum([0] + [len(alts) for alts, _ in sets])
            scores = np.array([x for alts, _ in sets for x in alts])
            nulls = np.array([null for _, null in sets])
            got = _fsum_totals(offsets, scores, nulls).tolist()
            want = [math.fsum(alts + [null]) for alts, null in sets]
            assert [x.hex() for x in got] == [x.hex() for x in want]
            for alts, null in sets:
                key = (len(alts), null > 0.0)
                widths[key] = widths.get(key, 0) + 1
        # one alternative alone or with a null, two with or without, three or more
        assert all(widths.get(key, 0) >= 50 for key in [(1, False), (1, True), (2, False), (2, True), (3, False)])

    def test_three_values_are_not_summed_in_sequence(self):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 1.0, 1: 2.0**-53}, 2.0**-105), ConfusionSet({0: 1.0}, 2.0**-53)),
            normalized=True,
        )
        assert cn.totals() == [1.0 + 2.0**-52, 1.0]


def rand_network(rng, normalized):
    """Up to 12 sets over 8 symbols, inserted out of order, with nulls, ties
    and sets whose alternatives all sit near zero."""
    sets = []
    for _ in range(int(rng.integers(0, 13))):
        k = int(rng.integers(1, 7))
        symbols = rng.permutation(8)[:k].tolist()
        kind = rng.integers(0, 4)
        if kind == 0:  # ties
            raw = np.full(k, float(rng.choice([0.1, 0.25, 1.0 / 3.0])))
        elif kind == 1:  # everything below any cutoff, null dominant
            raw = rng.uniform(1e-4, 2e-3, size=k)
        else:
            raw = rng.uniform(1e-3, 1.0, size=k)
        null = float(rng.uniform(0.5, 5.0)) if kind == 1 else float(rng.choice([0.0, rng.uniform(0.01, 1.0)]))
        total = math.fsum(raw.tolist() + [null])
        scale = 1.0 if normalized else 0.37
        sets.append(ConfusionSet({s: scale * v / total for s, v in zip(symbols, raw)}, scale * null / total))
    return ConfusionNetwork(tuple(sets), normalized=normalized, total_score=1.0 if normalized else 0.37)


def float_bits(cn):
    return (
        cn.offsets.tolist(),
        cn.symbols.tolist(),
        [x.hex() for x in cn.scores.tolist()],
        [x.hex() for x in cn.nulls.tolist()],
        cn.normalized,
        cn.total_score.hex(),
    )


class TestTransformsMatchPerSetReference:
    @pytest.mark.parametrize("normalized", [True, False])
    def test_normalize(self, normalized):
        rng = np.random.default_rng(23)
        for _ in range(150):
            cn = rand_network(rng, normalized)
            assert float_bits(normalize_cn(cn)) == float_bits(reference_normalize_cn(cn))

    @pytest.mark.parametrize("cutoff", [0.0, 0.01, 0.05, 0.3, 0.9])
    def test_prune(self, cutoff):
        rng = np.random.default_rng(29)
        for _ in range(150):
            cn = rand_network(rng, normalized=bool(rng.integers(0, 2)))
            assert float_bits(prune(cn, cutoff)) == float_bits(reference_prune(cn, cutoff))

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 3.7, math.inf])
    def test_smooth(self, n):
        rng = np.random.default_rng(31)
        for _ in range(150):
            cn = rand_network(rng, normalized=bool(rng.integers(0, 2)))
            assert float_bits(smooth(cn, n)) == float_bits(reference_smooth(cn, n))

    def test_prune_keeps_the_smallest_best_symbol_of_a_bare_set(self):
        cn = ConfusionNetwork((ConfusionSet({5: 0.002, 2: 0.002, 7: 0.001}, 0.995),))
        assert prune(cn, 0.01).symbols.tolist() == [2]
        assert float_bits(prune(cn, 0.01)) == float_bits(reference_prune(cn, 0.01))


class TestBuildCn:
    def test_single_hypothesis_trivial(self):
        cn = build_cn(nbest(("cat", 0.9)))
        assert [set_by_name(s) for s in cn.sets] == [{"c": 1.0}, {"a": 1.0}, {"t": 1.0}]
        assert all(s.null == 0.0 for s in cn.sets)

    def test_substitution_pair(self):
        cn = build_cn(nbest(("cat", 0.6), ("cut", 0.3)))
        mid = cn.sets[1]
        assert set_by_name(mid) == pytest.approx({"a": 2 / 3, "u": 1 / 3})
        assert mid.null == 0.0

    def test_deletion_pair_adds_null(self):
        cn = build_cn(nbest(("cat", 0.6), ("ct", 0.3)))
        mid = cn.sets[1]
        assert set_by_name(mid) == pytest.approx({"a": 2 / 3})
        assert mid.null == pytest.approx(1 / 3)

    def test_three_way_golden_trace(self):
        cn = build_cn(nbest(("cat", 0.6), ("cut", 0.3), ("ct", 0.1)))
        assert [set_by_name(s) for s in cn.sets] == [
            {"c": 1.0},
            {"a": 0.6, "u": 0.3},
            {"t": 1.0},
        ]
        assert [s.null for s in cn.sets] == [0.0, 0.1, 0.0]

    def test_insertion_creates_set_with_prior_mass_on_null(self):
        va = Vocabulary.from_characters("acst")
        nb = NBestList(((va.encode("cat"), 0.7), (va.encode("cast"), 0.2)))
        cn = build_cn(nb, normalize=False)
        inserted = cn.sets[2]
        assert inserted.alternatives == {va.encode("s").symbols[0]: 0.2}
        assert inserted.null == pytest.approx(0.7)

    def test_fold_order_is_by_descending_weight(self):
        # listed out of order; the top hypothesis must still seed the network
        cn = build_cn(nbest(("ct", 0.1), ("cat", 0.6), ("cut", 0.3)))
        assert best_path(cn).symbols == lab("cat").symbols

    def test_mass_conservation_every_set(self):
        rng = np.random.default_rng(5)
        texts = ["cat", "cut", "ct", "at", "cata", "ca", "tau", "c", ""]
        for _ in range(40):
            chosen = rng.choice(len(texts), size=rng.integers(2, 6), replace=False)
            weights = rng.uniform(0.05, 1.0, size=len(chosen))
            weights /= weights.sum() * rng.uniform(1.0, 2.0)
            nb = NBestList(
                tuple((lab(texts[i]), float(w)) for i, w in zip(chosen, weights))
            )
            cn = build_cn(nb, normalize=False)
            for s in cn.sets:
                assert s.total() == pytest.approx(nb.total_weight, abs=1e-9)

    def test_implied_distribution_sums_to_one(self):
        rng = np.random.default_rng(6)
        texts = ["cat", "cut", "ct", "at", "ca", ""]
        for _ in range(25):
            chosen = rng.choice(len(texts), size=rng.integers(2, 5), replace=False)
            weights = rng.uniform(0.05, 1.0, size=len(chosen))
            weights /= weights.sum()
            nb = NBestList(
                tuple((lab(texts[i]), float(w)) for i, w in zip(chosen, weights))
            )
            cn = build_cn(nb)
            total = sum(w for _, w in enumerate_cn_strings(cn))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_equals_the_merge_of_its_hypotheses(self):
        # build_cn is merge_cns over one-path networks, bit for bit
        rng = np.random.default_rng(7)
        texts = ["cat", "cut", "ct", "at", "cata", "ca", "tau", "c", "", "tact"]
        for _ in range(60):
            chosen = rng.choice(len(texts), size=rng.integers(1, 7), replace=False)
            weights = rng.uniform(0.01, 1.0, size=len(chosen)) * rng.uniform(0.2, 0.99)
            nb = NBestList(
                tuple((lab(texts[i]), float(w)) for i, w in zip(chosen, weights))
            )
            ordered = sorted(nb.entries, key=lambda e: (-e[1], e[0].symbols))
            merged = merge_cns([trivial_cn(l, w) for l, w in ordered])
            assert bits(build_cn(nb)) == bits(merged)

    def test_every_hypothesis_recoverable_as_path(self):
        nb = nbest(("cat", 0.5), ("cut", 0.2), ("at", 0.2), ("ca", 0.1))
        cn = build_cn(nb)
        strings = {labd.symbols for labd, _ in enumerate_cn_strings(cn)}
        for labd, _ in nb.entries:
            assert labd.symbols in strings


def rand_fold_nbest(rng):
    """An n-best list over 3 symbols whose weights come from a coarse grid.

    The grid makes sums collide, so folds meet ties between alternatives and
    nulls equal to a set's best score; labelings repeat symbols ("aaa") and
    may be empty.
    """
    pool = sorted({tuple(rng.integers(0, 3, size=rng.integers(0, 5)).tolist()) for _ in range(12)})
    chosen = rng.choice(len(pool), size=rng.integers(1, min(7, len(pool)) + 1), replace=False)
    weights = rng.choice([0.05, 0.1, 0.125, 0.2, 0.25], size=len(chosen))
    return NBestList(tuple((Labeling(pool[i]), float(w)) for i, w in zip(chosen, weights)))


def fold_ties(cn):
    """Sets of ``cn`` with tied best alternatives, and with null equal to the best score."""
    best = [max(s.alternatives.values()) for s in cn.sets]
    tied = sum(list(s.alternatives.values()).count(b) > 1 for s, b in zip(cn.sets, best))
    return tied, sum(s.null == b for s, b in zip(cn.sets, best))


def raw_network(rng, symbols, off_path=False):
    """A raw network of 1-5 sets over ``symbols``, every set totalling one
    random mass; with ``off_path``, each set's null outweighs its alternatives."""
    total = float(rng.uniform(0.1, 1.0))
    sets = []
    for _ in range(int(rng.integers(1, 6))):
        chosen = rng.permutation(symbols)[: int(rng.integers(1, len(symbols) + 1))]
        values = rng.uniform(0.05, 1.0, size=len(chosen)).tolist()
        if off_path:
            null = math.fsum(values) + float(rng.uniform(0.05, 1.0))
        else:
            null = float(rng.choice([0.0, rng.uniform(0.05, 1.0)]))
        scale = total / math.fsum(values + [null])
        sets.append(ConfusionSet({int(k): scale * v for k, v in zip(chosen, values)}, scale * null))
    return ConfusionNetwork(tuple(sets), normalized=False, total_score=total)


def rand_merge_input(rng):
    """A raw network for a merge list: a fold over symbols 0-2, a random
    network over 0-7, one over 8-11 that shares no symbol with those, one
    whose every set is off its best path, or one with no sets."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return build_cn(rand_fold_nbest(rng), normalize=False)
    if kind == 1:
        return rand_network(rng, normalized=False)
    if kind == 2:
        return raw_network(rng, np.arange(8, 12))
    if kind == 3:
        return raw_network(rng, np.arange(8), off_path=True)
    return ConfusionNetwork((), normalized=False, total_score=float(rng.uniform(0.1, 1.0)))


class TestFoldMatchesReference:
    """The fold keeps each set's best alternative as it goes; the oracle
    recomputes every best path over every set on every merge."""

    @pytest.mark.parametrize("normalize", [True, False])
    def test_build_cn(self, normalize):
        rng = np.random.default_rng(37)
        ties = null_ties = empty = repeats = 0
        for _ in range(300):
            nb = rand_fold_nbest(rng)
            want = reference_build_cn(nb, normalize)
            assert float_bits(build_cn(nb, normalize)) == float_bits(want)
            tied, at_null = fold_ties(reference_build_cn(nb, normalize=False))
            ties, null_ties = ties + tied, null_ties + at_null
            empty += any(not labeling.symbols for labeling, _ in nb)
            repeats += any(len(set(labeling.symbols)) < len(labeling) for labeling, _ in nb)
        assert min(ties, null_ties, empty, repeats) >= 20, (ties, null_ties, empty, repeats)

    def test_merge_cns(self):
        rng = np.random.default_rng(41)
        null_ties = 0
        for _ in range(150):
            cns = []
            for _ in range(int(rng.integers(2, 6))):
                if rng.random() < 0.8:
                    cns.append(build_cn(rand_fold_nbest(rng), normalize=False))
                else:
                    cns.append(rand_network(rng, normalized=False))
            null_ties += sum(fold_ties(cn)[1] for cn in cns)
            assert float_bits(merge_cns(cns)) == float_bits(reference_merge_cns(cns))
        assert null_ties >= 20

        rng = np.random.default_rng(47)
        cases = ["empty first", "empty inside", "empty last", "all off path", "disjoint", "five or more"]
        met = dict.fromkeys(cases, 0)
        for _ in range(200):
            cns = [rand_merge_input(rng) for _ in range(int(rng.integers(2, 8)))]
            assert float_bits(merge_cns(cns)) == float_bits(reference_merge_cns(cns))
            met["empty first"] += not len(cns[0])
            met["empty inside"] += any(not len(cn) for cn in cns[1:-1])
            met["empty last"] += not len(cns[-1])
            met["all off path"] += any(
                len(cn) and all(s.null > max(s.alternatives.values()) for s in cn.sets) for cn in cns
            )
            symbols = [set(cn.symbols.tolist()) for cn in cns if len(cn)]
            met["disjoint"] += any(not a & b for k, a in enumerate(symbols) for b in symbols[k + 1 :])
            met["five or more"] += len(cns) >= 5
        assert min(met.values()) >= 20, met

    def test_best_path_reads_the_same_rule(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            cn = rand_network(rng, normalized=bool(rng.integers(0, 2)))
            want, _ = _reference_best_positions([[s.alternatives, s.null] for s in cn.sets])
            assert best_path(cn).symbols == tuple(want)


class TestBestPath:
    def test_argmax_per_set(self):
        cn = build_cn(nbest(("cat", 0.6), ("cut", 0.3)))
        assert V.decode(best_path(cn)) == "cat"

    def test_null_dominant_set_contributes_nothing(self):
        cn = ConfusionNetwork((ConfusionSet({0: 0.4}, 0.6),))
        assert best_path(cn).symbols == ()

    def test_top_hypothesis_survives_construction(self):
        nb = nbest(("cat", 0.5), ("cut", 0.25), ("ta", 0.25))
        assert V.decode(best_path(build_cn(nb))) == "cat"


class TestMergeCns:
    def test_merge_with_itself_is_identity_after_normalization(self):
        raw = build_cn(nbest(("cat", 0.6), ("cut", 0.3)), normalize=False)
        merged = merge_cns([raw, raw])
        reference = normalize_cn(raw)
        assert len(merged) == len(reference)
        for m, r in zip(merged.sets, reference.sets):
            assert set_by_name(m) == pytest.approx(set_by_name(r))
            assert m.null == pytest.approx(r.null)

    def test_insertion_set_gets_other_networks_mass_on_null(self):
        a = ConfusionNetwork(
            (ConfusionSet({0: 0.8}),), normalized=False, total_score=0.8
        )
        b = ConfusionNetwork(
            (ConfusionSet({0: 0.5}), ConfusionSet({1: 0.5})),
            normalized=False,
            total_score=0.5,
        )
        merged = merge_cns([a, b])
        assert len(merged) == 2
        assert merged.sets[0].alternatives == {0: 1.0}
        assert merged.sets[1].alternatives[1] == pytest.approx(0.5 / 1.3)
        assert merged.sets[1].null == pytest.approx(0.8 / 1.3)

    def test_merge_weighs_inputs_by_total_confidence(self):
        heavy = build_cn(nbest(("cat", 0.8)), normalize=False)
        light = build_cn(nbest(("cut", 0.2)), normalize=False)
        merged = merge_cns([heavy, light])
        mid = merged.sets[1]
        assert set_by_name(mid) == pytest.approx({"a": 0.8, "u": 0.2})

    def test_merge_requires_raw_networks(self):
        normalized = build_cn(nbest(("cat", 1.0)))
        with pytest.raises(ValidationError):
            merge_cns([normalized, normalized])

    def test_merge_of_no_networks_is_rejected(self):
        with pytest.raises(ValidationError, match="nothing to merge"):
            merge_cns([])

    def test_merge_single_network_normalizes(self):
        raw = build_cn(nbest(("cat", 0.6), ("ct", 0.2)), normalize=False)
        merged = merge_cns([raw])
        for s in merged.sets:
            assert s.total() == pytest.approx(1.0)

    def test_merge_mass_conservation(self):
        a = build_cn(nbest(("cat", 0.5), ("cut", 0.2)), normalize=False)
        b = build_cn(nbest(("at", 0.2), ("ct", 0.1)), normalize=False)
        merged = merge_cns([a, b])
        # every set of the merged normalized network sums to one
        for s in merged.sets:
            assert s.total() == pytest.approx(1.0, abs=1e-9)


class TestSmooth:
    def cn_of(self, alts, null=0.0):
        return ConfusionNetwork((ConfusionSet(alts, null),))

    def test_identity_at_one(self):
        cn = self.cn_of({0: 0.9, 1: 0.1})
        out = smooth(cn, 1)
        assert out.sets[0].alternatives == {0: 0.9, 1: 0.1}

    def test_square_root_case(self):
        out = smooth(self.cn_of({0: 0.9, 1: 0.1}), 2)
        assert out.sets[0].alternatives[0] == pytest.approx(0.75, abs=1e-12)
        assert out.sets[0].alternatives[1] == pytest.approx(0.25, abs=1e-12)

    def test_infinity_is_uniform_including_null(self):
        out = smooth(self.cn_of({0: 0.8, 1: 0.15}, 0.05), math.inf)
        s = out.sets[0]
        assert s.alternatives == pytest.approx({0: 1 / 3, 1: 1 / 3})
        assert s.null == pytest.approx(1 / 3)

    def test_infinity_skips_absent_null(self):
        out = smooth(self.cn_of({0: 0.8, 1: 0.2}), math.inf)
        assert out.sets[0].alternatives == pytest.approx({0: 0.5, 1: 0.5})
        assert out.sets[0].null == 0.0

    def test_composition_law(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(3))
            cn = self.cn_of({0: probs[0], 1: probs[1]}, probs[2])
            a, b = rng.uniform(1.0, 4.0, size=2)
            twice = smooth(smooth(cn, a), b).sets[0]
            once = smooth(cn, a * b).sets[0]
            for k in twice.alternatives:
                assert twice.alternatives[k] == pytest.approx(once.alternatives[k], abs=1e-9)
            assert twice.null == pytest.approx(once.null, abs=1e-9)

    def test_rejects_degrees_below_one(self):
        with pytest.raises(ValidationError):
            smooth(self.cn_of({0: 1.0}), 0.5)


class TestPrune:
    def cn_of(self, alts, null=0.0):
        return ConfusionNetwork((ConfusionSet(alts, null),))

    def test_below_cutoff_removed(self):
        out = prune(self.cn_of({0: 0.995, 1: 0.005}))
        assert out.sets[0].alternatives == {0: 1.0}

    def test_nothing_below_cutoff_unchanged(self):
        out = prune(self.cn_of({0: 0.6, 1: 0.4}))
        assert out.sets[0].alternatives == {0: 0.6, 1: 0.4}

    def test_null_never_pruned(self):
        out = prune(self.cn_of({0: 0.99, 1: 0.006}, 0.004))
        s = out.sets[0]
        assert s.alternatives == pytest.approx({0: 0.99 / 0.994})
        assert s.null == pytest.approx(0.004 / 0.994)

    def test_exactly_at_cutoff_removed(self):
        out = prune(self.cn_of({0: 0.99, 1: 0.01}))
        assert list(out.sets[0].alternatives) == [0]

    def test_keeps_best_when_everything_falls_below(self):
        out = prune(self.cn_of({0: 0.004, 1: 0.006}, 0.99))
        s = out.sets[0]
        assert list(s.alternatives) == [1]
        assert s.null == pytest.approx(0.99 / 0.996)

    @pytest.mark.parametrize("cutoff", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_a_cutoff_outside_zero_to_one(self, cutoff):
        with pytest.raises(ValidationError, match=r"cutoff must be in \[0, 1\)"):
            prune(self.cn_of({0: 0.6, 1: 0.4}), cutoff)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            probs = rng.dirichlet(np.full(4, 0.3))
            cn = self.cn_of({0: probs[0], 1: probs[1], 2: probs[2]}, probs[3])
            once = prune(cn)
            twice = prune(once)
            assert set(once.sets[0].alternatives) == set(twice.sets[0].alternatives)
            for k, p in once.sets[0].alternatives.items():
                assert twice.sets[0].alternatives[k] == pytest.approx(p, rel=1e-12)
            assert twice.sets[0].null == pytest.approx(once.sets[0].null, abs=1e-12)


class TestOutlierMetric:
    def test_singletons(self):
        cn = trivial_cn(lab("cata"))
        assert outlier_metric(cn) == 0.25

    def test_mixed_sizes(self):
        sets = (
            ConfusionSet({0: 0.5, 1: 0.5}),
            ConfusionSet({0: 0.4, 1: 0.3}, 0.3),
            ConfusionSet({0: 1.0}),
            ConfusionSet({0: 0.5, 1: 0.3}, 0.2),
        )
        cn = ConfusionNetwork(sets)
        assert outlier_metric(cn) == pytest.approx(18 / 4)

    def test_empty_network(self):
        cn = trivial_cn(Labeling(()))
        assert outlier_metric(cn) == 0.0

    def test_overflowing_product_is_infinite(self):
        # 2**1100 / 1100 exceeds the float range
        cn = ConfusionNetwork(tuple(ConfusionSet({0: 0.5, 1: 0.5}) for _ in range(1100)))
        assert outlier_metric(cn) == math.inf


class TestCountVariantPaths:
    def test_all_singletons(self):
        assert count_variant_paths(trivial_cn(lab("catca"))) == 1

    def test_product_of_sizes(self):
        sets = tuple(ConfusionSet({0: 0.6, 1: 0.4}) for _ in range(3))
        assert count_variant_paths(ConfusionNetwork(sets)) == 8

    def test_exact_big_integer(self):
        sets = tuple(
            ConfusionSet({k: 1.0 / 13 for k in range(12)}, 1.0 / 13) for _ in range(20)
        )
        cn = ConfusionNetwork(sets)
        assert count_variant_paths(cn) == 13**20

import math

import numpy as np
import pytest
import scipy.sparse as sp

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    DecodeConfig,
    InfeasibleTarget,
    Labeling,
    NBestList,
    PosteriorMatrix,
    ValidationError,
    Vocabulary,
    build_cn,
    compile_cn,
    compile_nbest,
    decode_to_cn,
    merge_cns,
    multi_ctc,
    smooth,
    soft_ctc_loss,
    trivial_cn,
)
from softctc.compiler import CompiledTarget
from softctc.oracle import enumerate_ctc, oracle_softctc, reference_compile_cn

V3 = Vocabulary.from_characters("abc")


def cn_of(*sets):
    return ConfusionNetwork(tuple(ConfusionSet(a, n) for a, n in sets))


def layout(target, v):
    """(is_blank, group_index) per state of a compiled network: each group opens with its blank."""
    is_blank = target.state_symbols == v.blank
    return is_blank, np.cumsum(is_blank) - 1


class TestSetWeights:
    def test_trivial_set(self):
        target = compile_cn(cn_of(({0: 1.0}, 0.0)), V3)
        # states: [#, a], [#]
        is_blank, group_index = layout(target, V3)
        assert list(target.state_symbols) == [3, 0, 3]
        assert list(group_index) == [0, 0, 1]
        assert list(target.alpha_hat) == [1.0, 1.0, 0.0]  # epsilon 0, blank weight 1
        assert target.transition[0, 1] == 1.0
        assert is_blank[-1] and target.beta_hat[-1] == 1.0  # the terminal group

    def test_null_becomes_epsilon(self):
        alpha = compile_cn(cn_of(({0: 0.9}, 0.1)), V3).alpha_hat
        assert alpha[0] == pytest.approx(0.9, abs=1e-15)  # blank weight 1 - epsilon
        assert alpha[1] == pytest.approx(0.9, abs=1e-15)
        assert alpha[2] == pytest.approx(0.1, abs=1e-15)  # skip into the terminal

    def test_terminal_start_weight_is_the_skip_mass(self):
        target = compile_cn(cn_of(({0: 0.5}, 0.5)), V3)
        assert target.alpha_hat[-1] == 0.5

    def test_letters_sorted_by_symbol(self):
        target = compile_cn(cn_of(({2: 0.5, 0: 0.3, 1: 0.2}, 0.0)), V3)
        assert list(target.state_symbols[1:4]) == [0, 1, 2]

    def test_group_weights_renormalized_exactly(self):
        # a set that is normalized within tolerance but not exactly
        s = ConfusionSet({0: 0.5 + 1e-8, 1: 0.3}, 0.2)
        target = compile_cn(ConfusionNetwork((s,)), V3)
        # states: [#, a, b], [#]; alpha holds the letters and the epsilon
        assert math.fsum(target.alpha_hat[1:]) == pytest.approx(1.0, abs=1e-15)
        blank_row = target.transition[0]
        assert math.fsum(blank_row.data) - 1.0 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("case", ["letter 1e-12", "letter 5e-324", "build_cn", "decode_to_cn"])
    def test_set_of_null_mass_near_one_compiles(self, case):
        # a blank weight of 1 - epsilon would keep few or no digits here; the
        # last two are a fold and a decode that emit a set past 1 - 1e-9
        vab = Vocabulary.from_characters("ab")
        y_ab = PosteriorMatrix(
            np.array([[0.995, 0.0025, 0.0025], [0.28, 5e-10, 0.72 - 5e-10], [0.0025, 0.995, 0.0025]])
        )
        y_abc = PosteriorMatrix(np.array([[0.3, 0.2, 0.1, 0.4], [0.1, 0.5, 0.1, 0.3], [0.25] * 4]))
        nbest = NBestList(((Labeling(()), 0.6), (Labeling((0,)), 0.4 - 5e-10), (Labeling((1,)), 5e-10)))
        y, v, cn = {
            "letter 1e-12": (y_abc, V3, cn_of(({0: 1e-12}, 1.0 - 1e-12))),
            "letter 5e-324": (y_abc, V3, cn_of(({0: 5e-324}, 1.0))),
            "build_cn": (y_ab, vab, build_cn(nbest)),
            "decode_to_cn": (y_ab, vab, decode_to_cn(y_ab, vab, DecodeConfig(16, "partial"))),
        }[case]
        assert max(s.null for s in cn.sets) > 1.0 - 1e-9
        target = compile_cn(cn, v)
        # a group's blank weight: the first group's start weight, and the
        # others' arc from the previous group's first letter, which hops nothing
        blanks = np.flatnonzero(layout(target, v)[0])[:-1]
        got = [target.alpha_hat[blanks[0]]]
        got += [target.transition[a + 1, b] for a, b in zip(blanks, blanks[1:])]
        assert got == [math.fsum(s.alternatives.values()) / s.total() for s in cn.sets]
        try:
            loss = soft_ctc_loss(y, target).loss
        except InfeasibleTarget as err:
            assert "underflow" in str(err)
        else:
            assert loss == pytest.approx(-math.log(oracle_softctc(y, cn, v)), rel=1e-12)

    def test_raw_network_rejected(self):
        raw = ConfusionNetwork((ConfusionSet({0: 2.0}),), normalized=False, total_score=2.0)
        with pytest.raises(ValidationError, match="normalized network"):
            compile_cn(raw, V3)


class TestCompileStructure:
    def test_trivial_cn_matches_linear_chain(self):
        v = Vocabulary.from_characters("ACT")
        lab = v.encode("CAT")
        compiled = compile_cn(trivial_cn(lab), v)
        # plain CTC's chain, built by the independent n-best builder
        linear = compile_nbest(NBestList(((lab, 1.0),)), v)
        assert compiled.num_states == 7
        assert np.array_equal(
            compiled.transition.toarray(), linear.transition.toarray()
        )
        assert np.array_equal(compiled.state_symbols, linear.state_symbols)
        # boundary vectors reproduce the two-initial / two-final state pattern
        assert np.array_equal(np.flatnonzero(compiled.alpha_hat), [0, 1])
        assert np.all(compiled.alpha_hat[[0, 1]] == 1.0)
        assert np.array_equal(np.flatnonzero(compiled.beta_hat), [5, 6])
        assert np.all(compiled.beta_hat[[5, 6]] == 1.0)

    def test_states_ordered_blank_first_per_group(self):
        target = compile_cn(cn_of(({0: 0.6, 1: 0.4}, 0.0), ({2: 1.0}, 0.0)), V3)
        # groups: [#, a, b], [#, c], [#]
        is_blank, group_index = layout(target, V3)
        assert list(is_blank) == [True, False, False, True, False, True]
        assert list(group_index) == [0, 0, 0, 1, 1, 2]
        assert list(target.state_symbols) == [3, 0, 1, 3, 2, 3]

    def test_upper_triangular_unit_diagonal(self):
        target = compile_cn(
            cn_of(({0: 0.5, 1: 0.3}, 0.2), ({1: 0.9}, 0.1), ({2: 1.0}, 0.0)), V3
        )
        a = target.transition.toarray()
        assert np.allclose(a, np.triu(a))
        assert np.all(np.diag(a) == 1.0)

    def test_blank_rows_carry_exactly_unit_letter_mass(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            sets = []
            for _ in range(rng.integers(1, 5)):
                k = int(rng.integers(1, 4))
                syms = rng.choice(3, size=k, replace=False)
                raw = rng.uniform(0.05, 1.0, size=k + 1)
                null = raw[-1] if rng.random() < 0.5 else 0.0
                tot = raw[:k].sum() + null
                sets.append(
                    (
                        {int(s): float(p / tot) for s, p in zip(syms, raw[:k])},
                        float(null / tot),
                    )
                )
            target = compile_cn(cn_of(*sets), V3)
            is_blank, _ = layout(target, V3)
            a = target.transition.toarray()
            for s in range(target.num_states):
                if not is_blank[s]:
                    continue
                off_diag = a[s].sum() - 1.0
                if s == target.num_states - 1:
                    assert off_diag == 0.0  # terminal blank has no successors
                else:
                    assert abs(off_diag - 1.0) < 1e-12

    def test_letter_rows_telescoped_mass_bounded(self):
        target = compile_cn(
            cn_of(({0: 0.5, 1: 0.3}, 0.2), ({1: 0.7}, 0.3), ({2: 1.0}, 0.0)), V3
        )
        is_blank, _ = layout(target, V3)
        a = target.transition.toarray()
        for s in range(target.num_states):
            if is_blank[s]:
                continue
            assert a[s].sum() - 1.0 <= 2.0 + 1e-12

    def test_same_symbol_needs_blank_between_groups(self):
        target = compile_cn(cn_of(({0: 1.0}, 0.0), ({0: 1.0}, 0.0)), V3)
        a = target.transition.toarray()
        # states: [#, a], [#, a], [#]
        assert a[1, 2] > 0.0  # a -> next group's blank
        assert a[1, 3] == 0.0  # no a -> a jump

    def test_cross_group_jump_weights(self):
        # letters pay the skipped groups' null mass and the destination entry
        target = compile_cn(cn_of(({0: 0.9}, 0.1), ({1: 1.0}, 0.0)), V3)
        a = target.transition.toarray()
        # states: [#, a], [#, b], [#]
        assert a[1, 2] == pytest.approx(1.0)  # a -> group-1 blank, weight 1-eps = 1
        assert a[1, 3] == pytest.approx(1.0)  # a -> b, p_in(b) = 1
        # group 1 has eps 0, so a cannot reach the terminal group directly
        assert a[1, 4] == 0.0

    def test_epsilon_chain_truncates_at_unskippable_group(self):
        target = compile_cn(
            cn_of(({0: 0.5}, 0.5), ({1: 0.5}, 0.5), ({2: 1.0}, 0.0), ({0: 1.0}, 0.0)),
            V3,
        )
        a = target.transition.toarray()
        # states: [#,a]=0,1 [#,b]=2,3 [#,c]=4,5 [#,a]=6,7 [#]=8
        assert a[1, 4] == pytest.approx(0.5 * 1.0)  # skip group 1, enter blank
        assert a[1, 5] == pytest.approx(0.5 * 1.0)  # skip group 1, enter c
        assert a[1, 6] == 0.0  # group 2 is unskippable
        assert a[1, 7] == 0.0

    def test_skip_weight_is_product_of_epsilons(self):
        target = compile_cn(
            cn_of(({0: 0.6}, 0.4), ({1: 0.5}, 0.5), ({2: 0.8}, 0.2), ({0: 1.0}, 0.0)),
            V3,
        )
        a = target.transition.toarray()
        # a(state 1) jumping over groups 1 and 2 into group 3's 'a' is blocked
        # by the symbol condition, but into group 3's blank it pays eps1*eps2
        assert a[1, 6] == pytest.approx(0.5 * 0.2 * 1.0)

    def test_rejects_blank_as_alternative(self):
        cn = cn_of(({V3.blank: 1.0}, 0.0))
        with pytest.raises(ValidationError):
            compile_cn(cn, V3)

    def test_rejects_out_of_range_symbol(self):
        cn = cn_of(({17: 1.0}, 0.0))
        with pytest.raises(ValidationError):
            compile_cn(cn, V3)


class TestInitialVectors:
    def test_skippable_first_group_opens_later_starts(self):
        target = compile_cn(cn_of(({0: 0.5}, 0.5), ({1: 1.0}, 0.0)), V3)
        alpha, beta = target.alpha_hat, target.beta_hat
        # states: [#, a], [#, b], [#]
        assert alpha[0] == pytest.approx(0.5)  # blank entry 1 - eps
        assert alpha[1] == pytest.approx(0.5)  # p(a)
        assert alpha[2] == pytest.approx(0.5 * 1.0)  # skipped group 0
        assert alpha[3] == pytest.approx(0.5 * 1.0)
        assert alpha[4] == 0.0  # group 1 unskippable, terminal unreachable

    def test_beta_counts_remaining_skip_mass(self):
        beta = compile_cn(cn_of(({0: 1.0}, 0.0), ({1: 0.3}, 0.7)), V3).beta_hat
        # states: [#, a], [#, b], [#]
        assert beta[1] == pytest.approx(0.7)  # 'a' may end if group 1 is skipped
        assert beta[3] == pytest.approx(1.0)  # 'b' is last real letter
        assert beta[0] == 0.0 and beta[2] == 0.0  # blanks collect no endings
        assert beta[4] == 1.0  # terminal blank accepts endings

    def test_all_epsilon_zero_pattern(self):
        target = compile_cn(cn_of(({0: 1.0}, 0.0), ({1: 1.0}, 0.0)), V3)
        alpha, beta = target.alpha_hat, target.beta_hat
        assert np.array_equal(np.flatnonzero(alpha), [0, 1])
        assert np.array_equal(np.flatnonzero(beta), [3, 4])


class TestCompileNbest:
    def test_single_entry_equals_linear(self):
        v = Vocabulary.from_characters("ACT")
        lab = v.encode("CAT")
        nb = NBestList(((lab, 1.0),))
        target = compile_nbest(nb, v)
        rng = np.random.default_rng(37)
        y = rng.uniform(0.05, 1.0, size=(6, 4))
        y = PosteriorMatrix(y / y.sum(axis=1, keepdims=True))
        # the same chain from the network compiler, which shares no code
        plain = soft_ctc_loss(y, compile_cn(trivial_cn(lab), v))
        soft = soft_ctc_loss(y, target)
        assert soft.loss == pytest.approx(plain.loss, abs=1e-12)

    def test_cat_cut_structure(self):
        v = Vocabulary.from_characters("ACTU")
        nb = NBestList(((v.encode("CAT"), 0.6), (v.encode("CUT"), 0.4)))
        target = compile_nbest(nb, v)
        # shared initial blank + two 5-state chains + shared final blank
        assert target.num_states == 12
        a = target.transition.toarray()
        assert np.allclose(a, np.triu(a))
        assert np.all(np.diag(a) == 1.0)
        # variant weights on the edges leaving the initial blank
        assert a[0, 1] == pytest.approx(0.6)
        assert a[0, 6] == pytest.approx(0.4)
        # mirrored into the start vector
        assert target.alpha_hat[0] == 1.0
        assert target.alpha_hat[1] == pytest.approx(0.6)
        assert target.alpha_hat[6] == pytest.approx(0.4)
        # chains end at the shared final blank, endings free
        assert a[5, 11] == 1.0 and a[10, 11] == 1.0
        assert target.beta_hat[5] == 1.0
        assert target.beta_hat[10] == 1.0
        assert target.beta_hat[11] == 1.0
        # no edges between the two chains
        assert np.all(a[1:6, 6:11] == 0.0)

    def test_weights_normalized_before_encoding(self):
        v = Vocabulary.from_characters("ab")
        nb = NBestList(((v.encode("a"), 0.3), (v.encode("b"), 0.1)))
        target = compile_nbest(nb, v)
        assert target.alpha_hat[1] == pytest.approx(0.75)
        assert target.alpha_hat[2] == pytest.approx(0.25)

    def test_empty_variant_starts_at_final_blank(self):
        v = Vocabulary.from_characters("a")
        nb = NBestList(((v.encode("a"), 0.6), (Labeling(()), 0.4)))
        target = compile_nbest(nb, v)
        # states: b0, a, b_final
        assert target.alpha_hat[2] == pytest.approx(0.4)
        assert target.transition.toarray()[0, 2] == 0.0

        y = PosteriorMatrix(np.array([[0.7, 0.3]]))
        soft = soft_ctc_loss(y, target)
        assert math.exp(-soft.loss) == pytest.approx(0.6 * 0.7 + 0.4 * 0.3, rel=1e-12)

    def test_matches_multictc_on_random_instances(self):
        rng = np.random.default_rng(41)
        v = Vocabulary.from_characters("ab")
        for _ in range(30):
            frames = int(rng.integers(2, 7))
            y = rng.uniform(0.05, 1.0, size=(frames, 3))
            y = PosteriorMatrix(y / y.sum(axis=1, keepdims=True))
            labs = set()
            while len(labs) < rng.integers(2, 5):
                labs.add(tuple(int(x) for x in rng.integers(0, 2, size=rng.integers(0, 4))))
            w = rng.uniform(0.1, 1.0, size=len(labs))
            w /= w.sum()
            nb = NBestList(tuple((Labeling(t), float(x)) for t, x in zip(sorted(labs), w)))
            try:
                naive = multi_ctc(y, nb, v)
            except InfeasibleTarget:
                continue
            soft = soft_ctc_loss(y, compile_nbest(nb, v))
            assert abs(soft.loss - naive.loss) < 1e-8

    def test_matches_enumeration_on_random_lists(self):
        # the judge shares no code with the compiler: sum_i (w_i / W) times
        # the enumerated probability of each variant; a one-entry list is
        # plain CTC
        rng = np.random.default_rng(43)
        v = Vocabulary.from_characters("ab")
        seen = dict.fromkeys(("one_entry", "empty", "repeat", "infeasible"), 0)
        for _ in range(400):
            frames = int(rng.integers(1, 6))
            y = rng.uniform(0.05, 1.0, size=(frames, 3))
            y[rng.random(y.shape) < 0.1] = 0.0
            y[:, 2] += 1e-3  # rows stay positive
            y = PosteriorMatrix(y / y.sum(axis=1, keepdims=True))
            labs = set()
            while len(labs) < rng.integers(1, 5):
                labs.add(tuple(int(x) for x in rng.integers(0, 2, size=rng.integers(0, 5))))
            nb = NBestList(
                tuple((Labeling(t), float(rng.uniform(0.05, 1.0))) for t in sorted(labs))
            )
            expected = sum(
                w / nb.total_weight * enumerate_ctc(y, lab, v) for lab, w in nb
            )
            seen["one_entry"] += len(nb) == 1
            seen["empty"] += () in labs
            seen["repeat"] += any(a == b for t in labs for a, b in zip(t, t[1:]))
            try:
                soft = soft_ctc_loss(y, compile_nbest(nb, v))
            except InfeasibleTarget:
                assert expected == 0.0
                seen["infeasible"] += 1
                continue
            assert math.exp(-soft.loss) == pytest.approx(expected, rel=1e-9)
        assert min(seen.values()) >= 20, seen

    def test_rejects_blank_in_variant(self):
        v = Vocabulary.from_characters("a")
        nb = NBestList(((Labeling((v.blank,)), 1.0),))
        with pytest.raises(ValidationError):
            compile_nbest(nb, v)


class TestHandBuiltTargets:
    """A CompiledTarget built by hand is checked field by field on construction."""

    # the one-letter chain: blank, "a", blank
    CHAIN = compile_nbest(NBestList(((Labeling((0,)), 1.0),)), V3)

    def fields(self, **changed):
        t = self.CHAIN
        fields = dict(transition=t.transition, state_symbols=t.state_symbols,
                      alpha_hat=t.alpha_hat, beta_hat=t.beta_hat)
        return {**fields, **changed}

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint64])
    def test_valid_fields_build_the_same_target(self, dtype):
        y = PosteriorMatrix(np.random.default_rng(5).dirichlet(np.ones(len(V3)), size=6))
        rebuilt = CompiledTarget(**self.fields(state_symbols=self.CHAIN.state_symbols.astype(dtype)))
        assert soft_ctc_loss(y, rebuilt).loss == soft_ctc_loss(y, self.CHAIN).loss

    @pytest.mark.parametrize("name, value, match", [
        ("transition", sp.csc_matrix(np.eye(3)), "transition must be a square real CSR matrix"),
        ("transition", np.eye(3), "transition must be a square real CSR matrix"),
        ("transition", sp.csr_matrix(np.ones((3, 4))), "transition must be a square real CSR matrix"),
        ("transition", sp.csr_matrix(np.eye(3, dtype=complex)), "transition must be a square real CSR"),
        ("transition", sp.csr_matrix([[1.0, -0.5, 0], [0, 1, 1], [0, 0, 1]]),
         r"transition weights must be finite and nonnegative, got np.float64\(-0.5\) at \(0, 1\)"),
        ("transition", sp.csr_matrix([[1.0, 1, 0], [0, 1, np.nan], [0, 0, 1]]),
         r"transition weights .* got np.float64\(nan\) at \(1, 2\)"),
        ("transition", sp.csr_matrix([[1.0, 1, 0], [0, np.inf, 1], [0, 0, 1]]),
         r"transition weights .* got np.float64\(inf\) at \(1, 1\)"),
        ("state_symbols", np.array([3, -1, 3]), r"state_symbols .* got np.int64\(-1\) at state 1"),
        ("state_symbols", np.array([3.0, 0.0, 3.0]), r"state_symbols must hold one nonnegative integer"),
        ("state_symbols", np.array([3, 0]), r"state_symbols .* per state \(3\), got int64 of shape \(2,\)"),
        ("alpha_hat", np.array([1.0, -0.01, 0.0]), r"alpha_hat .* got np.float64\(-0.01\) at state 1"),
        ("alpha_hat", np.array([1.0, 1.0]), r"alpha_hat .* per state \(3\), got float64 of shape \(2,\)"),
        ("alpha_hat", np.array([1.0, np.nan, 0.0]), r"alpha_hat .* got np.float64\(nan\) at state 1"),
        ("beta_hat", np.array([0.0, np.inf, 1.0]), r"beta_hat .* got np.float64\(inf\) at state 1"),
        ("beta_hat", np.array([[0.0, 1.0, 1.0]]), r"beta_hat .* got float64 of shape \(1, 3\)"),
        ("beta_hat", np.array(["0", "1", "1"]), r"beta_hat must hold one finite, nonnegative weight"),
    ])
    def test_invalid_field_raises_naming_it(self, name, value, match):
        with pytest.raises(ValidationError, match=match):
            CompiledTarget(**self.fields(**{name: value}))

    def test_arrays_are_frozen_after_construction(self):
        y = PosteriorMatrix(np.random.default_rng(5).dirichlet(np.ones(len(V3)), size=6))
        loss = soft_ctc_loss(y, self.CHAIN).loss
        t = self.CHAIN
        for a in (t.transition.data, t.transition.indices, t.transition.indptr,
                  t.state_symbols, t.alpha_hat, t.beta_hat):
            with pytest.raises(ValueError, match="read-only"):
                a[1] = -1
        assert soft_ctc_loss(y, t).loss == loss

    def test_hand_built_target_copies_its_fields(self):
        m = self.CHAIN.transition
        # scipy narrows indices it builds itself to int32; set int64 by hand
        transition = sp.csr_matrix((m.data.astype(np.float32), m.indices, m.indptr), shape=m.shape)
        transition.indices = transition.indices.astype(np.int64)
        transition.indptr = transition.indptr.astype(np.int64)
        fields = dict(transition=transition, state_symbols=self.CHAIN.state_symbols.astype(np.int32),
                      alpha_hat=self.CHAIN.alpha_hat.astype(np.float32),
                      beta_hat=self.CHAIN.beta_hat.astype(np.int64))
        target = CompiledTarget(**fields)
        arrays = {name: getattr(target, name) for name in ("state_symbols", "alpha_hat", "beta_hat")}
        arrays.update((name, getattr(target.transition, name)) for name in ("data", "indices", "indptr"))
        given = {name: fields[name] for name in ("state_symbols", "alpha_hat", "beta_hat")}
        given.update((name, getattr(transition, name)) for name in ("data", "indices", "indptr"))
        for name, a in arrays.items():
            assert a.dtype == given[name].dtype, name
            assert np.array_equal(a, given[name]), name
            assert not a.flags.writeable and given[name].flags.writeable, name
        # the caller's arrays stay the caller's
        fields["alpha_hat"][1] = 0.0
        transition.data[1] = 0.0
        assert target.alpha_hat[1] == self.CHAIN.alpha_hat[1]
        assert target.transition.data[1] == m.data[1]


def test_trivial_cn_target():
    v = Vocabulary.from_characters("ab")
    target = compile_cn(trivial_cn(v.encode("ab")), v)
    assert target.num_states == 5


class TestMatchesReferenceCompiler:
    """The array-built compiler against the arc-at-a-time reference loop, bitwise."""

    V = Vocabulary.from_characters("abcd")

    @staticmethod
    def assert_bitwise(cn, v):
        got, want = compile_cn(cn, v), reference_compile_cn(cn, v)
        pairs = [
            (name, getattr(got.transition, name), getattr(want.transition, name))
            for name in ("indptr", "indices", "data")
        ] + [
            (name, getattr(got, name), getattr(want, name))
            for name in ("state_symbols", "alpha_hat", "beta_hat")
        ]
        for name, a, b in pairs:
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert got.transition.shape == want.transition.shape
        return got

    @staticmethod
    def rand_cn(rng, null_rate):
        sets = []
        for _ in range(int(rng.integers(1, 25))):
            # two letters out of four: repeats across skippable sets are common
            k = int(rng.integers(1, 3))
            syms = rng.choice(4, size=k, replace=False)
            raw = rng.uniform(0.05, 1.0, size=k + 1)
            null = raw[-1] if rng.random() < null_rate else 0.0
            tot = raw[:k].sum() + null
            sets.append(
                ConfusionSet({int(s): float(p / tot) for s, p in zip(syms, raw[:k])}, float(null / tot))
            )
        return ConfusionNetwork(tuple(sets))

    def rand_merged(self, rng):
        raw = []
        for _ in range(int(rng.integers(2, 5))):
            entries = {}
            for _ in range(int(rng.integers(1, 4))):
                length = int(rng.integers(1, 8))
                entries[tuple(int(s) for s in rng.integers(0, 4, size=length))] = float(
                    rng.uniform(0.05, 1.0)
                )
            nbest = NBestList(tuple((Labeling(s), w) for s, w in entries.items()))
            raw.append(build_cn(nbest, normalize=False))
        return merge_cns(raw)

    def test_random_networks(self):
        rng = np.random.default_rng(113)
        null_sets = 0
        for i in range(240):
            kind = i % 4
            if kind == 3:
                cn = self.rand_merged(rng)
            else:
                cn = self.rand_cn(rng, null_rate=(0.0, 0.5, 0.9)[kind])
            for variant in (cn, smooth(cn, 2.0), smooth(cn, np.inf)):
                self.assert_bitwise(variant, self.V)
            null_sets += sum(1 for s in cn.sets if s.null > 0.0)
        assert null_sets > 500

    def test_empty_network(self):
        target = self.assert_bitwise(ConfusionNetwork(()), self.V)
        assert target.num_states == 1
        assert target.transition.nnz == 1

    def test_exact_zero_epsilon_mid_network(self):
        cn = cn_of(
            ({0: 0.5}, 0.5),
            ({1: 0.25, 2: 0.25}, 0.5),
            ({0: 1.0}, 0.0),
            ({0: 0.5, 3: 0.25}, 0.25),
            ({1: 0.5}, 0.5),
        )
        target = self.assert_bitwise(cn, self.V)
        # no jump from the first two groups reaches past the unskippable third
        first_letter = 1
        group_index = layout(target, self.V)[1]
        assert group_index[target.transition[first_letter].indices].max() == 2

    def test_long_chain_breaks_where_the_hop_underflows(self):
        cn = ConfusionNetwork(
            tuple(ConfusionSet({i % 3: 0.999}, 0.001) for i in range(400))
        )
        target = self.assert_bitwise(cn, self.V)
        # 0.001**k reaches exactly 0.0 after about 108 skipped groups, long
        # before the chain ends, so the first letter's row stops there
        reach = layout(target, self.V)[1][target.transition[1].indices].max()
        assert 100 < reach < 120

    @staticmethod
    def reach(target, v):
        """The last group each state's row reaches."""
        group_index = layout(target, v)[1]
        t = target.transition
        return group_index[t.indices[t.indptr[1:] - 1]]

    def test_long_null_run_beside_null_free_sets(self):
        rng = np.random.default_rng(211)
        plain = [({int(i % 4): 1.0}, 0.0) for i in range(6)]
        run = []
        for _ in range(150):
            syms = rng.choice(4, size=2, replace=False)
            null = float(rng.uniform(0.3, 0.9))
            p = float(rng.uniform(0.1, 0.9)) * (1.0 - null)
            run.append(({int(syms[0]): p, int(syms[1]): 1.0 - null - p}, null))
        target = self.assert_bitwise(cn_of(*plain, *run, *plain), self.V)
        reach = self.reach(target, self.V)
        letters = target.state_symbols != self.V.blank
        # the letters before the run jump to the next set, the last of them
        # and the run's own over the rest of the run to the null-free set after it
        group_index = layout(target, self.V)[1]
        assert list(reach[letters][:6]) == [1, 2, 3, 4, 5, 156]
        assert np.all(reach[letters & (group_index >= 6) & (group_index < 156)] == 156)

    def test_hop_underflowing_mid_run_before_any_unskippable_set(self):
        # every set is skippable up to the terminal group, so only underflow
        # ends a run.  A hop of 1e-200 dies after the second set it skips.
        # From 1e-310 a chain of 0.75 settles on two units of the last place
        # of the subnormals (1.5 units round to even), which a skip mass of
        # 0.5 halves to one unit and a second rounds to zero.
        sets = [({0: 0.5, 1: 0.5 - 1e-200}, 1e-200) for _ in range(6)]
        sets += [({2: 1.0 - 1e-300}, 1e-300), ({3: 1.0 - 1e-10}, 1e-10)]
        sets += [({i % 4: 0.25}, 0.75) for i in range(120)]
        sets += [({1: 0.5}, 0.5), ({2: 0.5}, 0.5)] + [({i % 3: 0.4}, 0.6) for i in range(20)]
        cn = cn_of(*sets)
        assert min(s.null for s in cn.sets) > 0.0
        target = self.assert_bitwise(cn, self.V)
        reach = self.reach(target, self.V)
        group_index = layout(target, self.V)[1]
        letters = np.flatnonzero(target.state_symbols != self.V.blank)
        assert reach[letters[0]] == 2  # hops 1, 1e-200, then 1e-400 rounds to 0
        # the last letter before the 1e-300 set hops into the first 0.5 set
        # with two units, so its arcs there weigh one; the hop of one unit
        # into the second set gives arcs that round to zero
        source = letters[group_index[letters] == 5][0]
        assert reach[source] == 6 + 2 + 120
        assert target.transition[source].data.min() == 5e-324
        # the 0.5 sets' own letters run on to the terminal group
        assert reach[letters[group_index[letters] == 128][0]] == len(cn.sets)

    def test_skip_runs_of_very_different_lengths(self):
        rng = np.random.default_rng(223)
        sets = []
        for length in (0, 1, 2, 3, 5, 17, 64, 0, 130, 4, 1):
            sets.append(({int(rng.integers(4)): 1.0}, 0.0))  # unskippable
            for _ in range(length):
                null = float(rng.uniform(0.05, 0.95))
                sets.append(({int(rng.integers(4)): 1.0 - null}, null))
        target = self.assert_bitwise(cn_of(*sets), self.V)
        letters = target.state_symbols != self.V.blank
        group_index = layout(target, self.V)[1]
        reached = self.reach(target, self.V)[letters] - group_index[letters]
        # one letter per set: each jumps to the next unskippable set, or the
        # terminal group
        unskippable = [i for i, (_, null) in enumerate(sets) if null == 0.0] + [len(sets)]
        want = [next(u for u in unskippable if u > g) - g for g in range(len(sets))]
        assert list(reached) == want

    @pytest.mark.parametrize(
        "sets",
        [
            [({0: 1.0}, 0.0)],  # one set: its letter jumps only to the terminal group
            [({0: 0.25, 1: 0.25}, 0.5)],  # a skippable first and last set
            [({0: 0.5}, 0.5), ({0: 0.5}, 0.5)],  # same symbol: the jump is left out
            [({1: 1e-300}, 1.0 - 1e-300), ({2: 1.0}, 0.0)],  # null mass near one
            [({0: 0.1}, 0.9)] * 3 + [({1: 1.0}, 0.0)],
        ],
    )
    def test_letterless_terminal_group_edges(self, sets):
        target = self.assert_bitwise(cn_of(*sets), self.V)
        # the terminal blank's row is its diagonal alone
        t = target.transition
        assert t.indptr[-1] - t.indptr[-2] == 1 and t.indices[-1] == target.num_states - 1

    def test_weight_underflowing_to_zero_is_left_out(self):
        # the hop into the last set is subnormal but nonzero, and times the
        # rare letter's probability it rounds to exactly 0.0
        cn = cn_of(
            ({0: 1.0}, 0.0),
            ({1: 1.0}, 1e-300),
            ({2: 1.0}, 1e-20),
            ({1: 1e-5, 3: 1.0 - 1e-5}, 0.0),
        )
        target = self.assert_bitwise(cn, self.V)
        row = target.transition[1]
        last_group = np.flatnonzero(layout(target, self.V)[1] == 3)
        reached = set(row.indices[row.data > 0.0]) & set(last_group)
        assert reached == {last_group[0], last_group[2]}  # blank and symbol 3
        assert 0 < target.transition[1, last_group[2]] < 1e-300

    def test_invalid_symbol_names_the_first_offending_set(self):
        cn = cn_of(
            ({0: 1.0}, 0.0),
            ({1: 0.5, self.V.blank: 0.5}, 0.0),
            ({9: 1.0}, 0.0),
        )
        with pytest.raises(ValidationError) as want:
            reference_compile_cn(cn, self.V)
        with pytest.raises(ValidationError) as got:
            compile_cn(cn, self.V)
        assert str(got.value) == str(want.value) == "set 1 contains an invalid symbol 4"

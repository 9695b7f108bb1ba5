import math

import numpy as np
import pytest

from softctc import (
    InfeasibleTarget,
    Labeling,
    NBestList,
    NonFiniteEntry,
    PosteriorMatrix,
    ValidationError,
    Vocabulary,
    compile_nbest,
    ctc_loss,
    multi_ctc,
    soft_ctc_loss,
    soft_ctc_value_at,
)
from softctc.oracle import enumerate_ctc, finite_difference_grad

VA = Vocabulary.from_characters("a")


def rand_posteriors(rng, frames, vocab):
    y = rng.uniform(0.05, 1.0, size=(frames, vocab))
    return PosteriorMatrix(y / y.sum(axis=1, keepdims=True))


def test_single_frame_single_letter():
    y = PosteriorMatrix(np.array([[0.7, 0.3]]))
    result = ctc_loss(y, Labeling((0,)), VA)
    assert result.loss == pytest.approx(-math.log(0.7), rel=1e-12)
    assert result.log_likelihood == pytest.approx(math.log(0.7), rel=1e-12)


def test_two_frame_hand_enumeration():
    y = PosteriorMatrix(np.array([[0.6, 0.4], [0.5, 0.5]]))
    result = ctc_loss(y, Labeling((0,)), VA)
    assert math.exp(result.log_likelihood) == pytest.approx(0.8, rel=1e-12)


def test_empty_labeling_probability_is_all_blank_product():
    y = PosteriorMatrix(np.array([[0.6, 0.4], [0.5, 0.5]]))
    result = ctc_loss(y, Labeling(()), VA)
    assert math.exp(result.log_likelihood) == pytest.approx(0.4 * 0.5, rel=1e-12)


def test_infeasible_when_line_too_short():
    y = PosteriorMatrix(np.array([[0.5, 0.3, 0.2]]))
    v = Vocabulary.from_characters("ab")
    with pytest.raises(InfeasibleTarget):
        ctc_loss(y, v.encode("ab"), v)


def test_infeasible_repeated_letter_needs_separating_blank():
    # "aa" needs at least 3 frames: a, blank, a.
    y = PosteriorMatrix(np.full((2, 2), 0.5))
    with pytest.raises(InfeasibleTarget):
        ctc_loss(y, Labeling((0, 0)), VA)


def test_zero_posterior_on_only_path_is_infeasible():
    y = PosteriorMatrix(np.array([[0.0, 1.0]]))
    with pytest.raises(InfeasibleTarget):
        ctc_loss(y, Labeling((0,)), VA)


def plain_target(l, v):
    """The target plain CTC scores: the one-entry n-best list of ``l``."""
    return compile_nbest(NBestList(((l, 1.0),)), v)


class TestLinearTransitionMatrix:
    def test_cat_structure(self):
        v = Vocabulary.from_characters("ACT")
        target = plain_target(v.encode("CAT"), v)
        a = target.transition.toarray()
        assert a.shape == (7, 7)
        # starts at the first blank or letter, ends at the last letter or blank
        assert np.array_equal(np.flatnonzero(target.alpha_hat), [0, 1])
        assert np.all(target.alpha_hat[[0, 1]] == 1.0)
        assert np.array_equal(np.flatnonzero(target.beta_hat), [5, 6])
        assert np.all(target.beta_hat[[5, 6]] == 1.0)
        # states: # C # A # T #
        assert list(target.state_symbols[1::2]) == list(v.encode("CAT").symbols)
        assert all(target.state_symbols[i] == v.blank_index for i in range(0, 7, 2))
        # self loops and successor edges everywhere
        assert np.all(np.diag(a) == 1.0)
        assert np.all(np.diag(a, k=1) == 1.0)
        # skip edges C->A and A->T
        assert a[1, 3] == 1.0 and a[3, 5] == 1.0
        # upper triangular
        assert np.allclose(a, np.triu(a))

    def test_repeated_letter_has_no_skip(self):
        target = plain_target(Labeling((0, 0)), VA)
        a = target.transition.toarray()
        assert a[1, 3] == 0.0

    def test_empty_labeling_single_blank_state(self):
        # the two boundary blanks; every alignment stays in the final one,
        # since the initial blank has no exit and accepts no ending
        target = plain_target(Labeling(()), VA)
        assert target.transition.toarray().tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert list(target.state_symbols) == [VA.blank_index] * 2
        assert list(target.alpha_hat) == [1.0, 1.0]
        assert list(target.beta_hat) == [0.0, 1.0]
        y = PosteriorMatrix(np.array([[0.6, 0.4], [0.5, 0.5], [0.1, 0.9]]))
        result = soft_ctc_loss(y, target)
        assert math.exp(-result.loss) == pytest.approx(0.4 * 0.5 * 0.9, rel=1e-12)


@pytest.mark.parametrize("symbol", [1, 2])
def test_invalid_symbol_is_rejected(symbol):
    # 1 is the blank of VA, 2 lies outside it
    with pytest.raises(ValidationError, match=f"variant 0 contains an invalid symbol {symbol}"):
        ctc_loss(PosteriorMatrix(np.full((3, 2), 0.5)), Labeling((0, symbol)), VA)


@pytest.mark.parametrize("width", [2, 4])
def test_vocabulary_of_another_width_is_rejected(width):
    # 4 columns are too wide for VA's 2 symbols, 2 too narrow for "ab" and
    # its blank
    v = VA if width == 4 else Vocabulary.from_characters("ab")
    y = rand_posteriors(np.random.default_rng(3), 5, width)
    with pytest.raises(ValidationError, match=f"posterior has {width} columns but vocabulary has {len(v)} symbols"):
        ctc_loss(y, Labeling((0,)), v)


def test_matches_oracle_on_small_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        vocab = int(rng.integers(2, 5))
        v = Vocabulary.from_characters("abc"[: vocab - 1])
        frames = int(rng.integers(1, 7))
        length = int(rng.integers(0, 4))
        lab = Labeling(tuple(int(s) for s in rng.integers(0, vocab - 1, size=length)))
        y = rand_posteriors(rng, frames, vocab)
        expected = enumerate_ctc(y, lab, v)
        try:
            result = ctc_loss(y, lab, v)
        except InfeasibleTarget:
            assert expected == 0.0
            continue
        assert math.exp(result.log_likelihood) == pytest.approx(expected, rel=1e-9)


def test_posterior_mass_invariant_in_t():
    rng = np.random.default_rng(11)
    v = Vocabulary.from_characters("ab")
    for _ in range(20):
        frames = int(rng.integers(2, 8))
        y = rand_posteriors(rng, frames, 3)
        lab = Labeling((0, 1))
        try:
            result = ctc_loss(y, lab, v)
        except InfeasibleTarget:
            continue
        p = math.exp(result.log_likelihood)
        target = plain_target(lab, v)
        for t in range(frames):
            assert soft_ctc_value_at(y, target, t) == pytest.approx(p, rel=1e-10)


def test_loss_permutation_invariant_under_relabeling():
    rng = np.random.default_rng(13)
    v = Vocabulary.from_characters("abc")
    y = rand_posteriors(rng, 5, 4)
    lab = Labeling((0, 2))
    base = ctc_loss(y, lab, v)
    # swap symbols 0 and 2 consistently
    perm = np.array([2, 1, 0, 3])
    y_perm = PosteriorMatrix(y.frames[:, perm])
    lab_perm = Labeling((2, 0))
    swapped = ctc_loss(y_perm, lab_perm, v)
    assert swapped.loss == pytest.approx(base.loss, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    v = Vocabulary.from_characters("ab")
    for _ in range(15):
        frames = int(rng.integers(2, 6))
        y = rand_posteriors(rng, frames, 3)
        lab = Labeling(tuple(int(s) for s in rng.integers(0, 2, size=rng.integers(1, 3))))
        try:
            result = ctc_loss(y, lab, v)
        except InfeasibleTarget:
            continue
        fd = finite_difference_grad(lambda m: ctc_loss(m, lab, v).loss, y)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(fd - result.grad).max() / scale < 1e-4


def test_gradient_zero_where_posterior_zero():
    y = PosteriorMatrix(np.array([[0.7, 0.0, 0.3], [0.5, 0.0, 0.5]]))
    v = Vocabulary.from_characters("ab")
    result = ctc_loss(y, Labeling((0,)), v)
    assert np.all(result.grad[:, 1] == 0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_posterior_raises_instead_of_returning_nan(value):
    # the loss is reached without validation; a NaN or inf entry must not
    # turn into a NaN loss with a silently zeroed gradient row
    y = PosteriorMatrix(np.array([[0.7, 0.0, 0.3], [value, 0.2, 0.3], [0.5, 0.0, 0.5]]))
    v = Vocabulary.from_characters("ab")
    with pytest.raises(NonFiniteEntry) as exc:
        ctc_loss(y, Labeling((0,)), v)
    assert (exc.value.t, exc.value.k) == (1, 0)


def test_non_finite_entry_in_unused_column_raises():
    # target "a" never reads column 1, so the kernel alone would not see it
    y = PosteriorMatrix(np.array([[0.7, float("nan"), 0.3], [0.5, 0.0, 0.5]]))
    v = Vocabulary.from_characters("ab")
    with pytest.raises(NonFiniteEntry) as exc:
        ctc_loss(y, Labeling((0,)), v)
    assert (exc.value.t, exc.value.k) == (0, 1)


def test_long_line_rescaling_stays_finite():
    rng = np.random.default_rng(19)
    v = Vocabulary.from_characters("ab")
    y = rand_posteriors(rng, 400, 3)
    lab = Labeling((0, 1) * 10)
    result = ctc_loss(y, lab, v)
    assert math.isfinite(result.loss)
    assert np.all(np.isfinite(result.grad))
    # unscaled probability would underflow 64-bit range at this length
    assert result.loss > 200.0


class TestMultiCtc:
    def test_single_variant_equals_plain(self):
        rng = np.random.default_rng(23)
        v = Vocabulary.from_characters("ab")
        y = rand_posteriors(rng, 4, 3)
        lab = Labeling((0, 1))
        plain = ctc_loss(y, lab, v)
        combined = multi_ctc(y, NBestList(((lab, 1.0),)), v)
        assert combined.loss == pytest.approx(plain.loss, abs=1e-12)
        assert np.allclose(combined.grad, plain.grad, atol=1e-12)

    def test_weighted_sum_hand_value(self):
        v = Vocabulary.from_characters("ab")
        y = PosteriorMatrix(np.array([[0.5, 0.3, 0.2]]))
        nb = NBestList(((Labeling((0,)), 0.6), (Labeling((1,)), 0.4)))
        result = multi_ctc(y, nb, v)
        assert math.exp(-result.loss) == pytest.approx(0.42, rel=1e-12)

    def test_infeasible_variants_contribute_zero(self):
        v = Vocabulary.from_characters("ab")
        y = PosteriorMatrix(np.array([[0.5, 0.3, 0.2]]))
        nb = NBestList(((Labeling((0,)), 0.6), (v.encode("ab"), 0.4)))
        result = multi_ctc(y, nb, v)
        assert math.exp(-result.loss) == pytest.approx(0.6 * 0.5, rel=1e-12)

    def test_all_variants_infeasible_raises(self):
        v = Vocabulary.from_characters("ab")
        y = PosteriorMatrix(np.array([[0.5, 0.3, 0.2]]))
        nb = NBestList(((v.encode("ab"), 0.5), (v.encode("ba"), 0.5)))
        with pytest.raises(InfeasibleTarget):
            multi_ctc(y, nb, v)

    def test_gradient_is_probability_weighted_mixture(self):
        rng = np.random.default_rng(29)
        v = Vocabulary.from_characters("ab")
        y = rand_posteriors(rng, 4, 3)
        nb = NBestList(((Labeling((0,)), 0.7), (Labeling((1, 0)), 0.3)))
        result = multi_ctc(y, nb, v)
        fd = finite_difference_grad(lambda m: multi_ctc(m, nb, v).loss, y)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(fd - result.grad).max() / scale < 1e-4

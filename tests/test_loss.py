import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    InfeasibleTarget,
    Labeling,
    NBestList,
    NonFiniteEntry,
    PosteriorMatrix,
    ValidationError,
    Vocabulary,
    compile_cn,
    compile_nbest,
    ctc_loss,
    soft_ctc_batch,
    soft_ctc_loss,
    soft_ctc_value_at,
    trivial_cn,
)
from softctc.oracle import finite_difference_grad, oracle_softctc

V = Vocabulary.from_characters("ab")


def rand_posteriors(rng, frames, vocab=3):
    y = rng.uniform(0.05, 1.0, size=(frames, vocab))
    return PosteriorMatrix(y / y.sum(axis=1, keepdims=True))


def rand_cn(rng, max_sets=4, max_alts=2, vocab_letters=2):
    sets = []
    for _ in range(rng.integers(1, max_sets + 1)):
        k = int(rng.integers(1, max_alts + 1))
        syms = rng.choice(vocab_letters, size=k, replace=False)
        raw = rng.uniform(0.1, 1.0, size=k + 1)
        null = raw[-1] if rng.random() < 0.5 else 0.0
        tot = raw[:k].sum() + null
        sets.append(
            ConfusionSet(
                {int(s): float(p / tot) for s, p in zip(syms, raw[:k])},
                float(null / tot),
            )
        )
    return ConfusionNetwork(tuple(sets))


def test_trivial_target_equals_plain_ctc():
    rng = np.random.default_rng(43)
    for _ in range(50):
        frames = int(rng.integers(1, 8))
        length = int(rng.integers(0, 4))
        lab = Labeling(tuple(int(s) for s in rng.integers(0, 2, size=length)))
        y = rand_posteriors(rng, frames)
        try:
            plain = ctc_loss(y, lab, V)
        except InfeasibleTarget:
            continue
        soft = soft_ctc_loss(y, compile_cn(trivial_cn(lab), V))
        assert abs(soft.loss - plain.loss) < 1e-10
        assert np.allclose(soft.grad, plain.grad, atol=1e-10)


def test_weighted_sum_hand_value():
    target = compile_nbest(
        NBestList(((Labeling((0,)), 0.6), (Labeling((1,)), 0.4))), V
    )
    y = PosteriorMatrix(np.array([[0.5, 0.3, 0.2]]))
    result = soft_ctc_loss(y, target)
    assert result.loss == pytest.approx(-math.log(0.42), rel=1e-12)


def test_matches_enumeration_oracle_on_random_cns():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 60:
        cn = rand_cn(rng)
        y = rand_posteriors(rng, int(rng.integers(1, 7)))
        expected = oracle_softctc(y, cn, V)
        try:
            result = soft_ctc_loss(y, compile_cn(cn, V))
        except InfeasibleTarget:
            assert expected == 0.0
            checked += 1
            continue
        assert math.exp(result.log_likelihood) == pytest.approx(expected, rel=1e-6)
        checked += 1


PROBS = st.floats(0.05, 1.0)


@st.composite
def small_cns(draw):
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        syms = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2, unique=True))
        raw = [draw(PROBS) for _ in syms]
        null = draw(st.one_of(st.just(0.0), PROBS))
        tot = sum(raw) + null
        sets.append(ConfusionSet({s: p / tot for s, p in zip(syms, raw)}, null / tot))
    return ConfusionNetwork(tuple(sets))


@st.composite
def small_posteriors(draw):
    frames = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(PROBS, min_size=3, max_size=3), min_size=frames, max_size=frames))
    y = np.array(rows)
    return PosteriorMatrix(y / y.sum(axis=1, keepdims=True))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(cn=small_cns(), y=small_posteriors())
def test_property_compiled_loss_matches_enumeration_oracle(cn, y):
    expected = oracle_softctc(y, cn, V)
    try:
        result = soft_ctc_loss(y, compile_cn(cn, V))
    except InfeasibleTarget:
        assert expected == 0.0
        return
    assert math.exp(result.log_likelihood) == pytest.approx(expected, rel=1e-6)


def test_infeasible_when_line_shorter_than_mandatory_groups():
    # two unskippable same-letter groups need a separating blank: T >= 3
    cn = ConfusionNetwork((ConfusionSet({0: 1.0}), ConfusionSet({0: 1.0})))
    y = PosteriorMatrix(np.full((2, 3), 1.0 / 3.0))
    with pytest.raises(InfeasibleTarget):
        soft_ctc_loss(y, compile_cn(cn, V))


def test_skippable_groups_relax_the_minimum_length():
    # same two groups, but the second may be skipped entirely
    cn = ConfusionNetwork((ConfusionSet({0: 1.0}), ConfusionSet({0: 0.5}, 0.5)))
    y = PosteriorMatrix(np.full((1, 3), 1.0 / 3.0))
    result = soft_ctc_loss(y, compile_cn(cn, V))
    # only the skip variant fits one frame: weight 0.5, emission 1/3
    assert math.exp(result.log_likelihood) == pytest.approx(0.5 / 3.0, rel=1e-12)


def test_infeasible_text_prints_the_mass_as_a_plain_float():
    # frame 0 gives the letter and the blank no mass
    y = PosteriorMatrix(np.array([[0.0, 0.5, 0.0], [0.6, 0.1, 0.3]]))
    with pytest.raises(InfeasibleTarget) as got:
        soft_ctc_loss(y, compile_cn(trivial_cn([0]), V))
    assert str(got.value) == "line 0: forward mass 0.0 at frame 0; target admits no alignment"


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 25:
        cn = rand_cn(rng)
        y = rand_posteriors(rng, int(rng.integers(2, 7)))
        try:
            target = compile_cn(cn, V)
            result = soft_ctc_loss(y, target)
        except InfeasibleTarget:
            continue
        fd = finite_difference_grad(lambda m: soft_ctc_loss(m, target).loss, y)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(fd - result.grad).max() / scale < 1e-4
        checked += 1


def test_long_line_gradient_finite_under_rescaling():
    rng = np.random.default_rng(59)
    cn = rand_cn(rng, max_sets=4)
    y = rand_posteriors(rng, 300)
    result = soft_ctc_loss(y, compile_cn(cn, V))
    assert math.isfinite(result.loss)
    assert np.all(np.isfinite(result.grad))


class TestValueAt:
    def test_invariant_over_frames(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            cn = rand_cn(rng)
            y = rand_posteriors(rng, int(rng.integers(2, 8)))
            try:
                target = compile_cn(cn, V)
                result = soft_ctc_loss(y, target)
            except InfeasibleTarget:
                continue
            p = math.exp(result.log_likelihood)
            for t in range(y.num_frames):
                assert soft_ctc_value_at(y, target, t) == pytest.approx(p, rel=1e-10)

    def test_trivial_target_value_matches_ctc(self):
        y = PosteriorMatrix(np.array([[0.6, 0.2, 0.2], [0.3, 0.2, 0.5]]))
        target = compile_cn(trivial_cn(Labeling((0,))), V)
        plain = ctc_loss(y, Labeling((0,)), V)
        assert soft_ctc_value_at(y, target, 0) == pytest.approx(
            math.exp(-plain.loss), rel=1e-12
        )

    def test_infeasible_instance_gives_zero_everywhere(self):
        cn = ConfusionNetwork((ConfusionSet({0: 1.0}), ConfusionSet({0: 1.0})))
        y = PosteriorMatrix(np.full((2, 3), 1.0 / 3.0))
        target = compile_cn(cn, V)
        for t in range(2):
            assert soft_ctc_value_at(y, target, t) == 0.0

    def test_frame_out_of_range_rejected(self):
        y = PosteriorMatrix(np.full((2, 3), 1.0 / 3.0))
        target = compile_cn(trivial_cn(Labeling((0,))), V)
        with pytest.raises(ValidationError):
            soft_ctc_value_at(y, target, 2)

    @pytest.mark.parametrize("t", [2.5, 1.0, True, np.bool_(True), "1", None],
                             ids=["2.5", "1.0", "True", "np.True_", "str", "None"])
    def test_frame_that_is_not_an_integer_rejected(self, t):
        y = PosteriorMatrix(np.array([[0.6, 0.2, 0.2], [0.3, 0.2, 0.5]]))
        target = compile_cn(trivial_cn(Labeling((0,))), V)
        with pytest.raises(ValidationError, match="frame must be an integer"):
            soft_ctc_value_at(y, target, t)
        # numpy integers are integers
        assert soft_ctc_value_at(y, target, np.int64(1)) == soft_ctc_value_at(y, target, 1)


def test_state_symbols_must_fit_posterior_width():
    y = PosteriorMatrix(np.full((2, 2), 0.5))
    target = compile_cn(trivial_cn(Labeling((0,))), V)  # blank index 2
    with pytest.raises(ValidationError):
        soft_ctc_loss(y, target)


def test_batch_maps_in_order():
    rng = np.random.default_rng(67)
    items = []
    for _ in range(4):
        cn = rand_cn(rng, max_sets=2)
        y = rand_posteriors(rng, 4)
        items.append((y, compile_cn(cn, V)))
    batched = soft_ctc_batch(items)
    for (y, target), got in zip(items, batched):
        expected = soft_ctc_loss(y, target)
        assert got.loss == expected.loss


class TestNonFiniteEntry:
    # target "a" never reads column 1, so the kernel alone would not see it
    Y = PosteriorMatrix(np.array([[0.7, float("nan"), 0.3], [0.5, 0.0, 0.5]]))
    TARGET = compile_cn(trivial_cn(Labeling((0,))), V)

    def test_loss_raises(self):
        with pytest.raises(NonFiniteEntry) as exc:
            soft_ctc_loss(self.Y, self.TARGET)
        assert (exc.value.t, exc.value.k) == (0, 1)

    def test_batch_raises(self):
        rng = np.random.default_rng(71)
        good = (rand_posteriors(rng, 2), self.TARGET)
        with pytest.raises(NonFiniteEntry):
            soft_ctc_batch([good, (self.Y, self.TARGET)])

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_value_at_raises_instead_of_reading_zero(self, value):
        frames = np.array(self.Y.frames)
        frames[0, 1] = value
        with pytest.raises(NonFiniteEntry):
            soft_ctc_value_at(PosteriorMatrix(frames), self.TARGET, 0)

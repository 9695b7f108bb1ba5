import numpy as np
import pytest

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    InfeasibleTarget,
    Labeling,
    PosteriorMatrix,
    TooLarge,
    ValidationError,
    Vocabulary,
    compile_cn,
    trivial_cn,
)
from softctc.oracle import (
    collapse_path,
    enumerate_cn_paths,
    enumerate_cn_strings,
    enumerate_ctc,
    finite_difference_grad,
    kahan_sum,
    oracle_softctc,
    reference_log_loss,
    reference_merge_cns,
    reference_prefix_beam_search,
)

VA = Vocabulary.from_characters("a")
VAB = Vocabulary.from_characters("ab")


def test_collapse_merges_repeats_then_drops_blanks():
    blank = 2
    assert collapse_path((2, 0, 0, 2, 1), blank) == (0, 1)
    assert collapse_path((2, 2), blank) == ()
    assert collapse_path((0, 2, 0), blank) == (0, 0)


def test_kahan_sum_beats_naive_on_adversarial_input():
    values = [1.0] + [1e-16] * 10000
    assert kahan_sum(values) == pytest.approx(1.0 + 1e-12, rel=1e-15)


def test_enumerate_ctc_hand_value():
    y = PosteriorMatrix(np.array([[0.6, 0.4], [0.5, 0.5]]))
    assert enumerate_ctc(y, Labeling((0,)), VA) == pytest.approx(0.8, rel=1e-12)


def test_enumerate_ctc_infeasible_labeling_is_zero():
    y = PosteriorMatrix(np.array([[0.6, 0.4]]))
    assert enumerate_ctc(y, Labeling((0, 0)), VA) == 0.0


def test_enumerate_ctc_empty_labeling_uniform():
    y = PosteriorMatrix(np.array([[0.5, 0.5]]))
    assert enumerate_ctc(y, Labeling(()), VA) == pytest.approx(0.5)


def test_enumerate_ctc_total_probability_is_one():
    # Summing over every reachable labeling must exhaust the path space.
    rng = np.random.default_rng(0)
    y = rng.uniform(0.1, 1.0, size=(4, 3))
    y = PosteriorMatrix(y / y.sum(axis=1, keepdims=True))
    labs = set()
    for path in np.ndindex(*(3,) * 4):
        labs.add(collapse_path(path, VAB.blank_index))
    total = sum(enumerate_ctc(y, Labeling(l), VAB) for l in labs)
    assert total == pytest.approx(1.0, rel=1e-12)


def test_enumerate_ctc_guard():
    y = PosteriorMatrix(np.full((30, 10), 0.1))
    with pytest.raises(TooLarge):
        enumerate_ctc(y, Labeling((0,)), Vocabulary.from_characters("abcdefghi"))


def make_reference_cn():
    v = Vocabulary.from_characters("CATUES")
    c, a, t, u, e, s = (v.encode(ch).symbols[0] for ch in "CATUES")
    sets = (
        ConfusionSet({c: 0.7}, 0.3),
        ConfusionSet({a: 0.6, u: 0.4}),
        ConfusionSet({t: 1.0}),
        ConfusionSet({e: 0.5, s: 0.3}, 0.2),
    )
    return ConfusionNetwork(sets), v


def test_cn_strings_reference_reconstruction():
    cn, v = make_reference_cn()
    paths = enumerate_cn_paths(cn)
    strings = enumerate_cn_strings(cn)
    assert len(paths) == 12
    assert len(strings) == 12
    texts = {v.decode(lab) for lab, _ in strings}
    assert "UTE" in texts
    assert texts == {
        "CATE", "CATS", "CAT", "CUTE", "CUTS", "CUT",
        "ATE", "ATS", "AT", "UTE", "UTS", "UT",
    }


def test_cn_strings_weights_sum_to_one_when_normalized():
    cn, _ = make_reference_cn()
    assert sum(w for _, w in enumerate_cn_strings(cn)) == pytest.approx(1.0, rel=1e-12)


def test_cn_strings_all_singletons():
    cn = trivial_cn(Labeling((0, 1)))
    strings = enumerate_cn_strings(cn)
    assert strings == [(Labeling((0, 1)), 1.0)]


def test_cn_strings_merges_duplicates_paths_do_not():
    # Two sets both offering "a"-or-skip: paths (a,skip) and (skip,a) are
    # distinct paths but the same string.
    cn = ConfusionNetwork(
        (ConfusionSet({0: 0.5}, 0.5), ConfusionSet({0: 0.5}, 0.5)),
    )
    paths = enumerate_cn_paths(cn)
    strings = enumerate_cn_strings(cn)
    assert len(paths) == 4
    assert len(strings) == 3
    merged = dict(strings)
    assert merged[Labeling((0,))] == pytest.approx(0.5)


def test_cn_paths_guard():
    big = ConfusionNetwork(
        tuple(ConfusionSet({k: 1.0 / 11 for k in range(10)}, 1.0 / 11) for _ in range(7)),
    )
    with pytest.raises(TooLarge):
        enumerate_cn_paths(big)


def test_oracle_softctc_weighted_sum_hand_value():
    # nbest [("a",0.6), ("b",0.4)] at T=1 over {a,b,#}: 0.6*0.5 + 0.4*0.3.
    v = Vocabulary.from_characters("ab")
    y = PosteriorMatrix(np.array([[0.5, 0.3, 0.2]]))
    cn = ConfusionNetwork((ConfusionSet({0: 0.6, 1: 0.4}),))
    assert oracle_softctc(y, cn, v) == pytest.approx(0.42, rel=1e-12)


def test_oracle_softctc_trivial_cn_equals_enumerate_ctc():
    rng = np.random.default_rng(1)
    y = rng.uniform(0.1, 1.0, size=(3, 3))
    y = PosteriorMatrix(y / y.sum(axis=1, keepdims=True))
    lab = Labeling((0, 1))
    assert oracle_softctc(y, trivial_cn(lab), VAB) == pytest.approx(
        enumerate_ctc(y, lab, VAB), rel=1e-12
    )


def test_finite_difference_grad_quadratic_exact():
    y = PosteriorMatrix(np.array([[0.25, 0.75], [0.5, 0.5]]))

    def f(m):
        return float((m.frames**2).sum())

    grad = finite_difference_grad(f, y, step=1e-4)
    assert np.allclose(grad, 2.0 * y.frames, atol=1e-7)


def test_finite_difference_grad_step_bounds():
    y = PosteriorMatrix(np.array([[0.5, 0.5]]))
    with pytest.raises(Exception):
        finite_difference_grad(lambda m: 0.0, y, step=1e-2)


def test_enumerate_ctc_refuses_a_posterior_of_another_width():
    y = PosteriorMatrix(np.array([[0.6, 0.4]]))
    with pytest.raises(ValidationError, match="posterior width does not match vocabulary"):
        enumerate_ctc(y, Labeling((0,)), VAB)


def test_reference_beam_search_refuses_beam_size_zero():
    y = PosteriorMatrix(np.array([[0.6, 0.1, 0.3]]))
    with pytest.raises(ValidationError, match="beam size must be at least 1"):
        reference_prefix_beam_search(y, VAB, 0)


def test_reference_merge_refuses_an_empty_list():
    with pytest.raises(ValidationError, match="nothing to merge"):
        reference_merge_cns([])


def test_reference_merge_refuses_a_normalized_network():
    raw, normalized = trivial_cn([0], weight=0.5), trivial_cn([1])
    assert not raw.normalized and normalized.normalized
    with pytest.raises(ValidationError, match="merge expects raw networks"):
        reference_merge_cns([raw, normalized])


def test_reference_log_loss_refuses_a_target_with_no_mass():
    # frame 0 gives the letter and the blank no mass
    target = compile_cn(trivial_cn([0]), VAB)
    y = np.array([[0.0, 0.5, 0.0], [0.6, 0.1, 0.3]])
    with pytest.raises(InfeasibleTarget, match="no alignment carries probability mass"):
        reference_log_loss(y, target.transition, target.state_symbols,
                           target.alpha_hat, target.beta_hat)

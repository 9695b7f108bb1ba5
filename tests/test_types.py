import numpy as np
import pytest

from softctc import (
    Labeling,
    NBestList,
    PosteriorMatrix,
    ShapeMismatch,
    ValidationError,
    Vocabulary,
    validate_posteriors,
)
from softctc.types import NegativeEntry, NonFiniteEntry, RowNotNormalized


def test_vocabulary_from_characters():
    v = Vocabulary.from_characters("abc")
    assert v.symbols == ("a", "b", "c", "#")
    assert v.blank_index == 3
    assert len(v) == 4


def test_vocabulary_encode_decode_roundtrip():
    v = Vocabulary.from_characters("abc")
    lab = v.encode("cab")
    assert lab.symbols == (2, 0, 1)
    assert v.decode(Labeling(lab)) == "cab"


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValidationError):
        Vocabulary(("a", "a", "#"), blank_index=2)


def test_vocabulary_rejects_bad_blank_index():
    with pytest.raises(ValidationError):
        Vocabulary(("a", "#"), blank_index=5)


def test_vocabulary_blank_index_must_be_an_integer():
    for index in (1.0, True, "1"):
        with pytest.raises(ValidationError, match="blank index must be an integer"):
            Vocabulary(("a", "#"), blank_index=index)
    v = Vocabulary(("a", "#"), blank_index=np.int64(1))
    assert v.blank == 1 and type(v.blank_index) is int


@pytest.mark.parametrize("symbols", [("#",), ()])
def test_vocabulary_needs_a_symbol_besides_the_blank(symbols):
    with pytest.raises(ValidationError, match="at least one symbol besides blank"):
        Vocabulary(symbols, blank_index=0)


def test_vocabulary_encode_unknown_symbol():
    v = Vocabulary.from_characters("ab")
    with pytest.raises(ValidationError):
        v.encode("ax")


@pytest.mark.parametrize("text", ["#", "a#b"])
def test_vocabulary_encode_rejects_the_blank(text):
    v = Vocabulary.from_characters("ab")
    with pytest.raises(ValidationError, match="labelings may not contain the blank"):
        v.encode(text)


def test_labeling_is_tuple_of_ints():
    lab = Labeling((0, 1, 2))
    assert lab.symbols == (0, 1, 2)
    assert len(lab) == 3
    assert list(lab) == [0, 1, 2]


@pytest.mark.parametrize("symbols", [(-1,), (0, 2, -3)])
def test_labeling_rejects_a_negative_symbol_id(symbols):
    with pytest.raises(ValidationError, match="symbol ids must be nonnegative"):
        Labeling(symbols)


def test_labeling_empty():
    assert len(Labeling(())) == 0


def test_posterior_matrix_copies_and_freezes():
    raw = np.array([[0.5, 0.5]])
    m = PosteriorMatrix(raw)
    raw[0, 0] = 99.0
    assert m.frames[0, 0] == 0.5
    with pytest.raises(ValueError):
        m.frames[0, 0] = 1.0


def test_posterior_matrix_rejects_wrong_rank():
    with pytest.raises(ShapeMismatch):
        PosteriorMatrix(np.zeros(3))


def test_posterior_matrix_shape_accessors():
    m = PosteriorMatrix(np.full((4, 3), 1.0 / 3.0))
    assert m.num_frames == 4
    assert m.vocab_size == 3


def test_validate_posteriors_accepts_normalized():
    v = Vocabulary.from_characters("ab")
    m = PosteriorMatrix(np.full((2, 3), 1.0 / 3.0))
    validate_posteriors(m, v)


def test_validate_posteriors_flags_negative_entry():
    v = Vocabulary.from_characters("a")
    m = PosteriorMatrix(np.array([[1.2, -0.2]]))
    with pytest.raises(NegativeEntry) as exc:
        validate_posteriors(m, v)
    assert exc.value.t == 0
    assert exc.value.k == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_validate_posteriors_flags_non_finite_entry(value):
    v = Vocabulary.from_characters("ab")
    m = PosteriorMatrix(np.array([[0.5, 0.25, 0.25], [0.5, value, 0.5]]))
    with pytest.raises(NonFiniteEntry) as exc:
        validate_posteriors(m, v)
    assert exc.value.t == 1
    assert exc.value.k == 1


def test_validate_posteriors_flags_unnormalized_row():
    v = Vocabulary.from_characters("a")
    m = PosteriorMatrix(np.array([[0.5, 0.4]]))
    with pytest.raises(RowNotNormalized) as exc:
        validate_posteriors(m, v)
    assert exc.value.t == 0


def test_validate_posteriors_flags_width_mismatch():
    v = Vocabulary.from_characters("abc")
    m = PosteriorMatrix(np.full((2, 2), 0.5))
    with pytest.raises(ShapeMismatch):
        validate_posteriors(m, v)


def test_nbest_list_basic():
    nb = NBestList(((Labeling((0,)), 0.6), (Labeling((1,)), 0.4)))
    assert len(nb) == 2
    assert nb.total_weight == pytest.approx(1.0)


def test_nbest_list_rejects_no_entries():
    with pytest.raises(ValidationError, match="n-best list may not be empty"):
        NBestList(())


def test_nbest_list_rejects_duplicate_labelings():
    with pytest.raises(ValidationError):
        NBestList(((Labeling((0,)), 0.6), (Labeling((0,)), 0.4)))


def test_nbest_list_rejects_nonpositive_weight():
    with pytest.raises(ValidationError):
        NBestList(((Labeling((0,)), 0.0),))


def test_nbest_list_allows_empty_labeling_entry():
    nb = NBestList(((Labeling(()), 0.3), (Labeling((0,)), 0.7)))
    assert nb.total_weight == pytest.approx(1.0)

"""Core domain types shared by every other module.

Symbols are small integers indexing into a Vocabulary, which keeps the
display strings.  Unicode is an I/O concern only; nothing below the file
formats ever looks at the display form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np


# how far from one a posterior row's sum may be
ROW_TOL = 1e-6


class ValidationError(Exception):
    """Input violates a structural contract."""


class ShapeMismatch(ValidationError):
    pass


class NegativeEntry(ValidationError):
    def __init__(self, t: int, k: int, value: float):
        super().__init__(f"negative posterior {value!r} at frame {t}, symbol {k}")
        self.t = t
        self.k = k


class NonFiniteEntry(ValidationError):
    def __init__(self, t: int, k: int, value: float):
        super().__init__(f"non-finite posterior {value!r} at frame {t}, symbol {k}")
        self.t = t
        self.k = k


class RowNotNormalized(ValidationError):
    def __init__(self, t: int, total: float):
        super().__init__(f"frame {t} sums to {total!r}, expected 1")
        self.t = t
        self.total = total


class InfeasibleTarget(Exception):
    """The target admits no alignment with nonzero probability."""


class TooLarge(ValidationError):
    """Requested enumeration exceeds the oracle size guard."""


@dataclass(frozen=True)
class Vocabulary:
    """Ordered symbol table with a designated blank.

    Symbol ids are positions in ``symbols``; the blank is a regular entry
    singled out by ``blank_index``.
    """

    symbols: tuple[str, ...]
    blank_index: int
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ValidationError("vocabulary needs at least one symbol besides blank")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("vocabulary symbols must be distinct")
        blank_index = check_integer(self.blank_index, "blank index")
        if not 0 <= blank_index < len(self.symbols):
            raise ValidationError(f"blank index {blank_index} out of range")
        object.__setattr__(self, "blank_index", blank_index)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def blank(self) -> int:
        return self.blank_index

    def index_of(self, display: str) -> int:
        try:
            return self._index[display]
        except KeyError:
            raise ValidationError(f"unknown symbol {display!r}") from None

    def encode(self, text: Iterable[str]) -> "Labeling":
        """Map display symbols (e.g. the characters of a string) to a Labeling."""
        ids = tuple(self.index_of(c) for c in text)
        if self.blank_index in ids:
            raise ValidationError("labelings may not contain the blank")
        return Labeling(ids)

    def decode(self, labeling: "Labeling") -> str:
        return "".join(self.symbols[s] for s in labeling)

    def first_non_letter(self, ids) -> int | None:
        """Position of the first of ``ids`` that is out of range or the blank, else None."""
        ids = np.asarray(ids)
        bad = np.flatnonzero((ids < 0) | (ids >= len(self)) | (ids == self.blank_index))
        return int(bad[0]) if bad.size else None

    @classmethod
    def from_characters(cls, letters: str, blank: str = "#") -> "Vocabulary":
        """Convenience constructor: one symbol per character, blank appended last."""
        return cls(tuple(letters) + (blank,), blank_index=len(letters))


@dataclass(frozen=True)
class Labeling:
    """A transcription: symbol ids without blanks.  May be empty."""

    symbols: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        if any(s < 0 for s in self.symbols):
            raise ValidationError("symbol ids must be nonnegative")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]


@dataclass(frozen=True)
class PosteriorMatrix:
    """Frame-wise posterior distribution, one row per frame, one column per symbol.

    The array is copied on construction and frozen.  Structural checks live in
    :func:`validate_posteriors` so perturbed matrices (finite differences) can
    still be represented.
    """

    frames: np.ndarray

    def __post_init__(self):
        arr = np.array(self.frames, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ShapeMismatch(f"expected a (frames, symbols) matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class NBestList:
    """Decoder hypotheses with probability-like weights in (0, 1]."""

    entries: tuple[tuple[Labeling, float], ...]

    def __post_init__(self):
        entries = tuple((lab, float(w)) for lab, w in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValidationError("n-best list may not be empty")
        seen = set()
        for lab, w in entries:
            if not 0.0 < w <= 1.0 + 1e-9:
                raise ValidationError(f"weight {w!r} outside (0, 1]")
            if lab.symbols in seen:
                raise ValidationError("n-best labelings must be pairwise distinct")
            seen.add(lab.symbols)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Labeling, float]]:
        return iter(self.entries)

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, w in self.entries))


@dataclass(frozen=True)
class LossResult:
    """Negative log probability and its gradient with respect to the posteriors."""

    loss: float
    grad: np.ndarray

    def __post_init__(self):
        grad = np.array(self.grad, dtype=np.float64, copy=True)
        grad.setflags(write=False)
        object.__setattr__(self, "grad", grad)

    @property
    def log_likelihood(self) -> float:
        return -self.loss


def check_integer(value, what: str) -> int:
    """``value`` as an int; ValidationError unless it is a Python or numpy integer, not a bool."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def check_finite(m: PosteriorMatrix) -> None:
    """Raise NonFiniteEntry at the first NaN or infinite entry of ``m``.

    The losses run this on every call: the kernel reads only the columns a
    target uses, so without it a NaN elsewhere would pass unnoticed.
    """
    finite = np.isfinite(m.frames)
    if not finite.all():
        t, k = (int(x) for x in np.argwhere(~finite)[0])
        raise NonFiniteEntry(t, k, float(m.frames[t, k]))


def check_width(m: PosteriorMatrix, v: Vocabulary) -> None:
    """Raise ShapeMismatch unless ``m`` has one column per symbol of ``v``."""
    if m.vocab_size != len(v):
        raise ShapeMismatch(
            f"posterior has {m.vocab_size} columns but vocabulary has {len(v)} symbols"
        )


def check_entries(m: PosteriorMatrix, v: Vocabulary) -> None:
    """Check that ``m`` has one column per symbol of ``v`` and finite, nonnegative entries.

    Raises ShapeMismatch, NonFiniteEntry, or NegativeEntry at the first
    offending entry; rows need not sum to one.
    """
    check_width(m, v)
    check_finite(m)
    negative = m.frames < 0.0
    if negative.any():  # np.argwhere alone costs several times this test
        t, k = (int(x) for x in np.argwhere(negative)[0])
        raise NegativeEntry(t, k, float(m.frames[t, k]))


def _check_rows(m: PosteriorMatrix, v: Vocabulary, bad) -> None:
    """:func:`check_entries`, then RowNotNormalized at the first frame whose total ``bad`` marks."""
    check_entries(m, v)
    totals = m.frames.sum(axis=1)
    rows = np.flatnonzero(bad(totals))
    if rows.size:
        raise RowNotNormalized(int(rows[0]), float(totals[rows[0]]))


def check_decoder_input(m: PosteriorMatrix, v: Vocabulary) -> None:
    """The decoder's entry check: :func:`check_entries`, then no row above one.

    Rows may sum below one, but a row summing to more than ``1 + ROW_TOL``
    raises RowNotNormalized at the first such frame: a beam over it could
    collect a weight above one, which no n-best list holds.
    """
    _check_rows(m, v, lambda totals: totals > 1.0 + ROW_TOL)


def validate_posteriors(m: PosteriorMatrix, v: Vocabulary) -> None:
    """Check that ``m`` is a proper per-frame distribution over ``v``.

    Every row must sum to one within ``ROW_TOL``.  Raises ShapeMismatch,
    NonFiniteEntry, NegativeEntry (see :func:`check_entries`), or
    RowNotNormalized; returns None when the matrix is well formed.
    """
    _check_rows(m, v, lambda totals: np.abs(totals - 1.0) > ROW_TOL)

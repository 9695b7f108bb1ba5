"""Text formats for posteriors, confusion networks and n-best lists.

All numbers are written with shortest round-trip formatting, so parse(write(x))
reproduces x bit for bit and serialized output is byte-identical across runs.
Symbols are display strings; ``<blank>``, ``<null>``, and ``<space>`` are the
only reserved tokens.  A network is read into its flat arrays and written
from them; a header key may appear once, and a ``set`` line may name each
symbol and ``<null>`` once.  A malformed file raises the first fault a
line-by-line reader meets.  A network read without a vocabulary gets the
file's own: its symbols in order of first appearance, then the blank.  The
network and n-best writers refuse an id that is no letter
(:meth:`Vocabulary.first_non_letter`), and every writer checks and renders
its whole file before it writes, so a writer that raises has created no
file and written nothing to a stream.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from .confusion import ConfusionNetwork
from .decoding import Segment
from .types import (
    Labeling,
    NBestList,
    PosteriorMatrix,
    ValidationError,
    Vocabulary,
)

BLANK_TOKEN = "<blank>"
NULL_TOKEN = "<null>"
SPACE_TOKEN = "<space>"
# a network with no sets names no symbol, but a vocabulary needs one besides
# the blank: read_cn gives such a network this one
UNUSED_SYMBOL = "<unused>"

POSTERIOR_MAGIC = "# posteriors v1"
CN_MAGIC = "# confusion-network v1"
NBEST_MAGIC = "# nbest v1"


def _fmt(x: float) -> str:
    return repr(float(x))


def _symbol_token(display: str) -> str:
    if display == " ":
        return SPACE_TOKEN
    if not display or any(c.isspace() for c in display):
        raise ValidationError(f"symbol {display!r} cannot be serialized")
    if display in (BLANK_TOKEN, NULL_TOKEN, SPACE_TOKEN):
        raise ValidationError(f"symbol {display!r} collides with a reserved token")
    return display


def _token_symbol(token: str) -> str:
    return " " if token == SPACE_TOKEN else token


def _write(path_or_file, lines: list[str]) -> None:
    """The lines, each ending in a newline, in one write; a file given as such is left open."""
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_lines(path_or_file) -> list[str]:
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    return text.splitlines()


def _content_lines(lines: list[str], magic: str, kind: str) -> list[str]:
    stripped = [ln.strip() for ln in lines]
    body = [ln for ln in stripped if ln and not ln.startswith("#")]
    if not stripped or stripped[0] != magic:
        raise ValidationError(f"not a {kind} file (missing {magic!r} header)")
    return body


def write_posteriors(path_or_file, m: PosteriorMatrix, v: Vocabulary) -> None:
    _write_matrix(path_or_file, POSTERIOR_MAGIC, m.frames, v)


def write_gradient(path_or_file, grad: np.ndarray, v: Vocabulary) -> None:
    """Gradient dump; same layout as a posterior file."""
    _write_matrix(path_or_file, "# gradient v1", np.asarray(grad, dtype=np.float64), v)


def _write_matrix(path_or_file, magic: str, arr: np.ndarray, v: Vocabulary) -> None:
    if arr.shape[1] != len(v):
        raise ValidationError("matrix width does not match vocabulary")
    tokens = [BLANK_TOKEN if i == v.blank else _symbol_token(s) for i, s in enumerate(v.symbols)]
    _write(path_or_file, [magic, " ".join(tokens)] + [" ".join(_fmt(x) for x in row) for row in arr])


def read_posteriors(path_or_file) -> tuple[PosteriorMatrix, Vocabulary]:
    body = _content_lines(_read_lines(path_or_file), POSTERIOR_MAGIC, "posterior")
    if not body:
        raise ValidationError("posterior file has no header row")
    tokens = body[0].split()
    if tokens.count(BLANK_TOKEN) != 1:
        raise ValidationError(f"header must contain {BLANK_TOKEN} exactly once")
    if NULL_TOKEN in tokens:
        raise ValidationError(f"header may not contain {NULL_TOKEN}")
    blank_index = tokens.index(BLANK_TOKEN)
    symbols = tuple(
        BLANK_TOKEN if i == blank_index else _token_symbol(t)
        for i, t in enumerate(tokens)
    )
    v = Vocabulary(symbols, blank_index)
    rows = []
    for line_no, line in enumerate(body[1:], start=1):
        values = line.split()
        if len(values) != len(tokens):
            raise ValidationError(f"row {line_no} has {len(values)} values, expected {len(tokens)}")
        try:
            rows.append([float(x) for x in values])
        except ValueError as exc:
            raise ValidationError(f"row {line_no}: {exc}") from None
    if not rows:
        raise ValidationError("posterior file has no frames")
    return PosteriorMatrix(np.array(rows)), v


def write_cn(
    path_or_file, cn: ConfusionNetwork, v: Vocabulary, meta: dict | None = None
) -> None:
    """Write a network; metadata read_cn would not read back as given raises ValidationError."""
    meta = {str(key): str(value) for key, value in (meta or {}).items()}
    for key, value in meta.items():
        # a key is one token, no header, and starts no comment; a value is one trimmed line
        if (key in ("normalized", "total", "sets", "set") or key.split() != [key] or key[0] == "#"
                or value.strip() != value or "".join(value.splitlines()) != value):
            raise ValidationError(f"metadata {key!r} {value!r} would not read back as written")
    offsets, symbols, scores, nulls = (a.tolist() for a in (cn.offsets, cn.symbols, cn.scores, cn.nulls))
    bad = v.first_non_letter(cn.symbols)
    if bad is not None:
        at = int(np.searchsorted(cn.offsets, bad, side="right")) - 1
        raise ValidationError(f"set {at} contains an invalid symbol {symbols[bad]}")
    tokens = {sym: _symbol_token(v.symbols[sym]) for sym in dict.fromkeys(symbols)}
    entries = [f"{tokens[sym]} {x!r}" for sym, x in zip(symbols, scores)]
    lines = [CN_MAGIC, f"normalized {'true' if cn.normalized else 'false'}", f"total {_fmt(cn.total_score)}"]
    lines += [f"{key} {meta[key]}" for key in sorted(meta)]
    lines.append(f"sets {len(cn)}")
    lines += [
        "set " + " ".join(entries[a:b]) + (f" {NULL_TOKEN} {null!r}" if null > 0.0 else "")
        for a, b, null in zip(offsets, offsets[1:], nulls)
    ]
    _write(path_or_file, lines)


def read_cn(
    path_or_file, v: Vocabulary | None = None
) -> tuple[ConfusionNetwork, Vocabulary, dict]:
    """Parse a network file.

    Without a vocabulary, the file's own is read first (see
    :func:`_file_vocabulary`): its symbols in order of first appearance, or
    ``UNUSED_SYMBOL`` for a network with no sets, then the blank, which
    suffices for symbol-opaque transforms.  Either way every token resolves
    through the vocabulary's index.  A repeated header key raises
    ValidationError naming it.  Returns (network, vocabulary, metadata).
    """
    body = _content_lines(_read_lines(path_or_file), CN_MAGIC, "confusion network")
    meta: dict[str, str] = {}
    set_lines: list[str] = []
    expecting = None
    for line in body:
        parts = line.split(maxsplit=1)  # the key ends at the first run of whitespace
        key, rest = parts if len(parts) == 2 else (parts[0], "")
        if key == "set":
            set_lines.append(rest)
        elif key in meta or (key == "sets" and expecting is not None):
            raise ValidationError(f"repeated {key!r} line")
        elif key == "sets":
            try:
                expecting = int(rest)
            except ValueError:
                raise ValidationError(f"bad sets count {rest!r}") from None
        else:
            meta[key] = rest
    if expecting is not None and expecting != len(set_lines):
        raise ValidationError(f"expected {expecting} sets, found {len(set_lines)}")
    normalized_text = meta.pop("normalized", "true")
    if normalized_text not in ("true", "false"):
        raise ValidationError(f"normalized must be true or false, got {normalized_text!r}")
    normalized = normalized_text == "true"
    total_text = meta.pop("total", "1.0")
    try:
        total = float(total_text)
    except ValueError:
        raise ValidationError(f"bad total {total_text!r}") from None

    split = [line.split() for line in set_lines]
    if v is None:
        v = _file_vocabulary(split)
    offsets, symbols, scores, nulls = _parse_sets(split, v)
    cn = ConfusionNetwork._from_arrays(offsets, symbols, scores, nulls, normalized=normalized, total_score=total)
    return cn, v, meta


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _file_vocabulary(split: list[list[str]]) -> Vocabulary:
    """The vocabulary of a network file read without one.

    Its symbols are the tokenized ``set`` lines' symbols in order of first
    appearance, without ``<null>`` and ``<blank>``, or ``UNUSED_SYMBOL`` when
    there are none; the blank comes last.  A ``<blank>`` token so reads as
    the blank, which a set may not hold.
    """
    tokens = dict.fromkeys(itertools.chain.from_iterable(tokens[::2] for tokens in split))
    symbols = [_token_symbol(t) for t in tokens if t not in (NULL_TOKEN, BLANK_TOKEN)]
    symbols = symbols or [UNUSED_SYMBOL]
    return Vocabulary((*symbols, BLANK_TOKEN), blank_index=len(symbols))


def _parse_sets(
    split: list[list[str]], v: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, symbols, scores, nulls) of the tokenized ``set`` lines.

    Every value is parsed in one pass, and each kind of fault is one test
    over all lines: an unpaired line, a bad value, an unknown or blank
    symbol, a token named twice in a line.  When one finds a fault,
    :func:`_first_set_fault` reads the lines in order for the error a
    line-by-line reader raises.
    """
    counts = np.fromiter(map(len, split), dtype=np.int64, count=len(split))
    if ((counts == 0) | (counts % 2 == 1)).any():
        raise _first_set_fault(split, v)
    flat = list(itertools.chain.from_iterable(split))
    tokens, texts = flat[0::2], flat[1::2]
    try:
        values = np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        raise _first_set_fault(split, v) from None
    # an unknown symbol is a fault like the blank
    ids = {tok: v._index.get(_token_symbol(tok), v.blank) for tok in dict.fromkeys(tokens)}
    ids[NULL_TOKEN] = -1
    keys = np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    line_of = np.repeat(np.arange(len(split)), counts // 2)
    order = np.lexsort((keys, line_of))
    keys, line_of = keys[order], line_of[order]
    if (keys == v.blank).any() or ((np.diff(keys) == 0) & (np.diff(line_of) == 0)).any():
        raise _first_set_fault(split, v)
    alt = keys >= 0
    offsets = np.zeros(len(split) + 1, dtype=np.int64)
    np.cumsum(np.bincount(line_of[alt], minlength=len(split)), out=offsets[1:])
    nulls = np.zeros(len(split))
    values = values[order]
    nulls[line_of[~alt]] = values[~alt]
    return offsets, keys[alt], values[alt], nulls


def _first_set_fault(split: list[list[str]], v: Vocabulary) -> ValidationError:
    """The first fault of the tokenized ``set`` lines, read line by line and pair by pair."""
    for line_no, tokens in enumerate(split, start=1):
        if len(tokens) % 2 != 0 or not tokens:
            return ValidationError(f"set line {line_no} must hold symbol/value pairs")
        seen = set()
        for tok, val in zip(tokens[::2], tokens[1::2]):
            if not _parses(val):
                return ValidationError(f"set line {line_no}: bad value {val!r}")
            if tok != NULL_TOKEN:
                display = _token_symbol(tok)
                if display not in v._index:
                    return ValidationError(f"symbol {display!r} not in vocabulary")
                if v._index[display] == v.blank:
                    return ValidationError(f"set line {line_no}: confusion sets may not contain the blank")
            if tok in seen:
                return ValidationError(f"set line {line_no}: repeated {tok!r}")
            seen.add(tok)


def write_nbest(
    path_or_file, groups: Iterable[tuple[Segment | None, NBestList]], v: Vocabulary
) -> None:
    """Write n-best groups; a leading group without a segment is written without a header.

    No groups, or a later group without a segment, raises ValidationError:
    read_nbest would reject the first and fold the second into the group
    before it.
    """
    groups = list(groups)
    if not groups:
        raise ValidationError("no n-best groups to write")
    for g, (seg, nbest) in enumerate(groups):
        if seg is None and g > 0:
            raise ValidationError(f"n-best group {g} has no segment, and only the first may lack one")
        for i, (labeling, _) in enumerate(nbest):
            bad = v.first_non_letter(labeling.symbols)
            if bad is not None:
                raise ValidationError(f"group {g} variant {i} contains an invalid symbol {labeling[bad]}")
    lines = [NBEST_MAGIC]
    for seg, nbest in groups:
        if seg is not None:
            kind = "confident" if seg.confident else "unconfident"
            lines.append(f"segment {seg.start} {seg.end} {kind}")
        for labeling, weight in nbest:
            lines.append(" ".join([_fmt(weight)] + [_symbol_token(v.symbols[s]) for s in labeling]))
    _write(path_or_file, lines)


def read_nbest(
    path_or_file, v: Vocabulary
) -> list[tuple[Segment | None, NBestList]]:
    """Parse n-best groups; ``segment`` headers are optional for single lists."""
    body = _content_lines(_read_lines(path_or_file), NBEST_MAGIC, "n-best")
    groups: list[tuple[Segment | None, list[tuple[Labeling, float]]]] = []
    current: list[tuple[Labeling, float]] | None = None
    for line in body:
        tokens = line.split()
        if tokens[0] == "segment":
            if len(tokens) != 4 or tokens[3] not in ("confident", "unconfident"):
                raise ValidationError(f"bad segment line {line!r}")
            try:
                start, end = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ValidationError(f"bad segment bounds {tokens[1]!r} {tokens[2]!r}") from None
            seg = Segment(start, end, tokens[3] == "confident")
            current = []
            groups.append((seg, current))
            continue
        if current is None:
            current = []
            groups.append((None, current))
        try:
            weight = float(tokens[0])
        except ValueError:
            raise ValidationError(f"bad weight {tokens[0]!r}") from None
        labeling = v.encode(_token_symbol(t) for t in tokens[1:])
        current.append((labeling, weight))
    out = []
    for seg, entries in groups:
        if not entries:
            raise ValidationError("empty n-best group")
        out.append((seg, NBestList(tuple(entries))))
    if not out:
        raise ValidationError("n-best file has no entries")
    return out


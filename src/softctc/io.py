"""Text formats for posteriors, confusion networks, n-best lists, and targets.

All numbers are written with shortest round-trip formatting, so parse(write(x))
reproduces x bit for bit and serialized output is byte-identical across runs.
Symbols are display strings; ``<blank>``, ``<null>``, and ``<space>`` are the
only reserved tokens.  A network is read into its flat arrays and
written from them; a ``set`` line may name each symbol and ``<null>`` once.
"""

from __future__ import annotations

import io as _io
from typing import Iterable, TextIO

import numpy as np

from .compiler import CompiledTarget
from .confusion import ConfusionNetwork, _flatten
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
TARGET_MAGIC = "# compiled-target v1"


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


def _open_out(path_or_file) -> tuple[TextIO, bool]:
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w", encoding="utf-8"), True


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
    fh, close = _open_out(path_or_file)
    try:
        fh.write(magic + "\n")
        tokens = [
            BLANK_TOKEN if i == v.blank else _symbol_token(s)
            for i, s in enumerate(v.symbols)
        ]
        fh.write(" ".join(tokens) + "\n")
        for row in arr:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")
    finally:
        if close:
            fh.close()


def read_posteriors(path_or_file) -> tuple[PosteriorMatrix, Vocabulary]:
    body = _content_lines(_read_lines(path_or_file), POSTERIOR_MAGIC, "posterior")
    if not body:
        raise ValidationError("posterior file has no header row")
    tokens = body[0].split()
    if tokens.count(BLANK_TOKEN) != 1:
        raise ValidationError(f"header must contain {BLANK_TOKEN} exactly once")
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
    fh, close = _open_out(path_or_file)
    try:
        fh.write(CN_MAGIC + "\n")
        fh.write(f"normalized {'true' if cn.normalized else 'false'}\n")
        fh.write(f"total {_fmt(cn.total_score)}\n")
        for key in sorted(meta or {}):
            fh.write(f"{key} {meta[key]}\n")
        fh.write(f"sets {len(cn)}\n")
        offsets, symbols, scores, nulls = (
            a.tolist() for a in (cn.offsets, cn.symbols, cn.scores, cn.nulls)
        )
        tokens = {sym: _symbol_token(v.symbols[sym]) for sym in dict.fromkeys(symbols)}
        entries = [f"{tokens[sym]} {x!r}" for sym, x in zip(symbols, scores)]
        for a, b, null in zip(offsets, offsets[1:], nulls):
            tail = f" {NULL_TOKEN} {null!r}\n" if null > 0.0 else "\n"
            fh.write("set " + " ".join(entries[a:b]) + tail)
    finally:
        if close:
            fh.close()


def read_cn(
    path_or_file, v: Vocabulary | None = None
) -> tuple[ConfusionNetwork, Vocabulary, dict]:
    """Parse a network file.

    Without a vocabulary, one is synthesized from the symbols in order of
    first appearance with a blank appended, which suffices for symbol-opaque
    transforms; a network with no sets gets ``UNUSED_SYMBOL`` and the blank.
    Returns (network, vocabulary, metadata).
    """
    body = _content_lines(_read_lines(path_or_file), CN_MAGIC, "confusion network")
    meta: dict[str, str] = {}
    set_lines: list[str] = []
    expecting = None
    for line in body:
        key, _, rest = line.partition(" ")
        if key == "set":
            set_lines.append(rest)
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

    local_symbols: list[str] = []
    index: dict[str, int]
    if v is None:
        index = {}
    else:
        index = {s: i for i, s in enumerate(v.symbols)}

    def resolve(token: str) -> int:
        display = _token_symbol(token)
        if v is not None:
            if display not in index:
                raise ValidationError(f"symbol {display!r} not in vocabulary")
            sym = index[display]
            if sym == v.blank:
                raise ValidationError("confusion sets may not contain the blank")
            return sym
        if display not in index:
            index[display] = len(local_symbols)
            local_symbols.append(display)
        return index[display]

    alternatives, nulls = [], []
    for line_no, line in enumerate(set_lines, start=1):
        tokens = line.split()
        if len(tokens) % 2 != 0 or not tokens:
            raise ValidationError(f"set line {line_no} must hold symbol/value pairs")
        entries: dict[int, float] = {}  # -1 holds the null
        for tok, val in zip(tokens[::2], tokens[1::2]):
            try:
                value = float(val)
            except ValueError:
                raise ValidationError(f"set line {line_no}: bad value {val!r}") from None
            key = -1 if tok == NULL_TOKEN else resolve(tok)
            if key in entries:
                raise ValidationError(f"set line {line_no}: repeated {tok!r}")
            entries[key] = value
        nulls.append(entries.pop(-1, 0.0))
        alternatives.append(entries)
    if v is None:
        local_symbols = local_symbols or [UNUSED_SYMBOL]
        v = Vocabulary(tuple(local_symbols) + (BLANK_TOKEN,), blank_index=len(local_symbols))
    cn = ConfusionNetwork._from_arrays(*_flatten(alternatives, nulls), normalized=normalized, total_score=total)
    return cn, v, meta


def write_nbest(
    path_or_file, groups: Iterable[tuple[Segment, NBestList]], v: Vocabulary
) -> None:
    fh, close = _open_out(path_or_file)
    try:
        fh.write(NBEST_MAGIC + "\n")
        for seg, nbest in groups:
            kind = "confident" if seg.confident else "unconfident"
            fh.write(f"segment {seg.start} {seg.end} {kind}\n")
            for labeling, weight in nbest:
                tokens = [_symbol_token(v.symbols[s]) for s in labeling]
                fh.write(" ".join([_fmt(weight)] + tokens) + "\n")
    finally:
        if close:
            fh.close()


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


def dump_target(target: CompiledTarget, v: Vocabulary) -> str:
    """Deterministic listing of a compiled target for golden comparisons."""
    out = _io.StringIO()
    out.write(TARGET_MAGIC + "\n")
    out.write(f"states {target.num_states}\n")
    for s in range(target.num_states):
        role = "blank" if target.is_blank[s] else "letter"
        sym = target.state_symbols[s]
        token = BLANK_TOKEN if sym == v.blank else _symbol_token(v.symbols[sym])
        out.write(f"state {s} group {target.group_index[s]} {role} {token}\n")
    for name, vec in (("alpha", target.alpha_hat), ("beta", target.beta_hat)):
        for s in np.flatnonzero(vec):
            out.write(f"{name} {s} {_fmt(vec[s])}\n")
    coo = target.transition.tocoo()
    order = np.lexsort((coo.col, coo.row))
    out.write(f"edges {coo.nnz}\n")
    for i in order:
        out.write(f"edge {coo.row[i]} {coo.col[i]} {_fmt(coo.data[i])}\n")
    return out.getvalue()

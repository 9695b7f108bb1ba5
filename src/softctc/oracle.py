"""Brute-force reference implementations used to pin down expected values.

Everything here works by exhaustive enumeration over alignment paths or
per-set choices, or, for the beam search, the edit-distance aligner, the
n-best fold and network merge, the network transforms, the network parser,
the target compiler and the forward-backward kernel, by the plain loops the
fast paths replaced, and, for long lines whose linear-domain passes
underflow, by a dense forward pass in the log domain.  None of it shares
logic with the fast paths; the only common ground is the data containers and
the file formats' constants.  Sizes are guarded so a misuse fails loudly
instead of grinding.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .compiler import CompiledTarget
from .confusion import ConfusionNetwork, ConfusionSet
from .io import (
    BLANK_TOKEN,
    CN_MAGIC,
    NULL_TOKEN,
    SPACE_TOKEN,
    UNUSED_SYMBOL,
)
from .types import (
    InfeasibleTarget,
    Labeling,
    NBestList,
    PosteriorMatrix,
    TooLarge,
    ValidationError,
    Vocabulary,
)

MAX_CTC_PATHS = 10**7
MAX_CN_PATHS = 10**6
NEG_INF = float("-inf")


def kahan_sum(values: Iterable[float]) -> float:
    """Compensated summation; keeps oracle error far below test tolerances."""
    total = 0.0
    carry = 0.0
    for x in values:
        y = float(x) - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def collapse_path(path: Iterable[int], blank: int) -> tuple[int, ...]:
    """Merge repeats, then drop blanks: the many-to-one path-to-labeling map."""
    out: list[int] = []
    prev = None
    for s in path:
        if s != prev:
            out.append(s)
        prev = s
    return tuple(s for s in out if s != blank)


# Path tables keyed by (vocab size, frames, blank): labeling -> array of paths.
# The table depends only on the shape, so it is shared across instances.
_path_tables: dict[tuple[int, int, int], dict[tuple[int, ...], np.ndarray]] = {}


def _path_table(vocab_size: int, frames: int, blank: int) -> dict[tuple[int, ...], np.ndarray]:
    key = (vocab_size, frames, blank)
    table = _path_tables.get(key)
    if table is None:
        grouped: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for path in itertools.product(range(vocab_size), repeat=frames):
            grouped.setdefault(collapse_path(path, blank), []).append(path)
        table = {lab: np.array(paths, dtype=np.int64) for lab, paths in grouped.items()}
        _path_tables[key] = table
    return table


def _check_ctc_size(vocab_size: int, frames: int) -> None:
    if vocab_size**frames > MAX_CTC_PATHS:
        raise TooLarge(
            f"{vocab_size}^{frames} paths exceed the {MAX_CTC_PATHS} enumeration guard"
        )


def enumerate_ctc(y: PosteriorMatrix, l: Labeling, v: Vocabulary) -> float:
    """Total probability of ``l``: the sum over every path collapsing to it."""
    if y.vocab_size != len(v):
        raise ValidationError("posterior width does not match vocabulary")
    frames = y.num_frames
    _check_ctc_size(len(v), frames)
    paths = _path_table(len(v), frames, v.blank).get(tuple(l))
    if paths is None:
        return 0.0
    probs = y.frames[np.arange(frames)[None, :], paths].prod(axis=1)
    return kahan_sum(probs.tolist())


def enumerate_cn_paths(cn: ConfusionNetwork) -> list[tuple[Labeling, float]]:
    """Every per-set choice combination with its weight, duplicates kept.

    Combinations that pick null in different sets may yield the same string;
    this is the unmerged (path) convention.
    """
    count = 1
    for s in cn.sets:
        count *= s.size()
    if count > MAX_CN_PATHS:
        raise TooLarge(f"{count} combinations exceed the {MAX_CN_PATHS} enumeration guard")
    choice_lists = []
    for s in cn.sets:
        choices: list[tuple[int | None, float]] = sorted(s.alternatives.items())
        if s.null > 0.0:
            choices.append((None, s.null))
        choice_lists.append(choices)
    out: list[tuple[Labeling, float]] = []
    for combo in itertools.product(*choice_lists):
        symbols = tuple(sym for sym, _ in combo if sym is not None)
        weight = 1.0
        for _, w in combo:
            weight *= w
        out.append((Labeling(symbols), weight))
    return out


def enumerate_cn_strings(cn: ConfusionNetwork) -> list[tuple[Labeling, float]]:
    """Distinct strings with summed weights (merged convention), sorted."""
    merged: dict[tuple[int, ...], list[float]] = {}
    for labeling, weight in enumerate_cn_paths(cn):
        merged.setdefault(labeling.symbols, []).append(weight)
    return [
        (Labeling(sym), kahan_sum(ws)) for sym, ws in sorted(merged.items())
    ]


def oracle_softctc(y: PosteriorMatrix, cn: ConfusionNetwork, v: Vocabulary) -> float:
    """Probability of the network: weight-sum of per-variant path probabilities.

    Iterates the unmerged combinations so the value is literally
    sum(weight * enumerate_ctc(string)); identical strings are memoized, which
    cannot change the summation order.
    """
    cache: dict[tuple[int, ...], float] = {}
    terms = []
    for labeling, weight in enumerate_cn_paths(cn):
        key = labeling.symbols
        if key not in cache:
            cache[key] = enumerate_ctc(y, labeling, v)
        terms.append(weight * cache[key])
    return kahan_sum(terms)


def reference_prefix_beam_search(
    y: PosteriorMatrix, v: Vocabulary, beam_size: int
) -> NBestList:
    """Prefix beam search as a plain loop over every (prefix, symbol) pair.

    The reference for :func:`softctc.decoding.prefix_beam_search`: same
    candidate set, merge rule, ranking (mass, then symbol tuple) and
    underflow fallback, one scalar logaddexp at a time.
    """
    if beam_size < 1:
        raise ValidationError("beam size must be at least 1")
    frames = y.frames
    with np.errstate(divide="ignore"):
        log_y = np.log(frames)
    blank = v.blank
    letters = [k for k in range(len(v)) if k != blank]

    beams: dict[tuple[int, ...], tuple[float, float]] = {(): (0.0, NEG_INF)}
    for t in range(frames.shape[0]):
        row = log_y[t]
        grown: dict[tuple[int, ...], list[float]] = defaultdict(lambda: [NEG_INF, NEG_INF])
        for prefix, (lp_b, lp_nb) in beams.items():
            total = np.logaddexp(lp_b, lp_nb)
            entry = grown[prefix]
            entry[0] = np.logaddexp(entry[0], total + row[blank])
            if prefix:
                entry[1] = np.logaddexp(entry[1], lp_nb + row[prefix[-1]])
            for k in letters:
                lp = row[k]
                if lp == NEG_INF:
                    continue
                extended = grown[prefix + (k,)]
                if prefix and k == prefix[-1]:
                    extended[1] = np.logaddexp(extended[1], lp_b + lp)
                else:
                    extended[1] = np.logaddexp(extended[1], total + lp)
        ranked = sorted(
            grown.items(),
            key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]),
        )
        beams = {p: (m[0], m[1]) for p, m in ranked[:beam_size]}

    scored = sorted(
        ((p, float(np.logaddexp(b, nb))) for p, (b, nb) in beams.items()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    entries = [
        (Labeling(p), math.exp(lm)) for p, lm in scored if math.exp(lm) > 0.0
    ]
    if not entries:
        # all mass underflowed; keep the top prefix with a representable weight
        entries = [(Labeling(scored[0][0]), 5e-324)]
    return NBestList(tuple(entries))


def reference_levenshtein_align(a, b) -> list[tuple[str, int, int]]:
    """Edit-distance alignment from the full (n+1) x (m+1) table.

    The reference for :func:`softctc.confusion.levenshtein_align`: same
    ops, same tie order (match, substitution, deletion, insertion).
    """
    a = list(a)
    b = list(b)
    n, m = len(a), len(b)
    # dist[i][j] = edit distance between a[i:] and b[j:]
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][m] = n - i
    for j in range(m + 1):
        dist[n][j] = m - j
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            sub = dist[i + 1][j + 1] + (a[i] != b[j])
            dist[i][j] = min(sub, dist[i + 1][j] + 1, dist[i][j + 1] + 1)
    ops: list[tuple[str, int, int]] = []
    i = j = 0
    while i < n or j < m:
        here = dist[i][j]
        if i < n and j < m and a[i] == b[j] and here == dist[i + 1][j + 1]:
            ops.append(("match", i, j))
            i += 1
            j += 1
        elif i < n and j < m and a[i] != b[j] and here == dist[i + 1][j + 1] + 1:
            ops.append(("substitute", i, j))
            i += 1
            j += 1
        elif i < n and here == dist[i + 1][j] + 1:
            ops.append(("delete", i, -1))
            i += 1
        else:
            ops.append(("insert", -1, j))
            j += 1
    return ops


def reference_normalize_cn(cn: ConfusionNetwork) -> ConfusionNetwork:
    """Per-set normalization, one ``ConfusionSet.normalized`` at a time."""
    return ConfusionNetwork(tuple(s.normalized() for s in cn.sets), normalized=True)


def reference_smooth(cn: ConfusionNetwork, n: float) -> ConfusionNetwork:
    """n-th root and renormalization, one set at a time."""
    out = []
    for s in cn.sets:
        if math.isinf(n):
            alts = {k: 1.0 for k in s.alternatives}
            null = 1.0 if s.null > 0.0 else 0.0
        else:
            inv = 1.0 / n
            alts = {k: v**inv for k, v in s.alternatives.items()}
            null = s.null**inv
        out.append(ConfusionSet(alts, null).normalized())
    return ConfusionNetwork(tuple(out), normalized=True)


def reference_prune(cn: ConfusionNetwork, cutoff: float) -> ConfusionNetwork:
    """Cutoff pruning, one set at a time; a set left bare keeps its best
    alternative, the smallest symbol among ties."""
    out = []
    for s in cn.sets:
        probs = s.normalized()
        kept = {k: v for k, v in probs.alternatives.items() if v > cutoff}
        if not kept:
            score = max(probs.alternatives.values())
            kept = {min(k for k, v in probs.alternatives.items() if v == score): score}
        out.append(ConfusionSet(kept, probs.null).normalized())
    return ConfusionNetwork(tuple(out), normalized=True)


# a mutable confusion set of the reference fold: [alternatives, null]
_FoldSet = list


def _reference_best_positions(sets: list[_FoldSet]) -> tuple[list[int], list[int]]:
    """Best-path symbols and their set indices, each set's best choice
    recomputed from scratch: the highest score, the smaller symbol on ties,
    and null only when strictly greater."""
    symbols: list[int] = []
    positions: list[int] = []
    for i, (alternatives, null) in enumerate(sets):
        score = max(alternatives.values())
        sym = min(k for k, v in alternatives.items() if v == score)
        if not null > score:
            symbols.append(sym)
            positions.append(i)
    return symbols, positions


def _reference_merge_pair(
    a_sets: list[_FoldSet], a_total: float, b_sets: list[_FoldSet], b_total: float
) -> list[_FoldSet]:
    """Align ``b``'s best path against ``a``'s and sum the paired sets; a set
    without a counterpart absorbs the other side's total on null."""
    pa, posa = _reference_best_positions(a_sets)
    pb, posb = _reference_best_positions(b_sets)
    out: list[_FoldSet] = []

    def flush(sets: list[_FoldSet], start: int, stop: int, other_total: float) -> int:
        for s in sets[start:stop]:
            s[1] += other_total
        out.extend(sets[start:stop])
        return stop

    ca = cb = 0
    for kind, i, j in reference_levenshtein_align(pa, pb):
        if kind == "delete":
            ca = flush(a_sets, ca, posa[i] + 1, b_total)
        elif kind == "insert":
            cb = flush(b_sets, cb, posb[j] + 1, a_total)
        else:  # match or substitute
            ca = flush(a_sets, ca, posa[i], b_total)
            cb = flush(b_sets, cb, posb[j], a_total)
            sa, sb = a_sets[ca], b_sets[cb]
            for sym, v in sb[0].items():
                sa[0][sym] = sa[0].get(sym, 0.0) + v
            sa[1] += sb[1]
            out.append(sa)
            ca, cb = ca + 1, cb + 1
    flush(a_sets, ca, len(a_sets), b_total)
    flush(b_sets, cb, len(b_sets), a_total)
    return out


def _reference_fold(parts: Iterable[tuple[list[_FoldSet], float]]) -> tuple[list[_FoldSet], float]:
    parts = iter(parts)
    acc, acc_total = next(parts)
    for sets, total in parts:
        acc = _reference_merge_pair(acc, acc_total, sets, total)
        acc_total += total
    return acc, acc_total


def _reference_raw_network(sets: list[_FoldSet], total: float) -> ConfusionNetwork:
    return ConfusionNetwork(
        tuple(ConfusionSet(alts, null) for alts, null in sets), normalized=False, total_score=total
    )


def reference_build_cn(nbest: NBestList, normalize: bool = True) -> ConfusionNetwork:
    """N-best fold with every best path recomputed over every set on every merge.

    The reference for :func:`softctc.confusion.build_cn`: hypotheses in
    descending weight order (symbol tuple on ties), each a one-path network
    aligned against the current best path by the full-table aligner, with
    per-set normalization at the end.  A raw fold whose total is below the
    smallest normal double ``tiny`` has every score and null multiplied by
    ``tiny / total`` and ``tiny`` as its total, the decoder's floor, so that
    its sets keep their proportions.
    """
    entries = sorted(nbest.entries, key=lambda e: (-e[1], e[0].symbols))
    sets, total = _reference_fold(([[{s: w}, 0.0] for s in labeling], w) for labeling, w in entries)
    if normalize:
        return ConfusionNetwork(tuple(ConfusionSet(alts, null).normalized() for alts, null in sets))
    tiny = np.finfo(float).tiny
    if total < tiny:
        factor = tiny / total
        sets = [[{s: p * factor for s, p in alts.items()}, null * factor] for alts, null in sets]
        total = tiny
    return _reference_raw_network(sets, total)


def reference_merge_cns(cns: list[ConfusionNetwork]) -> ConfusionNetwork:
    """The fold of :func:`reference_build_cn` over raw networks, normalized once.

    The reference for :func:`softctc.confusion.merge_cns`.
    """
    if not cns:
        raise ValidationError("nothing to merge")
    if any(cn.normalized for cn in cns):
        raise ValidationError("merge expects raw networks; normalization is final")
    sets, total = _reference_fold(
        ([[dict(s.alternatives), s.null] for s in cn.sets], cn.total_score) for cn in cns
    )
    return reference_normalize_cn(_reference_raw_network(sets, total))


def reference_read_cn(
    path_or_file, v: Vocabulary | None = None
) -> tuple[ConfusionNetwork, Vocabulary, dict]:
    """Network file parsing one ``set`` line and one symbol/value pair at a time.

    The reference for :func:`softctc.io.read_cn`: the same network,
    vocabulary and metadata, and for a malformed file the same first error.
    """
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, encoding="utf-8") as fh:
            text = fh.read()
    lines = [line.strip() for line in text.splitlines()]
    if not lines or lines[0] != CN_MAGIC:
        raise ValidationError(f"not a confusion network file (missing {CN_MAGIC!r} header)")
    meta: dict[str, str] = {}
    set_lines: list[str] = []
    expecting = None
    for line in lines:
        if not line or line[0] == "#":
            continue
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
    total_text = meta.pop("total", "1.0")
    try:
        total = float(total_text)
    except ValueError:
        raise ValidationError(f"bad total {total_text!r}") from None

    local_symbols: list[str] = []
    index = {} if v is None else {s: i for i, s in enumerate(v.symbols)}

    def resolve(token: str, line_no: int) -> int:
        display = " " if token == SPACE_TOKEN else token
        if v is not None:
            if display not in index:
                raise ValidationError(f"symbol {display!r} not in vocabulary")
            sym = index[display]
            if sym == v.blank:
                raise ValidationError(f"set line {line_no}: confusion sets may not contain the blank")
            return sym
        if token == BLANK_TOKEN:
            raise ValidationError(f"set line {line_no}: confusion sets may not contain the blank")
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
            key = -1 if tok == NULL_TOKEN else resolve(tok, line_no)
            if key in entries:
                raise ValidationError(f"set line {line_no}: repeated {tok!r}")
            entries[key] = value
        nulls.append(entries.pop(-1, 0.0))
        alternatives.append(entries)
    if v is None:
        local_symbols = local_symbols or [UNUSED_SYMBOL]
        v = Vocabulary(tuple(local_symbols) + (BLANK_TOKEN,), blank_index=len(local_symbols))
    cn = ConfusionNetwork(
        tuple(ConfusionSet(alts, null) for alts, null in zip(alternatives, nulls)),
        normalized=normalized_text == "true",
        total_score=total,
    )
    return cn, v, meta


# (letters, epsilon, blank weight) of one compiled group
_Group = tuple[list[tuple[int, float]], float, float]


def _reference_groups(cn: ConfusionNetwork) -> list[_Group]:
    """(letters, epsilon, blank weight) per set, then the terminal group.

    The blank weight is the set's exactly rounded letter sum over its total:
    one minus epsilon, formed without subtracting from one.
    """
    groups = []
    for s in cn.sets:
        total = s.total()
        epsilon = s.null / total
        letters = [(sym, p / total) for sym, p in sorted(s.alternatives.items())]
        groups.append((letters, epsilon, math.fsum(s.alternatives.values()) / total))
    groups.append(([], 0.0, 1.0))
    return groups


def _reference_initial_vectors(groups: list[_Group]) -> tuple[np.ndarray, np.ndarray]:
    sizes = [1 + len(letters) for letters, _, _ in groups]
    total_states = sum(sizes)
    alpha = np.zeros(total_states)
    beta = np.zeros(total_states)

    suffix_eps = [0.0] * len(groups)
    # product of epsilons over the real groups after g; terminal group excluded
    acc = 1.0
    for g in range(len(groups) - 2, -1, -1):
        suffix_eps[g] = acc
        acc *= groups[g][1]

    state = 0
    prefix_eps = 1.0
    for g, (letters, epsilon, blank_weight) in enumerate(groups):
        alpha[state] = prefix_eps * blank_weight
        for j, (_, p) in enumerate(letters):
            alpha[state + 1 + j] = prefix_eps * p
            beta[state + 1 + j] = suffix_eps[g]
        state += sizes[g]
        prefix_eps *= epsilon
    beta[total_states - 1] = 1.0  # terminal blank accepts endings freely
    return alpha, beta


def reference_compile_cn(cn: ConfusionNetwork, v: Vocabulary) -> CompiledTarget:
    """Target compiler that appends one arc at a time, walking each jump.

    The reference for :func:`softctc.compiler.compile_cn`: same groups,
    states, arcs, weights and boundary vectors, with every product formed in
    the same order, so the two agree bitwise.  Its one check is the
    invalid-symbol raise, with the same message; it does not check that the
    network is normalized.
    """
    groups = _reference_groups(cn)
    sizes = [1 + len(letters) for letters, _, _ in groups]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    total_states = int(offsets[-1])

    state_symbols = np.full(total_states, v.blank, dtype=np.int64)
    for g, (letters, _, _) in enumerate(groups):
        for j, (sym, _) in enumerate(letters):
            if not 0 <= sym < len(v) or sym == v.blank:
                raise ValidationError(f"set {g} contains an invalid symbol {sym}")
            state_symbols[offsets[g] + 1 + j] = sym

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add(i: int, j: int, w: float):
        if w != 0.0:
            rows.append(i)
            cols.append(j)
            vals.append(w)

    for s in range(total_states):
        add(s, s, 1.0)
    for g, (letters, _, blank_weight) in enumerate(groups):
        base = offsets[g]
        for j, (_, p) in enumerate(letters):
            add(base, base + 1 + j, p / blank_weight)
        for j, (sym, _) in enumerate(letters):
            src = base + 1 + j
            hop = 1.0
            for h in range(g + 1, len(groups)):
                dst_base = offsets[h]
                dest_letters, dest_epsilon, dest_blank = groups[h]
                add(src, dst_base, hop * dest_blank)
                for k, (dsym, dp) in enumerate(dest_letters):
                    if dsym != sym:
                        add(src, dst_base + 1 + k, hop * dp)
                hop *= dest_epsilon
                if hop == 0.0:
                    break

    transition = sp.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))),
        shape=(total_states, total_states),
    )
    transition.sort_indices()
    alpha_hat, beta_hat = _reference_initial_vectors(groups)
    return CompiledTarget(transition, state_symbols, alpha_hat, beta_hat)


class ReferencePasses(NamedTuple):
    """One line's rescaled passes, as :func:`reference_run_passes` returns them.

    ``alphas[t]`` and ``betas[t]`` are the vectors after frame ``t``'s
    emission multiply, divided by their pass's scale at frame ``t``
    (``alpha_scales[t]``, ``beta_scales[t]``), which the next product reads;
    ``pre_alphas[t]`` and ``pre_betas[t]`` the vectors before it, which the
    gradient bins: the initial or final weights, or the product of the
    neighbouring frame's rescaled vector.
    """

    loss: float
    alphas: np.ndarray
    betas: np.ndarray
    pre_alphas: np.ndarray
    pre_betas: np.ndarray
    alpha_scales: np.ndarray
    beta_scales: np.ndarray


def _frame_mass(vec: np.ndarray) -> np.float64:
    """The sum of ``vec`` as the kernel takes a line's scale.

    The kernel sums each line's slot with ``np.add.reduceat``; calling it over
    the one slot, rather than copying the order in which numpy happens to sum
    inside it, makes the passes agree bit for bit with the kernel's wherever
    it does not flush.  The gradient pins need that at a zero posterior: there
    the gradient can reach 1e6 or more, and a one-ulp difference in a scale
    moves it by more than the pins' absolute bound.
    """
    return np.add.reduceat(vec, [0])[0]


def reference_run_passes(
    y: np.ndarray,
    transition: sp.csr_matrix,
    state_symbols: np.ndarray,
    alpha_init: np.ndarray,
    beta_final: np.ndarray,
) -> ReferencePasses:
    """Rescaled forward-backward with row-vector products, one frame at a time.

    The reference for the passes of :func:`softctc.forward_backward.run_batch`
    on one line: same recursions, scale checks and messages, and each
    frame's mass summed in the kernel's order.  The loss is the negative log
    probability.
    """
    transition_t = transition.T.tocsr()
    frames = y.shape[0]
    q = y[:, state_symbols]  # (T, S) emission slice per state

    alphas, pre_alphas = np.empty_like(q), np.empty_like(q)
    alpha_scales = np.empty(frames)
    for t in range(frames):
        pre = alpha_init if t == 0 else alphas[t - 1] @ transition
        vec = pre * q[t]
        scale = _frame_mass(vec)
        if not 0.0 < scale < np.inf:  # also catches NaN
            raise InfeasibleTarget(
                f"forward mass {float(scale)!r} at frame {t}; target admits no alignment"
            )
        alphas[t], pre_alphas[t] = vec / scale, pre
        alpha_scales[t] = scale

    final = float(alphas[-1] @ beta_final)
    if not 0.0 < final < np.inf:
        raise InfeasibleTarget(f"final mass {final!r}; no admissible final state reachable")
    loss = -(np.log(alpha_scales).sum() + np.log(final))

    betas, pre_betas = np.empty_like(q), np.empty_like(q)
    beta_scales = np.empty(frames)
    for t in range(frames - 1, -1, -1):
        pre = beta_final if t == frames - 1 else betas[t + 1] @ transition_t
        vec = pre * q[t]
        scale = _frame_mass(vec)
        if not 0.0 < scale < np.inf:
            raise InfeasibleTarget(f"backward mass {float(scale)!r} at frame {t}")
        betas[t], pre_betas[t] = vec / scale, pre
        beta_scales[t] = scale
    return ReferencePasses(
        float(loss), alphas, betas, pre_alphas, pre_betas, alpha_scales, beta_scales
    )


def _log_sum_exp(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    peak = np.max(x, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0  # an all -inf slice stays -inf
    total = np.log(np.sum(np.exp(x - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(total, axis=axis) if axis is not None else total.item()


def reference_log_loss(
    y: np.ndarray,
    transition: sp.csr_matrix,
    state_symbols: np.ndarray,
    alpha_init: np.ndarray,
    beta_final: np.ndarray,
) -> float:
    """Negative log probability by a dense forward pass in the log domain.

    The judge for long lines and near-zero emissions, where the rescaled
    linear-domain passes can lose mass to underflow: log-probabilities do
    not underflow, so this reads the exact value up to rounding.  Costs
    O(frames * states^2); raises InfeasibleTarget when no alignment carries
    probability mass.
    """
    with np.errstate(divide="ignore"):
        log_arc = np.log(transition.toarray())
        log_q = np.log(y[:, state_symbols])
        log_alpha = np.log(alpha_init) + log_q[0]
        for t in range(1, y.shape[0]):
            log_alpha = _log_sum_exp(log_alpha[:, None] + log_arc, axis=0) + log_q[t]
        log_p = _log_sum_exp(log_alpha + np.log(beta_final))
    if log_p == NEG_INF:
        raise InfeasibleTarget("no alignment carries probability mass")
    return -float(log_p)


def reference_gradient(
    y: np.ndarray, state_symbols: np.ndarray, passes: ReferencePasses
) -> np.ndarray:
    """Gradient of -log P from :func:`reference_run_passes`'s ``pre_*`` vectors.

    P is affine in each entry ``y[t, k]``: its slope there is the sum of
    pre_alpha*pre_beta over the states of symbol ``k``, times the scales of
    the other frames, and P is the sum of the slopes weighted by the row's
    entries.  So the form holds also where ``y`` is 0, and any factor per
    frame cancels: the terms are divided by the frame's two scales, as the
    kernel divides them, which keeps them near the row total's range.
    States are binned one at a time; the reference for the gradient of
    :func:`softctc.forward_backward.run_batch`.
    """
    scales = passes.alpha_scales * passes.beta_scales
    terms = passes.pre_alphas / scales[:, None] * passes.pre_betas
    binned = np.zeros_like(y)
    for s in range(state_symbols.shape[0]):
        binned[:, state_symbols[s]] += terms[:, s]
    row_totals = (y * binned).sum(axis=1)
    return -binned / row_totals[:, None]


def finite_difference_grad(
    f: Callable[[PosteriorMatrix], float], y: PosteriorMatrix, step: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of ``f`` over the raw posterior entries.

    Rows are perturbed without renormalization, so ``f`` must accept matrices
    whose rows do not sum to one.
    """
    if not 1e-8 <= step <= 1e-4:
        raise ValidationError(f"step {step!r} outside [1e-8, 1e-4]")
    base = np.array(y.frames, dtype=np.float64)
    grad = np.zeros_like(base)
    for t in range(base.shape[0]):
        for k in range(base.shape[1]):
            plus = base.copy()
            plus[t, k] += step
            minus = base.copy()
            minus[t, k] -= step
            grad[t, k] = (
                f(PosteriorMatrix(plus)) - f(PosteriorMatrix(minus))
            ) / (2.0 * step)
    return grad

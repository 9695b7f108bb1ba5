"""Compile confusion networks and n-best lists into sparse alignment targets.

Each set of a normalized confusion network becomes a group: one blank state
plus one state per letter alternative, with the skip (null) mass folded into
the transition weights.  A terminal blank-only group is appended so
alignments may end on trailing blanks exactly like the plain chain targets.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .confusion import ConfusionNetwork, _fsum_totals
from .types import NBestList, ValidationError, Vocabulary


@dataclass(frozen=True, eq=False)
class CompiledTarget:
    """Sparse transition matrix plus boundary vectors, ready for the kernel.

    Construction raises ValidationError naming the field unless the
    transition is a square CSR matrix of finite, nonnegative weights whose
    arcs all lead to the same or a later state, as the kernel requires, and
    there is one nonnegative integer symbol and one finite, nonnegative
    start and end weight per state.  The target keeps read-only copies of
    the arrays, of the dtypes given (unsigned symbols become int64), so it
    stays valid for its whole life.
    """

    transition: sp.csr_matrix
    state_symbols: np.ndarray
    alpha_hat: np.ndarray
    beta_hat: np.ndarray

    def __post_init__(self):
        m = self.transition
        if not (sp.issparse(m) and m.format == "csr" and m.shape[0] == m.shape[1]
                and m.dtype.kind in "iuf"):
            raise ValidationError(f"transition must be a square real CSR matrix, got "
                                  f"{type(m).__name__} of shape {getattr(m, 'shape', None)}")
        bad = np.flatnonzero(~((m.data >= 0) & (m.data < np.inf)))  # NaN is bad too
        if bad.size:
            row = int(np.searchsorted(m.indptr, bad[0], side="right")) - 1
            raise ValidationError(f"transition weights must be finite and nonnegative, got "
                                  f"{m.data[bad[0]]!r} at ({row}, {m.indices[bad[0]]})")
        states = m.shape[0]
        rows = np.repeat(np.arange(states, dtype=m.indices.dtype), np.diff(m.indptr))
        back = np.flatnonzero(m.indices < rows)
        if back.size:
            raise ValidationError(f"transition arcs must not lead to an earlier state, got one "
                                  f"from state {rows[back[0]]} to state {m.indices[back[0]]}")
        for name, kinds, what in (("state_symbols", "iu", "nonnegative integer symbol"),
                                  ("alpha_hat", "iuf", "finite, nonnegative weight"),
                                  ("beta_hat", "iuf", "finite, nonnegative weight")):
            a = np.asarray(getattr(self, name))
            if a.shape != (states,) or a.dtype.kind not in kinds:
                raise ValidationError(f"{name} must hold one {what} per state ({states}), "
                                      f"got {a.dtype} of shape {a.shape}")
            if a.dtype.kind == "u":  # uint64 plus the kernel's int64 state ids makes floats
                a = a.astype(np.int64)
            bad = np.flatnonzero(~((a >= 0) & (a < np.inf)))
            if bad.size:
                raise ValidationError(f"{name} must hold one {what} per state, "
                                      f"got {a[bad[0]]!r} at state {bad[0]}")
            object.__setattr__(self, name, _read_only(a))
        frozen = copy.copy(m)  # then its own read-only arrays, in the caller's dtypes
        frozen.data, frozen.indices, frozen.indptr = map(_read_only, (m.data, m.indices, m.indptr))
        object.__setattr__(self, "transition", frozen)

    @property
    def num_states(self) -> int:
        return self.state_symbols.shape[0]


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``, of its dtype."""
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _boundary(
    epsilon: np.ndarray, group_index: np.ndarray, entry: np.ndarray, is_blank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Start and end weights per state, in compiled state order.

    An alignment may start inside group g after skipping everything before it
    and may end at a letter whose remaining groups are all skippable.  The
    terminal blank always accepts endings at full weight, which is what makes
    a network of singleton sets behave exactly like the plain chain.
    """
    real = epsilon.shape[0] - 1  # the terminal group is never skipped over
    # prefix_eps[g]: product of the epsilons before g, front to back;
    # suffix_eps[g]: product over the real groups after g, back to front
    prefix_eps = np.cumprod(np.concatenate(([1.0], epsilon[:-1])))
    suffix_eps = np.zeros(epsilon.shape[0])
    if real:
        suffix_eps[:real] = np.cumprod(np.concatenate(([1.0], epsilon[real - 1 : 0 : -1])))[::-1]
    alpha = prefix_eps[group_index] * entry
    beta = np.where(is_blank, 0.0, suffix_eps[group_index])
    beta[-1] = 1.0  # terminal blank accepts endings freely
    return alpha, beta


def _skip_runs(
    epsilon: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each source group's run length, the start of its slot of hops, and the hops.

    Source group g jumps to groups g + 1, g + 2, ... while the hop, the skip
    mass of the groups strictly between, is nonzero, up to the last group;
    its slot holds those hops in order, each the left-to-right product a
    per-source loop forms.  Round k walks the next 2^k destinations of every
    source still running, one ``np.multiply.accumulate`` row per source; a
    source runs into round k only with a run of at least 2^k, so its slot of
    2^(k+1) - 1 walked hops, zeros past its run included, holds fewer than
    twice the hops it keeps.
    """
    groups = epsilon.shape[0]
    # no walk reads past 2 * groups: a source walks 2^k more destinations only
    # when the first of them is a group, and skips past the last group are 0
    padded = np.zeros(2 * groups)
    padded[:groups] = epsilon
    slots = np.zeros(sources.shape[0], dtype=np.int64)
    live, start, hop = np.arange(sources.shape[0]), sources + 1, np.ones(sources.shape[0])
    walks = []
    width = 1
    while live.size:
        # row i: the hops into start[i], start[i] + 1, ..., each the one
        # before times the skip mass of the group in between
        walk = padded[start[:, None] + np.arange(-1, width - 1)]
        walk[:, 0] = hop
        np.multiply.accumulate(walk, axis=1, out=walk)
        walks.append((live, width, walk))
        slots[live] = 2 * width - 1
        # the hop into start + width: nonzero only if every hop before it is
        hop = walk[:, -1] * padded[start + width - 1]
        on = np.flatnonzero(hop)
        live, start, hop = live[on], start[on] + width, hop[on]
        width *= 2
    starts = np.cumsum(slots) - slots
    hops = np.empty(int(slots.sum()))
    for live, width, walk in walks:
        hops[starts[live, None] + np.arange(width - 1, 2 * width - 1)] = walk
    return np.add.reduceat(hops != 0.0, starts, dtype=np.int64), starts, hops


def compile_cn(cn: ConfusionNetwork, v: Vocabulary) -> CompiledTarget:
    """Materialize the sparse transition matrix for a normalized network.

    Each set becomes a group of one blank state and one state per letter,
    sorted by symbol; a letterless terminal group of skip mass 0 comes last.
    The set's null mass over its total is the group's skip mass epsilon, and
    its blank's entry weight is the set's letter mass over its total, which
    is one minus epsilon without the cancellation.  Within a group the blank
    feeds each letter with the letter's conditional probability.  Across
    groups only letters have outgoing edges; each jump pays the skip mass of
    the groups it hops over and the entry mass of its destination, stopping
    at the first unskippable group.  Same-symbol jumps are dropped so
    repeated letters must pass through a blank, exactly as in the plain
    chain.  Arcs of zero weight are left out.  Raises ValidationError on a
    raw network and on an invalid symbol; every other normalized network
    compiles, a set of null mass near one included.

    The CSR arrays are written in row order: each row is its diagonal, then
    one contiguous range of columns (a blank's own letters, or the states of
    the groups a letter jumps to), masked down to the arcs kept.  Every arc
    leads to the same or a later state, the upper-triangular form a
    :class:`CompiledTarget` requires.
    """
    if not cn.normalized:
        raise ValidationError("compile targets require a normalized network")
    # group g (the terminal one last) skips with epsilon[g] and holds its blank
    # at state offsets[g], then letter_counts[g] letters up to offsets[g + 1];
    # a state's entry mass is the letter probability for a letter and the
    # exactly rounded letter sum over the set's total for a blank, which
    # keeps its digits where 1 - epsilon would cancel.  Exact totals make
    # later telescoping sums close to machine precision.
    totals = np.array(cn.totals())
    letter_mass = _fsum_totals(cn.offsets, cn.scores, np.zeros_like(cn.nulls))
    epsilon = np.append(cn.nulls / totals, 0.0)
    letter_counts = np.append(np.diff(cn.offsets), 0)
    letter_p = cn.scores / np.repeat(totals, letter_counts[:-1])
    offsets = np.zeros(epsilon.shape[0] + 1, dtype=np.int64)
    np.cumsum(letter_counts + 1, out=offsets[1:])
    total_states = int(offsets[-1])
    group_index = np.repeat(np.arange(epsilon.shape[0], dtype=np.int64), letter_counts + 1)
    is_blank = np.zeros(total_states, dtype=bool)
    is_blank[offsets[:-1]] = True
    entry = np.empty(total_states)
    entry[offsets[:-1]] = np.append(letter_mass / totals, 1.0)
    entry[~is_blank] = letter_p

    letters = np.flatnonzero(~is_blank)
    letter_group = group_index[letters]
    first = v.first_non_letter(cn.symbols)
    if first is not None:
        raise ValidationError(f"set {letter_group[first]} contains an invalid symbol {cn.symbols[first]}")
    state_symbols = np.full(total_states, v.blank, dtype=np.int64)
    state_symbols[letters] = cn.symbols

    # every row is its diagonal, then one range of columns from lead[s]: a
    # blank's own letters, or every state of the groups a letter jumps to;
    # source group g's hops into groups g + 1, g + 2, ... start at hops[slot[g]]
    groups = epsilon.shape[0]
    sources = np.flatnonzero(letter_counts)
    runs, starts, hops = _skip_runs(epsilon, sources)
    reach = np.zeros(groups, dtype=np.int64)
    reach[sources] = offsets[sources + 1 + runs] - offsets[sources + 1]
    slot = np.zeros(groups, dtype=np.int64)
    slot[sources] = starts
    lead = np.where(is_blank, np.arange(1, total_states + 1), offsets[group_index + 1])
    sizes = 1 + np.where(is_blank, letter_counts[group_index], reach[group_index])
    row_start = np.cumsum(sizes) - sizes
    cols = np.arange(int(sizes.sum())) - np.repeat(row_start + 1 - lead, sizes)
    cols[row_start] = np.arange(total_states)
    # a letter's arc into group h pays its hop times the destination's entry
    # mass; a blank row reads the 1.0 put in front of the hops and divides by
    # its own entry mass, giving the letter's share of the set's letter mass,
    # never a division by zero, as every set holds a positive letter.
    # Multiplying and dividing by 1.0 is exact.
    hop_at = np.where(is_blank, 0, slot[group_index]) - group_index
    vals = np.append(1.0, hops)[np.repeat(hop_at, sizes) + group_index[cols]] * entry[cols]
    vals /= np.repeat(np.where(is_blank, entry, 1.0), sizes)
    vals[row_start] = 1.0
    # keep the diagonal and every nonzero arc between different symbols: a
    # blank never shares a letter's symbol, so this drops exactly the
    # same-symbol jumps
    kept = (vals != 0.0) & (np.repeat(state_symbols, sizes) != state_symbols[cols])
    kept[row_start] = True
    indptr = np.zeros(total_states + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(kept)[row_start + sizes - 1]
    transition = sp.csr_matrix((vals[kept], cols[kept], indptr), shape=(total_states, total_states))
    alpha_hat, beta_hat = _boundary(epsilon, group_index, entry, is_blank)
    return CompiledTarget(transition, state_symbols, alpha_hat, beta_hat)


def compile_nbest(nbest: NBestList, v: Vocabulary) -> CompiledTarget:
    """Encode an n-best list as parallel chains behind shared boundary blanks.

    Each variant becomes the letter, blank, letter, ..., letter chain of plain
    CTC: every state keeps a unit self-loop and feeds its successor, and a
    letter may skip the blank after it only when the next letter differs.
    Variant weights are normalized to sum to one, placed on the edges leaving
    the initial blank and mirrored into the start weights so an alignment may
    begin directly at a first letter.  Endings are free at any final letter
    and at the shared final blank.  An empty variant contributes its weight
    to starting directly in the final blank.  A one-entry list is the plain
    CTC target of its labeling.
    """
    lengths = np.array([len(labeling) for labeling, _ in nbest], dtype=np.int64)
    weights = np.array([weight for _, weight in nbest]) / nbest.total_weight
    symbols = np.array([sym for labeling, _ in nbest for sym in labeling], dtype=np.int64)
    variant = np.repeat(np.arange(lengths.shape[0]), lengths)
    first = v.first_non_letter(symbols)
    if first is not None:
        raise ValidationError(f"variant {variant[first]} contains an invalid symbol {symbols[first]}")

    # state 0 is the shared initial blank; variant i's chain of spans[i]
    # states starts at bases[i], with its letters at even offsets
    spans = np.maximum(2 * lengths - 1, 0)
    bases = 1 + np.cumsum(spans) - spans
    final_state = 1 + int(spans.sum())
    total_states = final_state + 1
    position = np.arange(symbols.shape[0]) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    letters = bases[variant] + 2 * position

    state_symbols = np.full(total_states, v.blank, dtype=np.int64)
    state_symbols[letters] = symbols

    chained = lengths > 0
    firsts = bases[chained]
    lasts = firsts + spans[chained] - 1
    # every chain state but the last of its chain feeds its successor
    in_chain = np.ones(total_states, dtype=bool)
    in_chain[[0, final_state]] = False
    in_chain[lasts] = False
    successors = np.flatnonzero(in_chain)
    skips = letters[:-1][(variant[1:] == variant[:-1]) & (symbols[1:] != symbols[:-1])]

    # entry arcs first: they carry the variant weights, every other arc is 1
    diagonal = np.arange(total_states)
    rows = np.concatenate((np.zeros_like(firsts), diagonal, successors, skips, lasts))
    cols = np.concatenate(
        (firsts, diagonal, successors + 1, skips + 2, np.full_like(lasts, final_state))
    )
    vals = np.ones(rows.shape[0])
    vals[: firsts.shape[0]] = weights[chained]
    transition = sp.csr_matrix((vals, (rows, cols)), shape=(total_states, total_states))
    transition.sort_indices()

    alpha_hat = np.zeros(total_states)
    alpha_hat[0] = 1.0
    alpha_hat[firsts] = weights[chained]
    # labelings are distinct, so at most one variant is empty
    alpha_hat[final_state] = weights[~chained].sum()
    beta_hat = np.zeros(total_states)
    beta_hat[lasts] = 1.0
    beta_hat[final_state] = 1.0
    return CompiledTarget(transition, state_symbols, alpha_hat, beta_hat)

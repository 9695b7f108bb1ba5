"""Compile confusion networks and n-best lists into sparse alignment targets.

Each confusion set becomes a character confusion group: one blank state plus
one state per letter alternative, with the skip (null) mass folded into the
transition weights.  A terminal blank-only group is appended so alignments
may end on trailing blanks exactly like the plain chain targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .confusion import ConfusionNetwork
from .types import (
    DegenerateSet,
    Labeling,
    NBestList,
    ValidationError,
    Vocabulary,
)

EPSILON_FLOOR = 1e-9


@dataclass(frozen=True)
class CharacterConfusionGroup:
    """Letter alternatives of one network position, plus skip and blank mass.

    ``letters`` holds (symbol, probability) sorted by symbol id; ``epsilon``
    is the probability of skipping the group entirely and ``blank_weight``
    the entry mass of its blank state (one minus epsilon).  The terminal
    group has no letters, epsilon 0 and blank weight 1.
    """

    letters: tuple[tuple[int, float], ...]
    epsilon: float
    blank_weight: float

    @property
    def is_terminal(self) -> bool:
        return not self.letters


@dataclass(frozen=True)
class TranscriptionConfusionModel:
    """Ordered confusion groups, terminal group included as the last entry."""

    groups: tuple[CharacterConfusionGroup, ...]

    def __post_init__(self):
        if not self.groups or not self.groups[-1].is_terminal:
            raise ValidationError("model must end with the terminal blank group")


@dataclass(frozen=True, eq=False)
class CompiledTarget:
    """Sparse transition matrix plus boundary vectors, ready for the kernel.

    ``group_index`` and ``is_blank`` describe each state for diagnostics.
    """

    transition: sp.csr_matrix
    state_symbols: np.ndarray
    group_index: np.ndarray
    is_blank: np.ndarray
    alpha_hat: np.ndarray
    beta_hat: np.ndarray

    @property
    def num_states(self) -> int:
        return self.state_symbols.shape[0]

    @property
    def num_groups(self) -> int:
        return int(self.group_index.max()) + 1 if self.num_states else 0


def build_tcm(cn: ConfusionNetwork) -> TranscriptionConfusionModel:
    """Turn a normalized network into confusion groups.

    Each set is renormalized exactly so later telescoping sums close to
    machine precision.  A set whose null mass reaches 1 has no usable letter
    and is rejected.
    """
    if not cn.normalized:
        raise ValidationError("compile targets require a normalized network")
    groups = []
    for i, s in enumerate(cn.sets):
        total = s.total()
        epsilon = s.null / total
        if epsilon >= 1.0 - EPSILON_FLOOR:
            raise DegenerateSet(f"set {i} is null with probability {epsilon!r}")
        letters = tuple((sym, p / total) for sym, p in sorted(s.alternatives.items()))
        groups.append(CharacterConfusionGroup(letters, epsilon, 1.0 - epsilon))
    groups.append(CharacterConfusionGroup((), 0.0, 1.0))
    return TranscriptionConfusionModel(tuple(groups))


def initial_vectors(tcm: TranscriptionConfusionModel) -> tuple[np.ndarray, np.ndarray]:
    """Boundary weights per state, in compiled state order.

    An alignment may start inside group g after skipping everything before it
    and may end at a letter whose remaining groups are all skippable.  The
    terminal blank always accepts endings at full weight, which is what makes
    a network of singleton sets behave exactly like the plain chain.
    """
    sizes = [1 + len(g.letters) for g in tcm.groups]
    total_states = sum(sizes)
    alpha = np.zeros(total_states)
    beta = np.zeros(total_states)

    suffix_eps = [0.0] * len(tcm.groups)
    # product of epsilons over the real groups after g; terminal group excluded
    acc = 1.0
    for g in range(len(tcm.groups) - 2, -1, -1):
        suffix_eps[g] = acc
        acc *= tcm.groups[g].epsilon

    state = 0
    prefix_eps = 1.0
    for g, group in enumerate(tcm.groups):
        alpha[state] = prefix_eps * group.blank_weight
        for j, (_, p) in enumerate(group.letters):
            alpha[state + 1 + j] = prefix_eps * p
            beta[state + 1 + j] = suffix_eps[g]
        state += sizes[g]
        prefix_eps *= group.epsilon
    beta[total_states - 1] = 1.0  # terminal blank accepts endings freely
    return alpha, beta


def compile_tcm(tcm: TranscriptionConfusionModel, v: Vocabulary) -> CompiledTarget:
    """Materialize the sparse transition matrix for a confusion model.

    Within a group the blank feeds each letter with the letter's conditional
    probability.  Across groups only letters have outgoing edges; each jump
    pays the skip mass of the groups it hops over and the entry mass of its
    destination, stopping at the first unskippable group.  Same-symbol jumps
    are dropped so repeated letters must pass through a blank, exactly as in
    the plain chain.
    """
    sizes = [1 + len(g.letters) for g in tcm.groups]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    total_states = int(offsets[-1])

    state_symbols = np.full(total_states, v.blank, dtype=np.int64)
    group_index = np.zeros(total_states, dtype=np.int64)
    is_blank = np.ones(total_states, dtype=bool)
    for g, group in enumerate(tcm.groups):
        base = offsets[g]
        group_index[base : base + sizes[g]] = g
        for j, (sym, _) in enumerate(group.letters):
            if not 0 <= sym < len(v) or sym == v.blank:
                raise ValidationError(f"set {g} contains an invalid symbol {sym}")
            state_symbols[base + 1 + j] = sym
            is_blank[base + 1 + j] = False

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
    for g, group in enumerate(tcm.groups):
        base = offsets[g]
        for j, (_, p) in enumerate(group.letters):
            add(base, base + 1 + j, p / group.blank_weight)
        for j, (sym, _) in enumerate(group.letters):
            src = base + 1 + j
            hop = 1.0
            for h in range(g + 1, len(tcm.groups)):
                dst_base = offsets[h]
                dest = tcm.groups[h]
                add(src, dst_base, hop * dest.blank_weight)
                for k, (dsym, dp) in enumerate(dest.letters):
                    if dsym != sym:
                        add(src, dst_base + 1 + k, hop * dp)
                hop *= dest.epsilon
                if hop == 0.0:
                    break

    transition = sp.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))),
        shape=(total_states, total_states),
    )
    transition.sort_indices()
    alpha_hat, beta_hat = initial_vectors(tcm)
    return CompiledTarget(
        transition, state_symbols, group_index, is_blank, alpha_hat, beta_hat
    )


def compile_cn(cn: ConfusionNetwork, v: Vocabulary) -> CompiledTarget:
    return compile_tcm(build_tcm(cn), v)


def compile_nbest(nbest: NBestList, v: Vocabulary) -> CompiledTarget:
    """Encode an n-best list as parallel chains behind shared boundary blanks.

    Variant weights are normalized to sum to one, placed on the edges leaving
    the initial blank and mirrored into the start weights so an alignment may
    begin directly at a first letter.  Endings are free at any final letter
    and at the shared final blank.  An empty variant contributes its weight
    to starting directly in the final blank.
    """
    total = nbest.total_weight
    entries = [(labeling, weight / total) for labeling, weight in nbest]

    chain_offsets = []
    state = 1  # state 0 is the shared initial blank
    for labeling, _ in entries:
        chain_offsets.append(state)
        if len(labeling):
            state += 2 * len(labeling) - 1
    final_state = state
    total_states = state + 1

    state_symbols = np.full(total_states, v.blank, dtype=np.int64)
    group_index = np.zeros(total_states, dtype=np.int64)
    is_blank = np.ones(total_states, dtype=bool)
    group_index[final_state] = len(entries) + 1

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add(i: int, j: int, w: float):
        rows.append(i)
        cols.append(j)
        vals.append(w)

    alpha_hat = np.zeros(total_states)
    beta_hat = np.zeros(total_states)
    alpha_hat[0] = 1.0
    beta_hat[final_state] = 1.0

    add(0, 0, 1.0)
    add(final_state, final_state, 1.0)
    for idx, (labeling, weight) in enumerate(entries):
        symbols = list(labeling)
        if not symbols:
            alpha_hat[final_state] += weight
            continue
        base = chain_offsets[idx]
        span = 2 * len(symbols) - 1
        group_index[base : base + span] = idx + 1
        for i, sym in enumerate(symbols):
            if not 0 <= sym < len(v) or sym == v.blank:
                raise ValidationError(f"variant {idx} contains an invalid symbol {sym}")
            state_symbols[base + 2 * i] = sym
            is_blank[base + 2 * i] = False
        add(0, base, weight)
        alpha_hat[base] = weight
        for s in range(base, base + span):
            add(s, s, 1.0)
            if s + 1 < base + span:
                add(s, s + 1, 1.0)
        for i in range(len(symbols) - 1):
            if symbols[i] != symbols[i + 1]:
                add(base + 2 * i, base + 2 * i + 2, 1.0)
        add(base + span - 1, final_state, 1.0)
        beta_hat[base + span - 1] = 1.0

    transition = sp.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))),
        shape=(total_states, total_states),
    )
    transition.sort_indices()
    return CompiledTarget(
        transition, state_symbols, group_index, is_blank, alpha_hat, beta_hat
    )


def linear_cn_target(l: Labeling, v: Vocabulary) -> CompiledTarget:
    """Compile the trivial network of a single labeling (testing convenience)."""
    from .confusion import trivial_cn

    return compile_cn(trivial_cn(l), v)

"""Acceptance suite: eleven numbered criteria, one printed PASS/FAIL line each.

Every criterion pins its tolerance as a module constant and measures a
quantity (worst error, ratio, count) that the printed line reports, so a run
of this file doubles as a conformance record.  Criteria cover: exact oracle
equivalence of the plain loss (1), collapse of the generalized loss to the
plain one on single-variant targets (2), equality with the per-variant
baseline on n-best targets (3), equality with brute-force enumeration on
network targets (4), frame invariance of the total probability (5), gradient
checks against central finite differences (6), the four-set reference
network and its six-string n-best encoding (7), the byte-stable golden
build trace (8), smoothing identities (9), the timing analogue (10), and
partial-line decoding conformance (11).
"""

import io
import math
import time

import numpy as np
import pytest

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    DecodeConfig,
    InfeasibleTarget,
    Labeling,
    NBestList,
    PosteriorMatrix,
    Vocabulary,
    build_cn,
    compile_cn,
    compile_nbest,
    ctc_loss,
    decode_to_cn,
    multi_ctc,
    segment_line,
    smooth,
    soft_ctc_loss,
    soft_ctc_value_at,
    trivial_cn,
)
from softctc.bench import BenchConfig, run_bench
from softctc.io import write_cn
from softctc.oracle import (
    enumerate_cn_strings,
    enumerate_ctc,
    finite_difference_grad,
    oracle_softctc,
)

TOL_CTC_ORACLE = 1e-9       # criterion 1, relative
CTC_ORACLE_BUDGET_S = 10.0  # criterion 1, wall clock
TOL_TRIVIAL = 1e-10         # criterion 2, |delta log p|
TOL_NBEST = 1e-8            # criteria 3 and 7, |delta log p|
TOL_CN_ORACLE = 1e-6        # criterion 4, relative
TOL_T_INVARIANCE = 1e-10    # criterion 5, relative spread
TOL_GRAD = 1e-4             # criterion 6, relative max-norm
FD_STEP = 1e-6              # criterion 6, central difference step
TOL_SMOOTH = 1e-12          # criterion 9
BENCH_RATIO_LIMIT = 0.5     # criterion 10
BENCH_BUDGET_S = 120.0      # criterion 10
BENCH_MIN_REPEATS = 30      # criterion 10


@pytest.fixture
def announce(capsys):
    def _announce(criterion: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {criterion}: {detail}"

    return _announce


# ---------------------------------------------------------------------------
# shared instance streams (fixed seeds so criterion 5 sees the same instances)


def random_posteriors(rng, frames, width):
    y = rng.uniform(0.05, 1.0, size=(frames, width))
    return PosteriorMatrix(y / y.sum(axis=1, keepdims=True))


def ctc_instances(count=500, seed=11):
    """Small plain-loss instances; infeasible geometries are kept on purpose."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        letters = int(rng.integers(2, 4))
        v = Vocabulary.from_characters("abc"[:letters])
        frames = int(rng.integers(1, 7))
        length = int(rng.integers(0, 4))
        labeling = Labeling(tuple(int(s) for s in rng.integers(0, letters, size=length)))
        out.append((random_posteriors(rng, frames, letters + 1), labeling, v))
    return out


def trivial_instances(count=500, seed=13):
    """Feasible single-variant instances (infeasible draws are redrawn)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        letters = int(rng.integers(2, 4))
        v = Vocabulary.from_characters("abc"[:letters])
        frames = int(rng.integers(1, 8))
        length = int(rng.integers(0, 4))
        labeling = Labeling(tuple(int(s) for s in rng.integers(0, letters, size=length)))
        y = random_posteriors(rng, frames, letters + 1)
        try:
            plain = ctc_loss(y, labeling, v)
        except InfeasibleTarget:
            continue
        out.append((y, labeling, v, plain))
    return out


def nbest_instances(count=200, seed=17):
    """Random n-best targets (size <= 8, weights a distribution)."""
    rng = np.random.default_rng(seed)
    v = Vocabulary.from_characters("ab")
    out = []
    while len(out) < count:
        frames = int(rng.integers(3, 8))
        size = int(rng.integers(1, 9))
        labelings: set[tuple[int, ...]] = set()
        while len(labelings) < size:
            n = int(rng.integers(0, 4))
            labelings.add(tuple(int(s) for s in rng.integers(0, 2, size=n)))
        weights = rng.dirichlet(np.ones(size))
        nbest = NBestList(
            tuple(
                (Labeling(symbols), float(w))
                for symbols, w in zip(sorted(labelings), weights)
            )
        )
        y = random_posteriors(rng, frames, 3)
        try:
            naive = multi_ctc(y, nbest, v)
        except InfeasibleTarget:
            continue
        out.append((y, nbest, v, naive))
    return out


def cn_instances(count=200, seed=19):
    """Random network targets: <= 4 sets, <= 3 alternatives counting the null."""
    rng = np.random.default_rng(seed)
    v = Vocabulary.from_characters("abc")
    out = []
    while len(out) < count:
        sets = []
        for _ in range(int(rng.integers(1, 5))):
            choices = int(rng.integers(1, 4))
            with_null = choices > 1 and rng.random() < 0.5
            letters = choices - 1 if with_null else choices
            symbols = rng.choice(3, size=letters, replace=False)
            raw = rng.uniform(0.1, 1.0, size=choices)
            raw /= raw.sum()
            alts = {int(s): float(p) for s, p in zip(symbols, raw[:letters])}
            sets.append(ConfusionSet(alts, float(raw[letters]) if with_null else 0.0))
        cn = ConfusionNetwork(tuple(sets))
        y = random_posteriors(rng, int(rng.integers(1, 7)), 4)
        expected = oracle_softctc(y, cn, v)
        if expected == 0.0:
            continue
        out.append((y, cn, v, expected))
    return out


def reference_network_and_vocab():
    """Four-set reference network over a six-letter vocabulary."""
    v = Vocabulary.from_characters("CATUES")
    cn = ConfusionNetwork(
        (
            ConfusionSet({v.encode("C")[0]: 0.7}, 0.3),
            ConfusionSet({v.encode("A")[0]: 0.6, v.encode("U")[0]: 0.4}),
            ConfusionSet({v.encode("T")[0]: 1.0}),
            ConfusionSet({v.encode("E")[0]: 0.5, v.encode("S")[0]: 0.3}, 0.2),
        )
    )
    return cn, v


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_plain_loss_matches_enumeration(announce):
    start = time.perf_counter()
    worst = 0.0
    mismatches = 0
    instances = ctc_instances()
    for y, labeling, v in instances:
        expected = enumerate_ctc(y, labeling, v)
        try:
            result = ctc_loss(y, labeling, v)
            got = math.exp(-result.loss)
        except InfeasibleTarget:
            got = 0.0
        if expected == 0.0:
            mismatches += got != 0.0
        else:
            worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst < TOL_CTC_ORACLE and mismatches == 0 and elapsed < CTC_ORACLE_BUDGET_S
    announce(
        1,
        ok,
        f"{len(instances)} instances, worst rel err {worst:.2e} "
        f"(tol {TOL_CTC_ORACLE}), {elapsed:.1f}s (budget {CTC_ORACLE_BUDGET_S:.0f}s)",
    )


def test_criterion_02_single_variant_target_collapses_to_plain_loss(announce):
    worst = 0.0
    instances = trivial_instances()
    for y, labeling, v, plain in instances:
        soft = soft_ctc_loss(y, compile_cn(trivial_cn(labeling), v))
        worst = max(worst, abs(soft.log_likelihood - (-plain.loss)))
    announce(
        2,
        worst < TOL_TRIVIAL,
        f"{len(instances)} single-variant instances, worst |dlogp| {worst:.2e} "
        f"(tol {TOL_TRIVIAL})",
    )


def test_criterion_03_nbest_target_matches_per_variant_baseline(announce):
    worst = 0.0
    instances = nbest_instances()
    for y, nbest, v, naive in instances:
        soft = soft_ctc_loss(y, compile_nbest(nbest, v))
        worst = max(worst, abs(soft.log_likelihood - naive.log_likelihood))
    announce(
        3,
        worst < TOL_NBEST,
        f"{len(instances)} n-best instances (size <= 8), worst |dlogp| {worst:.2e} "
        f"(tol {TOL_NBEST})",
    )


def test_criterion_04_network_target_matches_enumeration(announce):
    worst = 0.0
    instances = cn_instances()
    for y, cn, v, expected in instances:
        result = soft_ctc_loss(y, compile_cn(cn, v))
        got = math.exp(result.log_likelihood)
        worst = max(worst, abs(got - expected) / expected)
    announce(
        4,
        worst < TOL_CN_ORACLE,
        f"{len(instances)} network instances, worst rel err {worst:.2e} "
        f"(tol {TOL_CN_ORACLE})",
    )


def test_criterion_05_total_probability_is_frame_invariant(announce):
    def spread(y, target):
        values = [soft_ctc_value_at(y, target, t) for t in range(y.num_frames)]
        top = max(values)
        if top == 0.0:
            return 0.0 if min(values) == 0.0 else math.inf
        return (top - min(values)) / top

    worst = 0.0
    checked = 0
    for y, labeling, v in ctc_instances():
        worst = max(worst, spread(y, compile_cn(trivial_cn(labeling), v)))
        checked += 1
    for y, labeling, v, _ in trivial_instances():
        worst = max(worst, spread(y, compile_cn(trivial_cn(labeling), v)))
        checked += 1
    for y, nbest, v, _ in nbest_instances():
        worst = max(worst, spread(y, compile_nbest(nbest, v)))
        checked += 1
    for y, cn, v, _ in cn_instances():
        worst = max(worst, spread(y, compile_cn(cn, v)))
        checked += 1
    announce(
        5,
        worst < TOL_T_INVARIANCE,
        f"{checked} instances from criteria 1-4, worst relative spread over t "
        f"{worst:.2e} (tol {TOL_T_INVARIANCE})",
    )


def test_criterion_06_gradients_match_finite_differences(announce):
    def rel_err(fd, grad):
        scale = max(float(np.abs(fd).max()), 1e-9)
        return float(np.abs(fd - grad).max()) / scale

    worst_plain = 0.0
    plain = trivial_instances(count=100, seed=23)
    for y, labeling, v, result in plain:
        fd = finite_difference_grad(
            lambda m: ctc_loss(m, labeling, v).loss, y, step=FD_STEP
        )
        worst_plain = max(worst_plain, rel_err(fd, result.grad))

    worst_soft = 0.0
    soft_instances = cn_instances(count=100, seed=29)
    for y, cn, v, _ in soft_instances:
        target = compile_cn(cn, v)
        result = soft_ctc_loss(y, target)
        fd = finite_difference_grad(
            lambda m: soft_ctc_loss(m, target).loss, y, step=FD_STEP
        )
        worst_soft = max(worst_soft, rel_err(fd, result.grad))

    ok = worst_plain < TOL_GRAD and worst_soft < TOL_GRAD
    announce(
        6,
        ok,
        f"100+100 instances, step {FD_STEP}: plain worst {worst_plain:.2e}, "
        f"generalized worst {worst_soft:.2e} (tol {TOL_GRAD})",
    )


def test_criterion_07_reference_network_strings_and_nbest_encoding(announce):
    cn, v = reference_network_and_vocab()
    strings = enumerate_cn_strings(cn)
    texts = {"".join(v.symbols[s] for s in labeling) for labeling, _ in strings}
    twelve = len(strings) == 12 and "UTE" in texts

    wanted = {"CATE", "CUTE", "CATS", "CUTS", "ATE", "ATS"}
    by_text = {
        "".join(v.symbols[s] for s in labeling): (labeling, weight)
        for labeling, weight in strings
    }
    subset_ok = wanted <= texts
    total = math.fsum(by_text[t][1] for t in wanted)
    nbest = NBestList(
        tuple((by_text[t][0], by_text[t][1] / total) for t in sorted(wanted))
    )

    rng = np.random.default_rng(31)
    delta = 0.0
    for _ in range(5):
        y = random_posteriors(rng, 9, len(v))
        naive = multi_ctc(y, nbest, v)
        soft = soft_ctc_loss(y, compile_nbest(nbest, v))
        delta = max(delta, abs(soft.log_likelihood - naive.log_likelihood))

    ok = twelve and subset_ok and delta < TOL_NBEST
    announce(
        7,
        ok,
        f"{len(strings)} strings (UTE {'present' if 'UTE' in texts else 'missing'}), "
        f"6-entry n-best encoding worst |dlogp| {delta:.2e} (tol {TOL_NBEST})",
    )


GOLDEN_CN = (
    "# confusion-network v1\n"
    "normalized true\n"
    "total 1.0\n"
    "sets 3\n"
    "set c 1.0\n"
    "set a 0.6 u 0.3 <null> 0.1\n"
    "set t 1.0\n"
)


def test_criterion_08_golden_build_trace_is_byte_stable(announce):
    v = Vocabulary.from_characters("catu")
    nbest = NBestList(
        ((v.encode("cat"), 0.6), (v.encode("cut"), 0.3), (v.encode("ct"), 0.1))
    )
    cn = build_cn(nbest)
    a_idx, u_idx = v.encode("a")[0], v.encode("u")[0]
    exact = (
        cn.sets[0].alternatives == {v.encode("c")[0]: 1.0}
        and cn.sets[1].alternatives == {a_idx: 0.6, u_idx: 0.3}
        and cn.sets[1].null == 0.1
        and cn.sets[2].alternatives == {v.encode("t")[0]: 1.0}
    )
    first, second = io.StringIO(), io.StringIO()
    write_cn(first, cn, v)
    write_cn(second, build_cn(nbest), v)
    stable = first.getvalue() == second.getvalue() == GOLDEN_CN
    announce(
        8,
        exact and stable,
        "sets {c:1}, {a:0.6, u:0.3, null:0.1}, {t:1} exact; serialization "
        f"{'byte-identical to the golden file' if stable else 'DIFFERS'}",
    )


def test_criterion_09_smoothing_identities(announce):
    cn = ConfusionNetwork(
        (ConfusionSet({0: 0.9, 1: 0.1}), ConfusionSet({0: 0.5, 1: 0.3}, 0.2))
    )
    identity = smooth(cn, 1.0).sets == cn.sets

    flat = smooth(cn, math.inf)
    uniform = flat.sets[0].alternatives == {0: 0.5, 1: 0.5} and all(
        abs(p - 1.0 / 3.0) < TOL_SMOOTH
        for p in (*flat.sets[1].alternatives.values(), flat.sets[1].null)
    )

    rooted = smooth(ConfusionNetwork((ConfusionSet({0: 0.9, 1: 0.1}),)), 2.0)
    halfway = (
        abs(rooted.sets[0].alternatives[0] - 0.75) < TOL_SMOOTH
        and abs(rooted.sets[0].alternatives[1] - 0.25) < TOL_SMOOTH
    )

    announce(
        9,
        identity and uniform and halfway,
        f"n=1 identity {identity}, n=inf uniform {uniform}, "
        f"n=2 {{0.9, 0.1}} -> {{0.75, 0.25}} within {TOL_SMOOTH}: {halfway}",
    )


def test_criterion_10_timing_analogue(announce):
    cfg = BenchConfig()
    report = run_bench(cfg)
    ratio = report.lower_bound_ratio()
    ok = (
        cfg.repeats >= BENCH_MIN_REPEATS
        and ratio < BENCH_RATIO_LIMIT
        and report.total_seconds < BENCH_BUDGET_S
    )
    announce(
        10,
        ok,
        f"batch {cfg.batch}, beam {cfg.beam}, {cfg.repeats} repeats: one evaluation "
        f"per line costs {ratio:.3f}x the {cfg.beam}-sequential-plain lower bound "
        f"(limit {BENCH_RATIO_LIMIT}), bench took {report.total_seconds:.1f}s "
        f"(budget {BENCH_BUDGET_S:.0f}s)",
    )


def test_criterion_11_partial_line_conformance(announce):
    v = Vocabulary.from_characters("ab")
    blank = [0.0025, 0.0025, 0.995]
    conf_a = [0.995, 0.0025, 0.0025]
    conf_b = [0.0025, 0.995, 0.0025]
    doubt_ab = [0.50, 0.45, 0.05]
    doubt_ba = [0.45, 0.50, 0.05]
    y = PosteriorMatrix(
        np.array([blank, conf_a, blank, doubt_ab, doubt_ba, blank, conf_b, blank])
    )

    segments = segment_line(y, v)
    unconfident = [s for s in segments if not s.confident]
    one_segment = len(unconfident) == 1 and unconfident[0].start == 3 and unconfident[0].end == 5

    cn = decode_to_cn(y, v, DecodeConfig())
    # frames before/after the doubt region transcribe to one letter each
    outside = [cn.sets[0], cn.sets[-1]]
    singletons = all(s.size() == 1 and s.null == 0.0 for s in outside)
    inner_sets = len(cn.sets) - 2
    announce(
        11,
        one_segment and singletons and inner_sets >= 1,
        f"{len(unconfident)} unconfident segment at "
        f"[{unconfident[0].start}, {unconfident[0].end}); boundary sets are "
        f"singletons ({singletons}), {inner_sets} set(s) inside the region",
    )

import inspect
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    InfeasibleTarget,
    Labeling,
    NBestList,
    PosteriorMatrix,
    ValidationError,
    Vocabulary,
    build_cn,
    compile_cn,
    compile_nbest,
    ctc_loss,
    merge_cns,
    smooth,
    soft_ctc_batch,
    soft_ctc_loss,
    soft_ctc_value_at,
)
from softctc import forward_backward as fb
from softctc.compiler import CompiledTarget
from softctc.oracle import reference_gradient, reference_log_loss, reference_run_passes

V = Vocabulary.from_characters("abc")
LETTERS = 3
TINY = np.finfo(float).tiny


def rand_posteriors(rng, frames, zeros=0.0):
    y = rng.uniform(0.05, 1.0, size=(frames, len(V)))
    y[rng.random(y.shape) < zeros] = 0.0
    totals = y.sum(axis=1, keepdims=True)
    totals[totals == 0.0] = 1.0
    return y / totals


def rand_labeling(rng, max_len=4):
    # a small alphabet draws repeated neighbours often
    length = int(rng.integers(0, max_len + 1))
    return Labeling(tuple(int(s) for s in rng.integers(0, LETTERS, size=length)))


def rand_nbest(rng):
    entries = {}
    for _ in range(int(rng.integers(1, 5))):
        entries[rand_labeling(rng).symbols] = float(rng.uniform(0.05, 1.0))
    return NBestList(tuple((Labeling(s), w) for s, w in entries.items()))


def rand_cn(rng, num_sets=None):
    sets = []
    for _ in range(num_sets or int(rng.integers(1, 7))):
        k = int(rng.integers(1, LETTERS + 1))
        syms = rng.choice(LETTERS, size=k, replace=False)
        raw = rng.uniform(0.1, 1.0, size=k + 1)
        null = raw[-1] if rng.random() < 0.5 else 0.0
        tot = raw[:k].sum() + null
        alts = {int(s): float(p / tot) for s, p in zip(syms, raw[:k])}
        sets.append(ConfusionSet(alts, float(null / tot)))
    return ConfusionNetwork(tuple(sets))


def near_zero_posteriors(rng, frames, floor):
    """40 % of the entries log-uniform in [floor, 1], then rows normalized."""
    y = rng.uniform(0.05, 1.0, size=(frames, len(V)))
    low = rng.random(y.shape) < 0.4
    y[low] = 10.0 ** rng.uniform(np.log10(floor), 0.0, size=int(low.sum()))
    return y / y.sum(axis=1, keepdims=True)


def null_chain_cn(rng):
    """Every set skippable, with null 0.5-0.99: long chains of skip arcs."""
    sets = []
    for _ in range(int(rng.integers(2, 9))):
        null = float(rng.uniform(0.5, 0.99))
        k = int(rng.integers(1, LETTERS + 1))
        syms = rng.choice(LETTERS, size=k, replace=False)
        raw = rng.uniform(0.1, 1.0, size=k)
        raw *= (1.0 - null) / raw.sum()
        sets.append(ConfusionSet({int(s): float(p) for s, p in zip(syms, raw)}, null))
    return ConfusionNetwork(tuple(sets))


def subnormal(a):
    return (a > 0.0) & (a < TINY)


def kernel_inputs(target):
    return target.transition, target.state_symbols, target.alpha_hat, target.beta_hat


def rand_target(rng, kind):
    if kind == "cn":
        return compile_cn(rand_cn(rng), V)
    if kind == "merged":
        # merge flushes null mass into every set the other network lacks
        raw = [build_cn(rand_nbest(rng), normalize=False) for _ in range(int(rng.integers(2, 4)))]
        return compile_cn(merge_cns(raw), V)
    if kind == "smoothed":
        return compile_cn(smooth(rand_cn(rng), float(rng.choice([2.0, np.inf]))), V)
    if kind == "nbest":
        return compile_nbest(rand_nbest(rng), V)
    if kind == "null-chain":
        return compile_cn(null_chain_cn(rng), V)
    # the plain CTC target: a one-entry list
    return compile_nbest(NBestList(((rand_labeling(rng, max_len=5), 1.0),)), V)


def run_one(y, target):
    """The kernel's result for one line, run as a batch of one.

    A failing line raises InfeasibleTarget with the text the loss raises.
    """
    ((_, passes, failure),) = fb.run_batch([(y, target)])
    if failure is not None:
        raise InfeasibleTarget(f"line 0: {failure}")
    return passes


def run_all(lines):
    """Each line's passes by index, for a batch whose lines all pass their checks."""
    got = {}
    for i, passes, failure in fb.run_batch(lines):
        assert failure is None, (i, failure)
        got[i] = passes
    return got


def pinned(y, target, relative_grad=False):
    """Assert the kernel agrees with the reference; True when the line is feasible.

    Gradients scale as 1/y, so with near-zero emissions the gradient bound
    is taken relative to max(1, |reference|).
    """
    args = kernel_inputs(target)
    try:
        ref = reference_run_passes(y, *args)
    except InfeasibleTarget as expected:
        with pytest.raises(InfeasibleTarget) as got:
            run_one(y, target)
        assert str(got.value) == f"line 0: {expected}"
        return False
    passes = run_one(y, target)
    assert passes.loss == pytest.approx(ref.loss, rel=1e-12, abs=0.0)
    ref_grad = reference_gradient(y, args[1], ref)
    bound = 1e-12 * np.maximum(1.0, np.abs(ref_grad)) if relative_grad else 1e-12
    assert np.all(np.abs(passes.grad - ref_grad) <= bound)
    return True


KINDS = ("cn", "merged", "smoothed", "nbest", "chain")
LONG_LINE_KINDS = KINDS + ("null-chain",)


def test_kernel_matches_reference_on_random_targets():
    rng = np.random.default_rng(101)
    feasible = {kind: 0 for kind in KINDS}
    infeasible = 0
    for i in range(500):
        kind = KINDS[i % len(KINDS)]
        target = rand_target(rng, kind)
        # short lines make mandatory groups infeasible; zeros knock out states
        y = rand_posteriors(rng, int(rng.integers(1, 12)), zeros=float(rng.choice([0.0, 0.2])))
        if pinned(y, target):
            feasible[kind] += 1
        else:
            infeasible += 1
    assert min(feasible.values()) >= 50
    assert infeasible >= 20


def test_kernel_matches_reference_on_null_chains_and_repeats():
    # every set skippable and the same letter twice in a row
    cn = ConfusionNetwork(
        tuple(ConfusionSet({0: 0.6, 1: 0.1}, 0.3) for _ in range(8))
        + (ConfusionSet({0: 1.0}), ConfusionSet({0: 1.0}))
    )
    rng = np.random.default_rng(103)
    assert pinned(rand_posteriors(rng, 30, zeros=0.1), compile_cn(cn, V))


def test_kernel_matches_reference_on_long_line():
    rng = np.random.default_rng(107)
    y = rand_posteriors(rng, 1000)
    y[:, :LETTERS][rng.random((1000, LETTERS)) < 0.05] = 0.0  # blanks stay positive
    assert pinned(y, compile_cn(rand_cn(rng, num_sets=40), V))


def test_kernel_matches_reference_on_long_null_chains_and_near_zero_emissions():
    # long lines whose unflushed passes carry subnormal entries; emissions
    # stay above 1e-20, where the reference's alpha*beta/q does not underflow
    rng = np.random.default_rng(109)
    feasible = with_subnormals = 0
    for i in range(200):
        target = rand_target(rng, LONG_LINE_KINDS[i % len(LONG_LINE_KINDS)])
        y = near_zero_posteriors(rng, int(rng.integers(60, 251)), floor=1e-20)
        if pinned(y, target, relative_grad=True):
            feasible += 1
            betas = reference_run_passes(y, *kernel_inputs(target)).betas
            with_subnormals += bool(subnormal(betas).any())
    assert feasible >= 150
    assert with_subnormals >= 50


def test_loss_matches_log_domain_judge_or_raises():
    # near-zero emissions down to 1e-60 on long lines make the linear-domain
    # passes lose mass to underflow; the kernel must then raise, never return
    # a wrong loss or a gradient that misses its identity
    rng = np.random.default_rng(113)
    returned = raised = 0
    for i in range(150):
        target = rand_target(rng, LONG_LINE_KINDS[i % len(LONG_LINE_KINDS)])
        y = near_zero_posteriors(rng, int(rng.integers(60, 251)), floor=1e-60)
        try:
            result = soft_ctc_loss(PosteriorMatrix(y), target)
        except InfeasibleTarget:
            raised += 1
            continue
        returned += 1
        assert result.loss == pytest.approx(
            reference_log_loss(y, *kernel_inputs(target)), rel=1e-9, abs=0.0
        ), i
        identity = np.einsum("tk,tk->t", y, result.grad)
        assert np.abs(identity + 1.0).max() <= 1e-9, i
    assert returned >= 75
    assert raised >= 10


def test_subnormal_row_total_raises_naming_the_frame():
    # the passes agree on log P within tolerance, but from frame 69 on the
    # row totals are subnormal (down to ~4e-318): a gradient there would keep
    # only a few significant digits
    rng = np.random.default_rng(91)
    target = compile_cn(rand_cn(rng), V)
    y = near_zero_posteriors(rng, 144, floor=1e-60)
    assert target.num_states == 17
    ref = reference_run_passes(y, *kernel_inputs(target))
    alphas, betas = ref.alphas, ref.betas
    q = y[:, target.state_symbols]
    row_totals = np.divide(alphas * betas, q, out=np.zeros_like(q), where=q > 0.0).sum(axis=1)
    assert int(np.flatnonzero(row_totals < TINY)[0]) == 69
    with pytest.raises(InfeasibleTarget, match="mass at frame 69, outside the normal range"):
        soft_ctc_loss(PosteriorMatrix(y), target)


def test_gradient_survives_tiny_row_total_times_tiny_emission():
    # the only alignments emit "a" once at 1e-170; the row total and the
    # emission are both ~1e-170, and their product underflows to zero
    frames, y_a = 5, 1e-170
    y = np.zeros((frames, len(V)))
    y[:, V.blank] = 1.0
    y[:, 0] = y_a
    result = ctc_loss(PosteriorMatrix(y), Labeling((0,)), V)
    assert result.loss == pytest.approx(-np.log(frames * y_a), rel=1e-12)
    # p = frames * y_a to first order, one "a" frame among frames
    assert result.grad[:, 0] == pytest.approx(np.full(frames, -1.0 / (frames * y_a)), rel=1e-12)
    assert np.einsum("tk,tk->t", y, result.grad) == pytest.approx(np.full(frames, -1.0), rel=1e-12)


@pytest.mark.parametrize("tiny", [1e-100, 1e-160, 1e-300])
def test_frame_where_both_scales_are_tiny_keeps_its_gradient(tiny):
    # every symbol the target allows at frame 1 has posterior `tiny`, so both
    # passes' scales there are about `tiny` and their product underflows
    # below about 1e-154: the binning divides by a floor instead
    v = Vocabulary.from_characters("ab")
    y = np.array([[0.6, 0.1, 0.3], [tiny, 1.0, tiny], [0.3, 0.2, 0.5]])
    # P is 1.11 tiny, dP/dy[1, a] 0.72 and dP/dy[1, blank] 0.39
    result = ctc_loss(PosteriorMatrix(y), Labeling((0,)), v)
    assert result.loss == pytest.approx(-np.log(1.11 * tiny), rel=1e-12)
    assert result.grad[1, 0] == pytest.approx(-24 / 37 / tiny, rel=1e-12)
    assert result.grad[1, v.blank] == pytest.approx(-13 / 37 / tiny, rel=1e-12)


def one_sided_difference(y, target, t, k, step=1e-3):
    """d(-log P)/dy[t, k] from the log-domain judge, stepping up only.

    P is affine in each entry, so P(y + step e_tk) / P(y) - 1 is step times
    dP/dy[t, k] / P exactly: the quotient has no truncation error, and an
    entry at 0 needs no step below it.
    """
    args = kernel_inputs(target)
    shifted = y.copy()
    shifted[t, k] += step
    return -np.expm1(reference_log_loss(y, *args) - reference_log_loss(shifted, *args)) / step


def test_gradient_is_exact_where_a_used_posterior_is_zero():
    # the target uses "a" at frame 1, where its posterior is 0: P is
    # 0.6*0.5*0.5 + 0.3*0.5*0.3 = 0.195 and dP/dy[1, a] 0.72
    v = Vocabulary.from_characters("ab")
    y = np.array([[0.6, 0.1, 0.3], [0.0, 0.5, 0.5], [0.3, 0.2, 0.5]])
    grad = ctc_loss(PosteriorMatrix(y), Labeling((0,)), v).grad
    target = compile_nbest(NBestList(((Labeling((0,)), 1.0),)), v)
    assert one_sided_difference(y, target, 1, 0) == pytest.approx(-48 / 13, rel=1e-9)
    assert grad[1, 0] == pytest.approx(-48 / 13, rel=1e-12)


def test_gradient_matches_one_sided_differences_at_zero_posteriors():
    # seeded short lines of every kind, with zeros in the columns the
    # targets use; every entry is judged, the zeros most of all
    rng = np.random.default_rng(157)
    lines = used_zeros = 0
    for i in range(60):
        target = rand_target(rng, LONG_LINE_KINDS[i % len(LONG_LINE_KINDS)])
        y = rand_posteriors(rng, int(rng.integers(3, 9)), zeros=0.25)
        try:
            grad = run_one(y, target).grad
        except InfeasibleTarget:
            continue
        lines += 1
        for t, k in np.ndindex(*y.shape):
            expected = one_sided_difference(y, target, t, k)
            assert abs(grad[t, k] - expected) <= 1e-8 * max(1.0, abs(expected)), (i, t, k)
            used_zeros += y[t, k] == 0.0 and expected != 0.0
        assert np.abs(np.einsum("tk,tk->t", y, grad) + 1.0).max() <= 1e-12
    assert lines >= 30
    assert used_zeros >= 50


def test_gradient_matches_one_sided_differences_where_a_frame_is_tiny():
    # one whole frame scaled by 1e-200: both passes' scales there are about
    # 1e-200, their product underflows, and the binning divides by the floor
    rng = np.random.default_rng(163)
    lines = 0
    for i in range(24):
        target = rand_target(rng, LONG_LINE_KINDS[i % len(LONG_LINE_KINDS)])
        y = rand_posteriors(rng, int(rng.integers(3, 7)))
        t = int(rng.integers(0, y.shape[0]))
        y[t] *= 1e-200
        try:
            result = run_one(y, target)
        except InfeasibleTarget:
            continue
        lines += 1
        args = kernel_inputs(target)
        assert result.loss == pytest.approx(reference_log_loss(y, *args), rel=1e-12), i
        for k in range(y.shape[1]):
            expected = one_sided_difference(y, target, t, k)
            assert abs(result.grad[t, k] - expected) <= 1e-8 * max(1.0, abs(expected)), (i, k)
        assert np.abs(np.einsum("tk,tk->t", y, result.grad) + 1.0).max() <= 1e-12
    assert lines >= 12


class Recorded(NamedTuple):
    """One line's kernel result and the rescaled vectors of its passes.

    Each product reads one stacked vector: the forward vector of frame
    ``i`` in its first half, the backward vector of frame ``T-1-i`` in its
    second.  ``forward`` holds the first halves (frames 0..T-2) and
    ``backward`` the second (frames T-1..1).  ``alphas`` and ``betas`` hold
    the vectors of frames 0..T-1 before the emission multiply, as the
    gradient binning receives them (it divides the forward ones by their
    frame's two scales), each binned range placed at its frames, and
    ``last`` the forward vector of frame T-1, which the final mass reads.
    """

    passes: fb.LinePasses
    forward: np.ndarray
    backward: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    last: np.ndarray


def recorded_run(monkeypatch, y, target):
    reads, blocks, last = [], [], []
    matvec, binning, final_mass = fb.csr_matvec, fb._Group._bin, fb._Group._final_mass
    bin_signature = inspect.signature(binning)

    def recording(*call):
        reads.append(call[5].copy())
        matvec(*call)

    def recording_bin(*args, **kwargs):
        call = bin_signature.bind(*args, **kwargs).arguments
        blocks.append((call["t0"], call["t1"], call["alphas"].copy(), call["betas"].copy()))
        binning(*args, **kwargs)

    def recording_final(self, alpha):
        last.append(alpha.copy())
        return final_mass(self, alpha)

    with monkeypatch.context() as patched:
        patched.setattr(fb, "csr_matvec", recording)
        patched.setattr(fb._Group, "_bin", recording_bin)
        patched.setattr(fb._Group, "_final_mass", recording_final)
        passes = run_one(y, target)
    frames, width = y.shape[0], target.num_states + 1
    stacked = np.array(reads).reshape(len(reads), 2, width)
    # the binned ranges cover every frame once
    alphas, betas = np.full((2, frames, width), np.nan)
    binned = np.zeros(frames, dtype=int)
    for t0, t1, alpha_block, beta_block in blocks:
        alphas[t0:t1], betas[t0:t1] = alpha_block, beta_block
        binned[t0:t1] += 1
    assert np.all(binned == 1)
    return Recorded(passes, stacked[:, 0], stacked[:, 1], alphas, betas, last[0])


def test_flush_leaves_no_subnormal_in_network_passes(monkeypatch):
    edges = 0
    for seed in (127, 442):
        rng = np.random.default_rng(seed)
        raw = [build_cn(rand_nbest(rng), normalize=False) for _ in range(3)]
        target = compile_cn(merge_cns(raw), V)
        y = near_zero_posteriors(rng, 200, floor=1e-20)
        args = kernel_inputs(target)
        assert target.transition.nnz > fb.FLUSH_MIN_NNZ_PER_STATE * target.num_states
        ref = reference_run_passes(y, *args)
        ref_alphas, ref_betas = ref.alphas, ref.betas
        assert subnormal(ref_alphas).any() and subnormal(ref_betas).any()  # unflushed passes
        # seed 442's also hold subnormals in the two vectors no product
        # reads, and the kernel's would too without the flush there
        edges += bool(subnormal(ref_betas[0]).any() and subnormal(ref_alphas[-1]).any())
        # every product reads a rescaled vector of each pass
        run = recorded_run(monkeypatch, y, target)
        assert run.forward.shape[0] == run.backward.shape[0] == y.shape[0] - 1
        assert not subnormal(run.forward).any()
        assert not subnormal(run.backward).any()
        assert run.alphas.shape[0] == run.betas.shape[0] == y.shape[0]
        assert not subnormal(run.alphas).any()
        assert not subnormal(run.betas).any()
        assert not subnormal(run.last).any()
    assert edges == 1


def test_chains_are_not_flushed(monkeypatch):
    # chains sit below the gate, so their passes are the unflushed ones
    rng = np.random.default_rng(131)
    with_subnormals = 0
    for _ in range(60):
        target = rand_target(rng, "chain" if rng.random() < 0.5 else "nbest")
        assert target.transition.nnz <= fb.FLUSH_MIN_NNZ_PER_STATE * target.num_states
        y = near_zero_posteriors(rng, int(rng.integers(60, 251)), floor=1e-20)
        try:
            run = recorded_run(monkeypatch, y, target)
        except InfeasibleTarget:
            continue
        with_subnormals += bool(subnormal(run.betas).any())
        with monkeypatch.context() as never:
            never.setattr(fb, "FLUSH_MIN_NNZ_PER_STATE", np.inf)
            unflushed = recorded_run(monkeypatch, y, target)
        assert run.passes.loss == unflushed.passes.loss
        assert np.array_equal(run.passes.grad, unflushed.passes.grad)
        assert np.array_equal(run.passes.log_mass, unflushed.passes.log_mass)
        # the recorded halves are the passes' rescaled vectors
        ref = reference_run_passes(y, *kernel_inputs(target))
        n = target.num_states
        close = dict(rtol=1e-9, atol=1e-290)  # subnormals keep fewer digits
        assert np.allclose(run.forward[:, :n], ref.alphas[:-1], **close)
        assert np.allclose(run.backward[:, :n], ref.betas[:0:-1], **close)
        assert np.allclose(run.alphas[:, :n], ref.pre_alphas, **close)
        assert np.allclose(run.betas[:, :n], ref.pre_betas, **close)
        assert np.allclose(run.last[:n], ref.alphas[-1], **close)
        assert np.array_equal(run.forward, unflushed.forward)
        assert np.array_equal(run.backward, unflushed.backward)
        assert np.array_equal(run.alphas, unflushed.alphas)
        assert np.array_equal(run.betas, unflushed.betas)
        assert np.array_equal(run.last, unflushed.last)
    assert with_subnormals >= 8


def test_flushed_path_that_later_carries_the_line_raises():
    # "b" holds 1e-310 of the mass after frame 1, below the flush threshold,
    # then out-emits "a" by 1e100 per frame: the flushed path carries the line
    cn = ConfusionNetwork(
        (ConfusionSet({0: 0.5, 1: 0.5}),) + tuple(ConfusionSet({2: 0.5}, 0.5) for _ in range(3))
    )
    target = compile_cn(cn, V)
    assert target.transition.nnz > fb.FLUSH_MIN_NNZ_PER_STATE * target.num_states
    y = np.zeros((10, len(V)))
    y[0:2, 0], y[0:2, 1] = 1.0, 1e-155
    y[2:6, 0], y[2:6, 1] = 1e-100, 1.0
    y[6:, V.blank] = 1.0
    args = kernel_inputs(target)
    # the unflushed reference keeps the path and gets the line right
    ref_loss = reference_run_passes(y, *args).loss
    assert ref_loss == pytest.approx(reference_log_loss(y, *args), rel=1e-12)
    # the kernel reports the line's passes with its failure
    ((_, passes, failure),) = fb.run_batch([(y, target)])
    assert "lost to underflow" in failure
    assert passes.loss > ref_loss + 100.0  # the forward pass alone is off by ~200 nats
    with pytest.raises(InfeasibleTarget, match="lost to underflow"):
        soft_ctc_loss(PosteriorMatrix(y), target)
    # the diagnostic read skips the check, so the frames disagree there
    # (the forward pass's 6e-312 against 0 from frame 2 on) instead of all
    # reading 0
    values = [soft_ctc_value_at(PosteriorMatrix(y), target, t) for t in range(y.shape[0])]
    assert values[0] > 0.0 and values[-1] == 0.0


def test_flush_can_leave_either_pass_without_mass():
    # as above, but "b" alone is emitted from frame 2 on: the flushed path is
    # the line's only one, so the forward pass finds no mass at frame 2 while
    # the log-domain judge reads a finite loss
    cn = ConfusionNetwork(
        (ConfusionSet({0: 0.5, 1: 0.5}),) + tuple(ConfusionSet({2: 0.5}, 0.5) for _ in range(3))
    )
    target = compile_cn(cn, V)
    y = np.zeros((10, len(V)))
    y[0:2, 0], y[0:2, 1] = 1.0, 1e-155
    y[2:6, 1] = 1.0
    y[6:, V.blank] = 1.0
    assert reference_log_loss(y, *kernel_inputs(target)) == pytest.approx(716.57, abs=0.01)
    with pytest.raises(InfeasibleTarget, match="^line 0: forward mass 0.0 at frame 2;"):
        soft_ctc_loss(PosteriorMatrix(y), target)
    # the same line reversed in time (states reversed, arcs turned around,
    # start and end weights swapped): now the backward pass finds no mass
    reverse = np.arange(target.num_states)[::-1]
    reversed_target = CompiledTarget(
        sp.csr_matrix(target.transition.toarray()[reverse][:, reverse].T),
        target.state_symbols[reverse], target.beta_hat[reverse], target.alpha_hat[reverse],
    )
    assert reversed_target.transition.nnz > fb.FLUSH_MIN_NNZ_PER_STATE * target.num_states
    y = y[::-1]
    assert reference_log_loss(y, *kernel_inputs(reversed_target)) == pytest.approx(716.57, abs=0.01)
    with pytest.raises(InfeasibleTarget, match="^line 0: backward mass 0.0 at frame 7$"):
        soft_ctc_loss(PosteriorMatrix(y), reversed_target)


def test_sparse_objects_per_call_do_not_grow_with_frames(monkeypatch):
    # one transpose per call, nothing sparse built inside the frame loops
    sparse_base = pytest.importorskip("scipy.sparse._base")  # private: every sparse __init__
    created = []
    init = sparse_base._spbase.__init__

    def counting_init(self, *args, **kwargs):
        created.append(type(self).__name__)
        init(self, *args, **kwargs)

    target = compile_cn(rand_cn(np.random.default_rng(109)), V)
    counts = []
    for frames in (20, 200):
        y = rand_posteriors(np.random.default_rng(frames), frames)
        monkeypatch.setattr(sparse_base._spbase, "__init__", counting_init)
        run_one(y, target)
        monkeypatch.undo()
        counts.append(len(created))
        created.clear()
    assert counts[0] == counts[1] <= 2



def test_frame_loops_make_no_sparse_operator_calls(monkeypatch):
    # the products go straight to the CSR routine, not through scipy's
    # operator dispatch, which used to cost more than the products themselves
    sparse_base = pytest.importorskip("scipy.sparse._base")  # private: defines the operators
    calls = []
    for name in ("__matmul__", "__rmatmul__"):
        original = getattr(sparse_base._spbase, name)

        def counting(self, other, _name=name, _original=original):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(sparse_base._spbase, name, counting)

    target = compile_cn(rand_cn(np.random.default_rng(127)), V)
    for frames in (20, 200):
        run_one(rand_posteriors(np.random.default_rng(frames), frames), target)
        assert calls == []


def rand_batch(rng, size, frames):
    """``size`` random lines of every target kind, with ``frames`` frames each."""
    return [
        (rand_posteriors(rng, int(f), zeros=float(rng.choice([0.0, 0.2]))),
         rand_target(rng, LONG_LINE_KINDS[int(rng.integers(len(LONG_LINE_KINDS)))]))
        for f in frames
    ]


def test_batch_lines_equal_their_batch_of_one(monkeypatch):
    rng = np.random.default_rng(137)
    lines_seen = spanning = mixed = 0
    for trial in range(60):
        size = int(rng.integers(2, 9))
        if trial % 2:
            frames = rng.choice([6, 9, 14], size=size)  # one class per frame count
        else:
            frames = np.full(size, int(rng.integers(6, 30)))
        lines = []
        for y, target in rand_batch(rng, size, frames):
            try:
                single = run_one(y, target)
            except InfeasibleTarget:
                continue
            lines.append((y, target, single))
        # a small cap splits equal frame counts into several groups too
        cap = fb.GROUP_BYTES if trial % 4 < 2 else int(rng.integers(500, 4000))
        with monkeypatch.context() as patched:
            patched.setattr(fb, "GROUP_BYTES", cap)
            batch = [(y, target) for y, target, _ in lines]
            groups = fb._groups(batch)
            got = run_all(batch)
        assert sorted(got) == list(range(len(lines)))
        for i, (_, _, single) in enumerate(lines):
            passes = got[i]
            assert passes.loss == single.loss
            assert np.array_equal(passes.grad, single.grad)
            assert np.array_equal(passes.log_mass, single.log_mass)
        lines_seen += len(lines)
        spanning += len(groups) > 1
        mixed += any(len(group) > 1 for group in groups)
    assert lines_seen >= 200
    assert spanning >= 30 and mixed >= 30


def test_infeasible_line_mid_batch_names_its_index():
    rng = np.random.default_rng(139)
    reasons = set()
    mid_batch = 0
    for _ in range(80):
        frames = np.full(int(rng.integers(2, 7)), int(rng.integers(1, 5)))
        lines = rand_batch(rng, frames.shape[0], frames)
        expected = None
        for i, (y, target) in enumerate(lines):
            try:
                run_one(y, target)
            except InfeasibleTarget as single:
                expected = f"line {i}: " + str(single).removeprefix("line 0: ")
                break
        if expected is None:
            continue
        with pytest.raises(InfeasibleTarget) as got:
            soft_ctc_batch([(PosteriorMatrix(y), target) for y, target in lines])
        assert str(got.value) == expected
        reasons.add(expected.split(": ", 1)[1].split(" ", 1)[0])
        mid_batch += not expected.startswith("line 0:")
    assert {"forward", "final"} <= reasons
    assert mid_batch >= 20


def test_underflow_line_mid_batch_keeps_its_row_total_text():
    # the seed-91 line of test_subnormal_row_total_raises_naming_the_frame,
    # between two feasible lines of its frame count
    rng = np.random.default_rng(91)
    target = compile_cn(rand_cn(rng), V)
    y = near_zero_posteriors(rng, 144, floor=1e-60)
    with pytest.raises(InfeasibleTarget) as single:
        run_one(y, target)
    assert "mass at frame 69, outside the normal range" in str(single.value)
    chain = compile_nbest(NBestList(((Labeling((0, 1)), 1.0),)), V)
    other = rand_posteriors(np.random.default_rng(5), 144)
    with pytest.raises(InfeasibleTarget) as got:
        lines = [(other, chain), (y, target), (other, chain)]
        soft_ctc_batch([(PosteriorMatrix(frames), t) for frames, t in lines])
    assert str(got.value) == "line 1: " + str(single.value).removeprefix("line 0: ")


def test_batch_runs_lines_in_lock_step(monkeypatch):
    # 16 short lines of equal length: each frame after the first makes one
    # product per group for both passes, where a per-line loop would make
    # two per line
    rng = np.random.default_rng(149)
    frames = 12
    items = [
        (PosteriorMatrix(rand_posteriors(rng, frames)),
         compile_nbest(NBestList(((Labeling((i % LETTERS,)), 1.0),)), V))
        for i in range(16)
    ]
    calls = []
    matvec = fb.csr_matvec

    def counting(*call):
        calls.append(call[0])
        matvec(*call)

    monkeypatch.setattr(fb, "csr_matvec", counting)
    assert len(soft_ctc_batch(items)) == 16
    assert len(calls) == frames - 1  # one group
    # a cap of four 3-state lines (4-state slots) splits the batch in four
    calls.clear()
    monkeypatch.setattr(fb, "GROUP_BYTES", 8 * frames * 4 * 4)
    assert len(soft_ctc_batch(items)) == 16
    assert len(calls) == 4 * (frames - 1)


def test_batches_pack_by_class_and_size(monkeypatch):
    rng = np.random.default_rng(157)
    targets = [rand_target(rng, kind) for kind in LONG_LINE_KINDS for _ in range(4)]
    scattered = 0
    for trial in range(200):
        size = int(rng.integers(1, 13))
        lines = [
            (np.empty((int(rng.choice([3, 5, 8])), len(V) + int(rng.integers(2)))),
             targets[int(rng.integers(len(targets)))])
            for _ in range(size)
        ]
        cap = fb.GROUP_BYTES if trial % 4 == 0 else int(rng.integers(200, 3000))
        with monkeypatch.context() as patched:
            patched.setattr(fb, "GROUP_BYTES", cap)
            groups = fb._groups(lines)
        # every line lands in exactly one group
        assert sorted(i for group in groups for i in group) == list(range(size))
        for group in groups:
            shapes = {lines[i][0].shape for i in group}
            assert len(shapes) == 1  # one (frames, vocabulary) class
            sizes = [lines[i][1].num_states for i in group]
            assert sizes == sorted(sizes)
            ((frames, _),) = shapes
            assert len(group) == 1 or 8 * frames * len(group) * (max(sizes) + 1) <= cap
        # lines that are not neighbours in the batch share a group
        scattered += any(sorted(group) != list(range(min(group), max(group) + 1)) for group in groups)
    assert scattered >= 50


def flushes(target):
    return target.transition.nnz > fb.FLUSH_MIN_NNZ_PER_STATE * target.num_states


def test_chains_and_networks_in_one_batch_form_groups_that_flush_alike():
    # chains never flush and networks do: each group holds one kind of line
    # and flushes as a whole, and every line is still its batch of one
    rng = np.random.default_rng(173)
    mixed_classes = 0
    for _ in range(20):
        frames = rng.choice([40, 60], size=12)
        kinds = rng.choice(["chain", "nbest", "merged", "null-chain"], size=12)
        # posteriors with no zero: every line is feasible
        lines = [(rand_posteriors(rng, int(f)), rand_target(rng, kind)) for f, kind in zip(frames, kinds)]
        for f in (40, 60):
            rules = {flushes(target) for y, target in lines if y.shape[0] == f}
            mixed_classes += rules == {True, False}
        groups = fb._groups(lines)
        assert sorted(i for group in groups for i in group) == list(range(len(lines)))
        for group in groups:
            assert len({flushes(lines[i][1]) for i in group}) == 1
            assert len({lines[i][0].shape for i in group}) == 1
        got = run_all(lines)
        for i, (y, target) in enumerate(lines):
            single = run_one(y, target)
            assert got[i].loss == single.loss
            assert np.array_equal(got[i].grad, single.grad)
            assert np.array_equal(got[i].log_mass, single.log_mass)
    assert mixed_classes >= 30


def test_interleaved_frame_counts_form_one_group_each():
    rng = np.random.default_rng(163)
    target = compile_nbest(NBestList(((Labeling((0, 1)), 1.0),)), V)
    lines = [(rand_posteriors(rng, frames), target) for frames in (9, 7, 9, 7)]
    assert fb._groups(lines) == [[0, 2], [1, 3]]
    got = run_all(lines)
    for i, (y, _) in enumerate(lines):
        single = run_one(y, target)
        assert got[i].loss == single.loss
        assert np.array_equal(got[i].grad, single.grad)


def test_infeasible_lines_name_the_smallest_index(monkeypatch):
    # lines 1 and 2 both fail; packing by size runs line 2 first, whether
    # the two share a group or each runs alone
    rng = np.random.default_rng(167)
    short = compile_nbest(NBestList(((Labeling((0, 1)), 1.0),)), V)
    long = compile_nbest(NBestList(((Labeling((0, 1, 0, 1)), 1.0),)), V)
    blocked = rand_posteriors(rng, 3)
    blocked[1] = np.eye(len(V))[2]  # frame 1 allows only "c"
    lines = [(rand_posteriors(rng, 3), compile_nbest(NBestList(((Labeling((0,)), 1.0),)), V)),
             (rand_posteriors(rng, 3), long), (blocked, short)]
    texts = []
    for y, target in lines[1:]:
        with pytest.raises(InfeasibleTarget) as single:
            run_one(y, target)
        texts.append(str(single.value).removeprefix("line 0: "))
    assert texts[0].startswith("final mass") and texts[1].startswith("forward mass")
    for cap in (fb.GROUP_BYTES, 1):
        with monkeypatch.context() as patched:
            patched.setattr(fb, "GROUP_BYTES", cap)
            order = [i for group in fb._groups(lines) for i in group]
            assert order.index(2) < order.index(1)
            with pytest.raises(InfeasibleTarget) as got:
                soft_ctc_batch([(PosteriorMatrix(y), target) for y, target in lines])
        assert str(got.value) == "line 1: " + texts[0]


EDGE_KINDS = ("chain", "nbest", "null-chain", "merged")
B = fb.BLOCK_FRAMES


@pytest.mark.parametrize("frames", [1, 2, 3, B - 1, B, B + 1, 2 * B, 2 * B + 1])
def test_frame_counts_at_the_loop_edges(frames):
    # the frame loop and the binning after it both split at multiples of
    # BLOCK_FRAMES, so a last range of one frame and a line of one frame run too
    rng = np.random.default_rng(151 + frames)
    feasible = {kind: [] for kind in EDGE_KINDS}
    for i in range(48):
        kind = EDGE_KINDS[i % len(EDGE_KINDS)]
        if kind == "chain":
            # short enough to fit the shortest lines now and then
            target = compile_nbest(NBestList(((rand_labeling(rng, max_len=2), 1.0),)), V)
        else:
            target = rand_target(rng, kind)
        # sparse zeros, so that long lines stay feasible
        y = rand_posteriors(rng, frames, zeros=float(rng.choice([0.0, 0.05])))
        if pinned(y, target):
            feasible[kind].append((y, target))
    assert all(len(lines) >= 4 for lines in feasible.values()), {k: len(v) for k, v in feasible.items()}
    # every kind shares a group with the kinds that flush alike, bitwise
    # its batch of one
    lines = [line for group in zip(*feasible.values()) for line in group]
    got = run_all(lines)
    assert len(fb._groups(lines)) < len(lines)
    assert sorted(got) == list(range(len(lines)))
    for i, (y, target) in enumerate(lines):
        passes = got[i]
        single = run_one(y, target)
        assert passes.loss == single.loss
        assert np.array_equal(passes.grad, single.grad)
        assert np.array_equal(passes.log_mass, single.log_mass)


def long_merged_line(rng, length):
    """A merged network of edited copies of a labeling, and posteriors that walk the labeling.

    Three networks, each folded from four copies with a tenth of the symbols
    changed and a tenth dropped, are merged.  Each symbol of the labeling
    gets two frames peaked on it and one on the blank, where the other
    symbols get 1e-6 each, so mass off the walked path decays by about 1e-6
    per frame and the flush clears the states the passes have left behind.
    """
    base = rng.integers(0, LETTERS, size=length)
    raw = []
    for _ in range(3):
        entries = {}
        for _ in range(4):
            variant = base.copy()
            edited = rng.random(length) < 0.1
            variant[edited] = rng.integers(0, LETTERS, size=int(edited.sum()))
            kept = variant[rng.random(length) > 0.1]
            entries[tuple(int(s) for s in kept)] = float(rng.uniform(0.2, 1.0))
        nbest = NBestList(tuple((Labeling(s), w) for s, w in entries.items()))
        raw.append(build_cn(nbest, normalize=False))
    target = compile_cn(merge_cns(raw), V)
    frames = []
    for symbol in base:
        frames += [symbol, symbol, V.blank]
    y = np.full((len(frames), len(V)), 1e-6)
    y[np.arange(len(frames)), frames] = 1.0 - 3e-6
    return y, target


def test_later_blocks_multiply_only_the_rows_the_passes_reach(monkeypatch):
    y, target = long_merged_line(np.random.default_rng(157), 90)
    assert target.transition.nnz > fb.FLUSH_MIN_NNZ_PER_STATE * target.num_states
    frames, stacked = y.shape[0], 2 * (target.num_states + 1)
    assert frames > 6 * B
    rows = []
    matvec = fb.csr_matvec

    def recording(*call):
        rows.append(call[0])
        matvec(*call)

    with monkeypatch.context() as patched:
        patched.setattr(fb, "csr_matvec", recording)
        passes = run_one(y, target)
    # one product per iteration but the first; each loop block of B
    # iterations multiplies one window of rows, and states the passes have
    # left stay behind, so the windows only narrow
    assert len(rows) == frames - 1
    blocks = [rows[max(i0 - 1, 0) : i0 + B - 1] for i0 in range(0, frames, B)]
    assert all(len(set(block)) == 1 for block in blocks)
    sizes = [block[0] for block in blocks]
    assert sizes[0] == stacked
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-3] < stacked
    assert sum(rows) < 0.9 * stacked * len(rows)
    # the rows left out hold only zeros: every number is the full product's
    with monkeypatch.context() as full:
        full.setattr(fb, "_window", lambda vector, states: (0, 2 * states))
        unwindowed = run_one(y, target)
    assert passes.loss == unwindowed.loss
    assert np.array_equal(passes.grad, unwindowed.grad)
    assert np.array_equal(passes.log_mass, unwindowed.log_mass)
    assert passes.loss == pytest.approx(reference_log_loss(y, *kernel_inputs(target)), rel=1e-12)


def test_a_target_with_a_backward_arc_is_rejected():
    # a -> blank -> b, plus an arc from the last state back to the first:
    # the target refuses it when it is built, so the kernel never sees it
    good = compile_nbest(NBestList(((Labeling((0, 1)), 1.0),)), V)
    dense = good.transition.toarray()
    dense[2, 0] = 0.5
    with pytest.raises(ValidationError, match="an earlier state, got one from state 2 to state 0"):
        CompiledTarget(sp.csr_matrix(dense), good.state_symbols, good.alpha_hat, good.beta_hat)
    y = PosteriorMatrix(rand_posteriors(np.random.default_rng(163), 8))
    assert soft_ctc_loss(y, good).loss > 0.0


def test_run_batch_reports_each_failing_line_and_runs_the_others():
    # between feasible lines: a line whose passes find no mass, and the
    # seed-91 line whose passes run but whose row totals go subnormal
    rng = np.random.default_rng(91)
    target = compile_cn(rand_cn(rng), V)
    underflow = (near_zero_posteriors(rng, 144, floor=1e-60), target)
    rng = np.random.default_rng(181)
    chain = compile_nbest(NBestList(((Labeling((0, 1)), 1.0),)), V)
    blocked = rand_posteriors(rng, 144)
    blocked[:, 0] = 0.0  # "a" is never emitted
    lines = [(rand_posteriors(rng, 144), rand_target(rng, kind)) for kind in ("cn", "merged")]
    lines[1:1] = [(blocked, chain), underflow]
    lines.append((rand_posteriors(rng, 144), chain))
    got = {i: (passes, failure) for i, passes, failure in fb.run_batch(lines)}
    assert sorted(got) == list(range(len(lines)))
    for i, (y, target) in enumerate(lines):
        ((_, single, single_failure),) = fb.run_batch([(y, target)])
        passes, failure = got[i]
        assert failure == single_failure
        if i in (1, 2):
            assert failure is not None
            continue
        assert failure is None
        assert passes.loss == single.loss
        assert np.array_equal(passes.grad, single.grad)
        assert np.array_equal(passes.log_mass, single.log_mass)
    assert got[1][0] is None and got[1][1].startswith("final mass 0.0")
    passes, failure = got[2]
    assert "mass at frame 69, outside the normal range" in failure
    assert np.isfinite(passes.loss) and passes.log_mass.shape == (144,)

import numpy as np
import pytest

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    InfeasibleTarget,
    Labeling,
    NBestList,
    PosteriorMatrix,
    Vocabulary,
    build_cn,
    compile_cn,
    compile_nbest,
    ctc_loss,
    merge_cns,
    smooth,
    soft_ctc_loss,
)
from softctc import forward_backward as fb
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


def pinned(y, target, relative_grad=False):
    """Assert the kernel agrees with the reference; True when the line is feasible.

    Gradients scale as 1/y, so with near-zero emissions the gradient bound
    is taken relative to max(1, |reference|).
    """
    args = kernel_inputs(target)
    try:
        ref_loss, alphas, betas = reference_run_passes(y, *args)
    except InfeasibleTarget as expected:
        with pytest.raises(InfeasibleTarget) as got:
            fb.run_passes(y, *args)
        assert str(got.value) == str(expected)
        return False
    loss, ws = fb.run_passes(y, *args)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
    ref_grad = reference_gradient(y, args[1], alphas, betas)
    bound = 1e-12 * np.maximum(1.0, np.abs(ref_grad)) if relative_grad else 1e-12
    assert np.all(np.abs(fb.gradient(y, ws) - ref_grad) <= bound)
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
            _, _, betas = reference_run_passes(y, *kernel_inputs(target))
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
    _, ws = fb.run_passes(y, *kernel_inputs(target))
    row_totals = fb.state_posterior_terms(ws).sum(axis=1)
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


def test_flush_leaves_no_subnormal_in_network_passes(monkeypatch):
    rng = np.random.default_rng(127)
    raw = [build_cn(rand_nbest(rng), normalize=False) for _ in range(3)]
    target = compile_cn(merge_cns(raw), V)
    y = near_zero_posteriors(rng, 200, floor=1e-20)
    args = kernel_inputs(target)
    assert target.transition.nnz > fb.FLUSH_MIN_NNZ_PER_STATE * target.num_states
    _, ref_alphas, ref_betas = reference_run_passes(y, *args)
    assert subnormal(ref_alphas).any() and subnormal(ref_betas).any()  # unflushed passes
    # every product reads a rescaled vector of one pass or the other
    read = []
    matvec = fb.csr_matvec

    def recording(*call):
        read.append(call[5].copy())
        matvec(*call)

    monkeypatch.setattr(fb, "csr_matvec", recording)
    _, ws = fb.run_passes(y, *args)
    assert len(read) == 2 * (y.shape[0] - 1)
    assert not any(subnormal(vec).any() for vec in read)
    assert not subnormal(ws.betas).any()


def test_chains_are_not_flushed(monkeypatch):
    # chains sit below the gate, so their workspace is the unflushed one
    rng = np.random.default_rng(131)
    with_subnormals = 0
    for _ in range(60):
        target = rand_target(rng, "chain" if rng.random() < 0.5 else "nbest")
        assert target.transition.nnz <= fb.FLUSH_MIN_NNZ_PER_STATE * target.num_states
        y = near_zero_posteriors(rng, int(rng.integers(60, 251)), floor=1e-20)
        args = kernel_inputs(target)
        try:
            _, ws = fb.run_passes(y, *args)
        except InfeasibleTarget:
            continue
        with_subnormals += bool(subnormal(ws.betas).any())
        with monkeypatch.context() as never:
            never.setattr(fb, "FLUSH_MIN_NNZ_PER_STATE", np.inf)
            _, unflushed = fb.run_passes(y, *args)
        for name in ("alphas", "betas", "alpha_scales", "beta_scales"):
            assert np.array_equal(getattr(ws, name), getattr(unflushed, name)), name
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
    ref_loss, _, _ = reference_run_passes(y, *args)
    assert ref_loss == pytest.approx(reference_log_loss(y, *args), rel=1e-12)
    loss, _ = fb.run_passes(y, *args)  # the forward pass alone is off by ~200 nats
    assert loss > ref_loss + 100.0
    with pytest.raises(InfeasibleTarget, match="lost to underflow"):
        soft_ctc_loss(PosteriorMatrix(y), target)


def test_sparse_objects_per_call_do_not_grow_with_frames(monkeypatch):
    # one transpose per call, nothing sparse built inside the frame loops
    sparse_base = pytest.importorskip("scipy.sparse._base")  # private: every sparse __init__
    created = []
    init = sparse_base._spbase.__init__

    def counting_init(self, *args, **kwargs):
        created.append(type(self).__name__)
        init(self, *args, **kwargs)

    target = compile_cn(rand_cn(np.random.default_rng(109)), V)
    args = kernel_inputs(target)
    counts = []
    for frames in (20, 200):
        y = rand_posteriors(np.random.default_rng(frames), frames)
        monkeypatch.setattr(sparse_base._spbase, "__init__", counting_init)
        fb.run_passes(y, *args)
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
    args = kernel_inputs(target)
    for frames in (20, 200):
        fb.run_passes(rand_posteriors(np.random.default_rng(frames), frames), *args)
        assert calls == []

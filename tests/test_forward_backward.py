import numpy as np
import pytest

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    InfeasibleTarget,
    Labeling,
    NBestList,
    Vocabulary,
    build_cn,
    compile_cn,
    compile_nbest,
    merge_cns,
    smooth,
)
from softctc import forward_backward as fb
from softctc.oracle import reference_gradient, reference_run_passes

V = Vocabulary.from_characters("abc")
LETTERS = 3


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
    # the plain CTC target: a one-entry list
    return compile_nbest(NBestList(((rand_labeling(rng, max_len=5), 1.0),)), V)


def pinned(y, target):
    """Assert the kernel agrees with the reference; True when the line is feasible."""
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
    assert np.abs(fb.gradient(y, ws) - ref_grad).max() <= 1e-12
    return True


KINDS = ("cn", "merged", "smoothed", "nbest", "chain")


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

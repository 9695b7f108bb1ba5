"""softctc benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 perfbench/run.py --workload pseudolabel --seed 1 --seconds 20 --trace 0

One single-threaded client sends the next operation only when the previous
one returns.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it records a span around every library call, derives the
per-layer metrics from them, writes the spans to ``perfbench/out/`` and
reports the tracing overhead.  Every operation's output is checked against
``reference.json``; a mismatch or a library error counts as a failed
operation.  The last line of standard output is the result as JSON.

End-to-end metrics: ``lines_per_s`` (lines completed per second of timed
calls), ``op_ms.p50`` and ``op_ms.tail`` (a fixed percentile per workload,
with at least ten operations beyond it), ``setup_s`` (imports plus the
median of three to five set-ups; each set-up is followed by an equal share
of the timed operations, which spreads the measurement over the run) and
``peak_rss_mb``.  ``failed_frac`` is printed with them; the result carries
it as ``failed``/``attempted``.

The host is shared and its speed swings by up to twice from one stretch of
seconds to the next, so every time is reported at a reference host speed,
read off a fixed probe timed before each operation and around each set-up
(``hostspeed.py``); the raw figures are printed as notes.

``--record`` rebuilds ``reference.json`` from the current library; do that
only when the inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys

from tracing import REFERENCE, Calls, duration, self_times

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBE_INTERVAL = 0.25  # seconds between host-speed probes during a set-up
REFERENCE_LINES = 16
LAYERS = ("decoding", "compiler", "loss", "confusion", "io")

END_TO_END_UNITS = {
    "lines_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "decoding.decode_to_cn.ms": "ms",
    "decoding.unconfident_frames": "count",
    "decoding.ms_per_unconfident_frame": "ms",
    "decoding.cn_sets": "count",
    "compiler.compile_cn.ms": "ms",
    "compiler.states": "count",
    "compiler.nnz": "count",
    "compiler.nnz_per_state": "nnz/state",
    "loss.soft_ctc_batch.ms_per_line": "ms",
    "loss.soft_ctc_loss.ms": "ms",
    "loss.vs_16ctc": "ratio",
    "forward_backward.nnz_frames": "count",
    "forward_backward.bytes_computed": "B",
    "forward_backward.ns_per_nnz_frame": "ns",
    "confusion.merge_cns.ms": "ms",
    "confusion.prune.ms": "ms",
    "confusion.smooth.ms": "ms",
    "confusion.outlier_metric.ms": "ms",
    "confusion.sets_in": "count",
    "confusion.sets_out": "count",
    "confusion.null_set_frac": "fraction",
    "io.read_cn.ms": "ms",
    "io.write_cn.ms": "ms",
    "io.bytes": "B",
    "ctc.ctc_loss.ms": "ms",
    **{f"{layer}.self_ms_per_op": "ms" for layer in LAYERS + ("perfbench",)},
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.lines_per_s": "1/s",
    "trace.untraced_lines_per_s": "1/s",
    "trace.overhead_pct": "%",
}


class SourcesMissing(Exception):
    pass


def add_library_path() -> None:
    """Import softctc from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "softctc", "__init__.py")):
        raise SourcesMissing(f"no softctc sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of ``values`` and the number of samples beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def measure(workload, state, calls, seconds: float, min_ops: int, shadow=None, first: int = 0,
            speed=None):
    """Closed loop: run operations ``first``, ``first + 1``, ... until
    ``seconds`` of timed calls, at least ``min_ops`` operations and a whole
    number of the workload's cycles over its inputs.

    With ``shadow`` (untraced calls), every operation also runs a second time
    through it on the same inputs, the two alternating in which goes first,
    so tracing overhead is measured on identical work.  With ``speed`` (a
    ``HostSpeed``), the host-speed probe runs before every operation and once
    after the last, and the durations come back at the reference speed.
    Returns (durations, shadow durations, failed layer per execution,
    reference pairs).
    """
    from workloads import FAILURES

    def timed_op(k, args, via):
        start = time.perf_counter()
        via.begin_op(k)
        try:
            out = workload.execute(state, args, via)
            failed = None
        except FAILURES:
            out, failed = None, via.layer
        via.end_op()
        elapsed = time.perf_counter() - start
        if failed is None:
            failed = workload.check(state, args, out)
        failures.append(failed)
        return elapsed, out, failed

    durations, shadowed, failures, pairs = [], [], [], []
    deadline = time.perf_counter() + 2 * max(seconds, 1.0) + 30.0
    timed = 0.0
    k = first
    base = len(speed.probes) if speed is not None else 0
    while ((timed < seconds or k - first < min_ops or (k - first) % workload.cycle)
           and time.perf_counter() < deadline):
        args = workload.prepare(state, k)
        if speed is not None:
            speed.sample()
        if shadow is not None and k % 2:
            shadowed.append(timed_op(k, args, shadow)[0])
        elapsed, out, failed = timed_op(k, args, calls)
        if shadow is not None and not k % 2:
            shadowed.append(timed_op(k, args, shadow)[0])
        if calls.traced and failed is None and len(pairs) < REFERENCE_LINES:
            pairs.extend(workload.reference_pairs(state, args, out))
        durations.append(elapsed)
        timed += elapsed
        k += 1
    if speed is not None:
        speed.sample()
        durations = [d * speed.scale(base + j, base + j + 1) for j, d in enumerate(durations)]
    return durations, shadowed, failures, pairs[:REFERENCE_LINES]


def warm_up(workload, state, calls) -> None:
    """One untimed, unchecked operation on the workload's warm-up inputs."""
    from workloads import FAILURES

    try:
        workload.execute(state, workload.warm_up_args(state), calls)
    except FAILURES:
        pass


def end_to_end(workload, seed: int, seconds: float, setup_repeats: int,
               import_s: float) -> tuple[dict, list[str], int, int]:
    """Set up ``setup_repeats`` times, each set-up followed by an equal share
    of the timed operations, so the measurement is spread over the whole
    run rather than one stretch of it.  Every time is reported at the
    reference host speed (see ``hostspeed``); the raw figures go to the notes.
    """
    from hostspeed import REFERENCE_PROBE_MS, WINDOW, HostSpeed

    calls = Calls()
    speed = HostSpeed()
    setups, raw_setups, durations, failures = [], [], [], []
    for part in range(setup_repeats):
        state = None
        gc.collect()
        speed.sample(WINDOW)
        last_before, spent = len(speed.probes) - 1, speed.spent
        calls.before = lambda: speed.sample_every(SETUP_PROBE_INTERVAL)
        start = time.perf_counter()
        state = workload.setup(seed, calls, part)
        warm_up(workload, state, calls)
        raw_setups.append(time.perf_counter() - start - (speed.spent - spent))
        calls.before = None
        speed.sample(WINDOW)
        scale = speed.scale(last_before, len(speed.probes) - WINDOW)
        setups.append(raw_setups[-1] * scale)
        if part == 0:
            import_s *= scale
        chunk, _, chunk_failures, _ = measure(
            workload, state, calls, seconds / setup_repeats,
            math.ceil(workload.min_ops / setup_repeats), first=len(durations), speed=speed)
        durations += chunk
        failures += chunk_failures
    failed = sum(f is not None for f in failures)
    ok = len(durations) - failed
    tail_s, beyond = tail(durations, workload.tail_percentile)
    values = {
        "lines_per_s": ok * workload.lines_per_op / sum(durations),
        "op_ms.p50": statistics.median(durations) * 1e3,
        "op_ms.tail": tail_s * 1e3,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"op_ms.tail is p{workload.tail_percentile} of {len(durations)} operations ({beyond} beyond it)",
        f"setup_s = imports {import_s:.4f} s + median of {len(setups)} set-ups "
        + " ".join(f"{s:.4f}" for s in setups),
        f"failed_frac {failed / len(durations):g} fraction ({failed} of {len(durations)})",
        f"times at the reference host speed: median probe {speed.median_ms():.3f} ms in this run, "
        f"reference {REFERENCE_PROBE_MS} ms; raw set-ups "
        + " ".join(f"{s:.4f}" for s in raw_setups),
    ]
    return values, notes, len(durations), failed


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict], count_ops: int, n_ops: int, failures: list) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Times per call average every span of that name.  Counts average the
    set-up spans and those of the first ``count_ops`` operations, a set of
    inputs fixed by the seed, so they repeat exactly across runs.  Self
    times are per timed operation.
    """
    def named(name, subset=spans):
        return [s for s in subset if s["name"] == name]

    def ms(name, subset=spans):
        return 1e3 * _mean(duration(s) for s in named(name, subset))

    counted = [s for s in spans if s["op"] < count_ops and s["op"] != REFERENCE]
    timed = [s for s in spans if s["op"] >= 0]
    decodes = named("decoding.decode_to_cn")
    compiles = named("compiler.compile_cn", counted)
    kernel = [s for s in counted if "nnz_frames" in s]
    timed_kernel = [s for s in timed if "nnz_frames" in s]
    batches = named("loss.soft_ctc_batch")
    merges = named("confusion.merge_cns", counted)
    smooths = named("confusion.smooth", counted)
    counted_ops = [s for s in counted if s["op"] >= 0]
    n_counted = len({s["op"] for s in counted_ops}) or 1
    reference = [s for s in spans if s["op"] == REFERENCE]

    own = self_times(spans)
    self_ms = {layer: 0.0 for layer in LAYERS + ("perfbench",)}
    for span, t in zip(spans, own):
        if span["op"] >= 0:
            self_ms[span["name"].split(".", 1)[0]] += t
    failed = {layer: sum(f == layer for f in failures) for layer in LAYERS}

    metrics = {
        "decoding.decode_to_cn.ms": ms("decoding.decode_to_cn"),
        "decoding.unconfident_frames": _mean(s["unconfident_frames"] for s in named("decoding.decode_to_cn", counted)),
        "decoding.ms_per_unconfident_frame": 1e3 * _ratio(
            sum(duration(s) for s in decodes), sum(s["unconfident_frames"] for s in decodes)),
        "decoding.cn_sets": _mean(s["cn_sets"] for s in named("decoding.decode_to_cn", counted)),
        "compiler.compile_cn.ms": ms("compiler.compile_cn"),
        "compiler.states": _mean(s["states"] for s in compiles),
        "compiler.nnz": _mean(s["nnz"] for s in compiles),
        "compiler.nnz_per_state": _ratio(sum(s["nnz"] for s in compiles), sum(s["states"] for s in compiles)),
        "loss.soft_ctc_batch.ms_per_line": 1e3 * _ratio(
            sum(duration(s) for s in batches), sum(s["lines"] for s in batches)),
        "loss.soft_ctc_loss.ms": ms("loss.soft_ctc_loss"),
        "loss.vs_16ctc": _ratio(ms("loss.soft_ctc_loss", reference), 16 * ms("ctc.ctc_loss", reference)),
        "forward_backward.nnz_frames": _ratio(sum(s["nnz_frames"] for s in kernel), sum(s["lines"] for s in kernel)),
        "forward_backward.bytes_computed": _ratio(
            sum(s["bytes_computed"] for s in kernel), sum(s["lines"] for s in kernel)),
        "forward_backward.ns_per_nnz_frame": 1e9 * _ratio(
            sum(duration(s) for s in timed_kernel), sum(s["nnz_frames"] for s in timed_kernel)),
        "confusion.merge_cns.ms": ms("confusion.merge_cns"),
        "confusion.prune.ms": ms("confusion.prune"),
        "confusion.smooth.ms": ms("confusion.smooth"),
        "confusion.outlier_metric.ms": ms("confusion.outlier_metric"),
        "confusion.sets_in": _mean(s["sets_in"] for s in merges),
        "confusion.sets_out": _mean(s["sets_out"] for s in smooths),
        "confusion.null_set_frac": _ratio(sum(s["null_sets"] for s in smooths), sum(s["sets_out"] for s in smooths)),
        "io.read_cn.ms": ms("io.read_cn"),
        "io.write_cn.ms": ms("io.write_cn"),
        "io.bytes": sum(s["bytes"] for s in counted_ops if "bytes" in s) / n_counted,
        "ctc.ctc_loss.ms": ms("ctc.ctc_loss"),
    }
    metrics.update({f"{layer}.self_ms_per_op": 1e3 * t / n_ops for layer, t in self_ms.items()})
    metrics.update({f"{layer}.failed": n for layer, n in failed.items()})
    return metrics


def reference_phase(calls, workload, pairs) -> None:
    """Plain CTC on each line's greedy transcript next to the soft loss, for loss.vs_16ctc."""
    from softctc import ctc_loss, greedy_decode, soft_ctc_loss

    calls.op = REFERENCE
    for y, target in pairs:
        labeling = calls("decoding.greedy_decode", greedy_decode, y, workload.v)
        calls("ctc.ctc_loss", ctc_loss, y, labeling, workload.v)
        calls("loss.soft_ctc_loss", soft_ctc_loss, y, target)


def traced(workload, seed: int, seconds: float, out_dir: str | None, info: dict) -> tuple[dict, list[str], int, int]:
    """Traced operations, each also run untraced, for ``seconds`` in all."""
    spans: list[dict] = []
    calls = Calls(spans)
    state = workload.setup(seed, calls)
    warm_up(workload, state, calls)
    durations, plain, failures, pairs = measure(
        workload, state, calls, seconds / 2, workload.count_ops, shadow=Calls())
    n = len(durations)
    reference_phase(calls, workload, pairs)

    metrics = layer_metrics(spans, workload.count_ops, n, failures)
    traced_lps = n * workload.lines_per_op / sum(durations)
    plain_lps = n * workload.lines_per_op / sum(plain)
    metrics["trace.lines_per_s"] = traced_lps
    metrics["trace.untraced_lines_per_s"] = plain_lps
    metrics["trace.overhead_pct"] = 100.0 * (plain_lps / traced_lps - 1.0)
    failed = sum(f is not None for f in failures)

    notes = [f"{n} operations, each run traced and untraced"]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"info": info, "metrics": metrics, "spans": spans}, fh)
        notes.append(f"spans written to {os.path.relpath(path, ROOT)}")
    return metrics, notes, 2 * n, failed


def run(workload_name: str, seed: int, seconds: float, trace: bool, *, reference: dict | None = None,
        setup_repeats: int | None = None, pool: int | None = None, min_ops: int | None = None,
        import_s: float = 0.0, out_dir: str | None = OUT_DIR) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result object, human-readable lines).

    ``setup_repeats``, ``pool`` and ``min_ops`` shrink a run for tests; the
    command line always uses the workload's defaults.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](reference or load_reference(), pool)
    if min_ops is not None:
        workload.min_ops = min_ops
    info = {"workload": workload_name, "seconds": seconds, "trace": int(trace), **environment(seed)}
    if trace:
        values, notes, attempted, failed = traced(workload, seed, seconds, out_dir, info)
        units = PER_LAYER_UNITS
    else:
        values, notes, attempted, failed = end_to_end(
            workload, seed, seconds, setup_repeats or workload.setup_repeats, import_s)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines = ["# perfbench " + json.dumps(info, sort_keys=True)]
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines += [f"# {note}" for note in notes]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("pseudolabel", "train-step", "merge-transform"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rebuild reference.json and exit")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def record() -> None:
    from workloads import WORKLOADS

    reference = {name: cls({name: {"lines": []}}).record() for name, cls in WORKLOADS.items()}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        add_library_path()
    except SourcesMissing as exc:
        print(f"perfbench: {exc}; run from the root of a softctc checkout", file=sys.stderr)
        return 2
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import softctc  # noqa: F401
    import workloads  # noqa: F401

    import_s = time.perf_counter() - _START
    if args.record:
        record()
        return 0
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

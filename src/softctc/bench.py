"""Micro-benchmark comparing the loss kernels on synthetic posteriors.

The generator writes lines of confident letter and blank runs with a few
ambiguous bursts (roughly 15% of frames), mirroring the segment statistics
the partial-line decoder expects.  Timings are wall clock, single threaded,
warmup excluded.  The n-best baseline is beam times the ``ctc`` row, the
cost of beam sequential plain evaluations per line and the lower bound a
per-variant loss cannot beat.  The ``compile`` row times ``compile_cn`` on
the batch's decoded networks.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields

import numpy as np

from .compiler import compile_cn
from .decoding import DecodeConfig, decode_to_cn, greedy_decode, segment_line
from .loss import ctc_loss, soft_ctc_loss
from .types import PosteriorMatrix, ValidationError, Vocabulary, check_integer


@dataclass(frozen=True)
class BenchConfig:
    batch: int = 16
    beam: int = 16
    frames: int = 250
    vocab: int = 100
    repeats: int = 30
    warmup: int = 3
    seed: int = 7

    def __post_init__(self):
        for f in fields(self):
            check_integer(getattr(self, f.name), f.name)
        if self.batch < 1:
            raise ValidationError("batch size must be positive")
        if self.repeats < 1 or self.warmup < 0:
            raise ValidationError("bad repeat counts")
        if self.frames < 8 or self.vocab < 3 or self.beam < 1:
            raise ValidationError("bench dimensions too small")


@dataclass(frozen=True)
class BenchRow:
    method: str
    mean_ms: float
    std_ms: float
    per_line_ms: float


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    rows: tuple[BenchRow, ...]
    unconfident_fraction: float
    mean_cn_sets: float
    total_seconds: float

    def row(self, method: str) -> BenchRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    def lower_bound_ratio(self) -> float:
        """softctc per line against beam sequential plain evaluations per line.

        The denominator is beam * the measured single-evaluation time, the
        floor no per-variant loss can beat: it leaves out the per-call
        overhead that running the evaluations would add, which makes the
        ratio larger (a harder target).
        """
        denom = self.config.beam * self.row("ctc").per_line_ms
        return self.row("softctc").per_line_ms / denom


def synthetic_vocabulary(size: int) -> Vocabulary:
    """Two-character display names plus a trailing blank."""
    if size < 3:
        raise ValidationError("vocabulary too small for the generator")
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    names = []
    for i in range(size - 1):
        names.append(alphabet[i // len(alphabet) % len(alphabet)] + alphabet[i % len(alphabet)])
    return Vocabulary(tuple(names) + ("<blank>",), blank_index=size - 1)


def synthetic_line(rng: np.random.Generator, frames: int, vocab: int) -> PosteriorMatrix:
    """One synthetic line: peaked runs with occasional ambiguity bursts.

    Every burst is flanked by confident blank frames so the partial strategy
    isolates it; confident frames put ~0.996 on one symbol.
    """
    blank = vocab - 1
    rows = np.full((frames, vocab), 1e-6)

    def peaked(t: int, sym: int):
        rows[t] = 1e-6
        rows[t, sym] = 0.995 + 0.004 * rng.random()

    def burst(t: int, choices: np.ndarray):
        rows[t] = 1e-5
        weights = rng.dirichlet(np.full(len(choices), 2.0)) * 0.85
        rows[t, choices] = np.maximum(weights, 0.02)
        rows[t, blank] = 0.05 + 0.08 * rng.random()

    t = 0
    while t < frames:
        for _ in range(int(rng.integers(1, 3))):
            if t >= frames:
                break
            peaked(t, blank)
            t += 1
        if t >= frames:
            break
        if rng.random() < 0.13:
            choices = rng.choice(blank, size=int(rng.integers(2, 4)), replace=False)
            for _ in range(int(rng.integers(3, 7))):
                if t >= frames - 1:
                    break
                burst(t, choices)
                t += 1
        else:
            sym = int(rng.integers(0, blank))
            for _ in range(int(rng.integers(2, 4))):
                if t >= frames - 1:
                    break
                peaked(t, sym)
                t += 1
    peaked(frames - 1, blank)
    rows /= rows.sum(axis=1, keepdims=True)
    return PosteriorMatrix(rows)


def _time(callable_, repeats: int, warmup: int) -> tuple[float, float]:
    for _ in range(warmup):
        callable_()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        samples.append((time.perf_counter() - start) * 1e3)
    std = statistics.stdev(samples) if len(samples) > 1 else 0.0
    return statistics.fmean(samples), std


def run_bench(cfg: BenchConfig) -> BenchReport:
    started = time.perf_counter()
    v = synthetic_vocabulary(cfg.vocab)
    rng = np.random.default_rng(cfg.seed)
    decode_cfg = DecodeConfig(beam_size=cfg.beam, strategy="partial")
    posteriors = [synthetic_line(rng, cfg.frames, cfg.vocab) for _ in range(cfg.batch)]
    transcripts = [greedy_decode(y, v) for y in posteriors]
    networks = [decode_to_cn(y, v, decode_cfg) for y in posteriors]
    targets = [compile_cn(cn, v) for cn in networks]
    unconfident = total = 0
    for y in posteriors:
        for seg in segment_line(y, v, decode_cfg.confidence):
            total += seg.end - seg.start
            if not seg.confident:
                unconfident += seg.end - seg.start

    def eval_ctc():
        for y, l in zip(posteriors, transcripts):
            ctc_loss(y, l, v)

    def eval_softctc():
        for y, target in zip(posteriors, targets):
            soft_ctc_loss(y, target)

    def eval_compile():
        for cn in networks:
            compile_cn(cn, v)

    rows = []
    for method, fn in (("ctc", eval_ctc), ("softctc", eval_softctc), ("compile", eval_compile)):
        mean, std = _time(fn, cfg.repeats, cfg.warmup)
        rows.append(BenchRow(method, mean, std, mean / cfg.batch))
    return BenchReport(
        cfg,
        tuple(rows),
        unconfident / total,
        sum(len(cn) for cn in networks) / cfg.batch,
        time.perf_counter() - started,
    )


def render_report(report: BenchReport) -> str:
    cfg = report.config
    lines = [
        "# bench v1",
        f"# batch={cfg.batch} frames={cfg.frames} vocab={cfg.vocab} beam={cfg.beam} "
        f"repeats={cfg.repeats} warmup={cfg.warmup} seed={cfg.seed}",
        "# generator: confident letter/blank runs with ambiguous bursts, "
        f"unconfident fraction {report.unconfident_fraction:.3f}, "
        f"mean sets per network {report.mean_cn_sets:.1f}",
        "# compile is compile_cn on the decoded networks, not part of the loss rows",
        f"{'method':<10} {'mean_ms':>12} {'std_ms':>10} {'per_line_ms':>12}",
    ]
    for r in report.rows:
        lines.append(f"{r.method:<10} {r.mean_ms:>12.3f} {r.std_ms:>10.3f} {r.per_line_ms:>12.3f}")
    lines.append(f"ratio softctc/(beam*ctc) {report.lower_bound_ratio():.4f}")
    for r in report.rows:
        lines.append(
            f"row method={r.method} mean_ms={r.mean_ms!r} "
            f"std_ms={r.std_ms!r} per_line_ms={r.per_line_ms!r}"
        )
    lines.append(f"total_seconds {report.total_seconds!r}")
    return "\n".join(lines) + "\n"

"""Micro-benchmark comparing the loss kernels on synthetic posteriors.

The generator writes lines of confident letter and blank runs with a few
ambiguous bursts (roughly 15% of frames), mirroring the segment statistics
the partial-line decoder expects.  Timings are wall clock, single threaded,
warmup excluded; the n-best baseline is measured as beam-many sequential
plain evaluations per line, the lower bound a per-variant loss cannot beat.
The ``compile`` row times ``compile_cn`` on the batch's decoded networks.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .compiler import CompiledTarget, compile_cn
from .confusion import ConfusionNetwork
from .decoding import DecodeConfig, decode_to_cn, greedy_decode, segment_line
from .loss import ctc_loss, soft_ctc_loss
from .types import Labeling, PosteriorMatrix, ValidationError, Vocabulary

METHODS = ("ctc", "multictc", "softctc", "compile")


@dataclass(frozen=True)
class BenchConfig:
    batch_sizes: tuple[int, ...] = (16,)
    beam: int = 16
    frames: int = 250
    vocab: int = 100
    repeats: int = 30
    # The literal n-best baseline costs beam times a plain evaluation, so a
    # smaller sample keeps the whole run inside the time budget; the headline
    # ratio is computed against beam * ctc instead (see lower_bound_ratio).
    multictc_repeats: int = 5
    warmup: int = 3
    seed: int = 7

    def __post_init__(self):
        if not self.batch_sizes or any(b < 1 for b in self.batch_sizes):
            raise ValidationError("batch sizes must be positive")
        if self.repeats < 1 or self.multictc_repeats < 1 or self.warmup < 0:
            raise ValidationError("bad repeat counts")
        if self.frames < 8 or self.vocab < 3 or self.beam < 1:
            raise ValidationError("bench dimensions too small")


@dataclass(frozen=True)
class BenchRow:
    method: str
    batch: int
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

    def row(self, method: str, batch: int) -> BenchRow:
        for r in self.rows:
            if r.method == method and r.batch == batch:
                return r
        raise KeyError((method, batch))

    def ratio(self, numerator: str, denominator: str, batch: int) -> float:
        return self.row(numerator, batch).per_line_ms / self.row(denominator, batch).per_line_ms

    def lower_bound_ratio(self, batch: int) -> float:
        """softctc per line against beam sequential plain evaluations per line.

        The denominator is beam * the measured single-evaluation time, the
        floor no per-variant loss can beat; dividing by it instead of the
        literal baseline row removes per-call overhead from the denominator,
        which makes the ratio strictly larger (a harder target).
        """
        denom = self.config.beam * self.row("ctc", batch).per_line_ms
        return self.row("softctc", batch).per_line_ms / denom


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


@dataclass
class _Prepared:
    posteriors: list[PosteriorMatrix] = field(default_factory=list)
    transcripts: list[Labeling] = field(default_factory=list)
    networks: list[ConfusionNetwork] = field(default_factory=list)
    targets: list[CompiledTarget] = field(default_factory=list)


def _prepare(cfg: BenchConfig, batch: int, v: Vocabulary, rng: np.random.Generator):
    prepared = _Prepared()
    unconfident = 0
    total = 0
    sets = 0
    decode_cfg = DecodeConfig(beam_size=cfg.beam, strategy="partial")
    for _ in range(batch):
        y = synthetic_line(rng, cfg.frames, cfg.vocab)
        cn = decode_to_cn(y, v, decode_cfg)
        prepared.posteriors.append(y)
        prepared.transcripts.append(greedy_decode(y, v))
        prepared.networks.append(cn)
        prepared.targets.append(compile_cn(cn, v))
        sets += len(cn)
        for seg in segment_line(y, v, decode_cfg.confidence):
            total += seg.end - seg.start
            if not seg.confident:
                unconfident += seg.end - seg.start
    return prepared, unconfident / total, sets / batch


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


def run_bench(cfg: BenchConfig, v: Vocabulary | None = None) -> BenchReport:
    started = time.perf_counter()
    v = v or synthetic_vocabulary(cfg.vocab)
    rng = np.random.default_rng(cfg.seed)
    rows: list[BenchRow] = []
    fractions = []
    set_counts = []
    for batch in cfg.batch_sizes:
        prepared, frac, mean_sets = _prepare(cfg, batch, v, rng)
        fractions.append(frac)
        set_counts.append(mean_sets)

        def eval_ctc():
            for y, l in zip(prepared.posteriors, prepared.transcripts):
                ctc_loss(y, l, v)

        def eval_multictc():
            for y, l in zip(prepared.posteriors, prepared.transcripts):
                for _ in range(cfg.beam):
                    ctc_loss(y, l, v)

        def eval_softctc():
            for y, target in zip(prepared.posteriors, prepared.targets):
                soft_ctc_loss(y, target)

        def eval_compile():
            for cn in prepared.networks:
                compile_cn(cn, v)

        for method, fn in zip(METHODS, (eval_ctc, eval_multictc, eval_softctc, eval_compile)):
            repeats = cfg.multictc_repeats if method == "multictc" else cfg.repeats
            warmup = min(cfg.warmup, 1) if method == "multictc" else cfg.warmup
            mean, std = _time(fn, repeats, warmup)
            rows.append(BenchRow(method, batch, mean, std, mean / batch))
    return BenchReport(
        cfg,
        tuple(rows),
        float(np.mean(fractions)),
        float(np.mean(set_counts)),
        time.perf_counter() - started,
    )


def render_report(report: BenchReport) -> str:
    cfg = report.config
    lines = [
        "# bench v1",
        f"# frames={cfg.frames} vocab={cfg.vocab} beam={cfg.beam} repeats={cfg.repeats} "
        f"multictc_repeats={cfg.multictc_repeats} warmup={cfg.warmup} seed={cfg.seed}",
        "# generator: confident letter/blank runs with ambiguous bursts, "
        f"unconfident fraction {report.unconfident_fraction:.3f}, "
        f"mean sets per network {report.mean_cn_sets:.1f}",
        "# multictc is measured as beam sequential plain evaluations per line",
        "# compile is compile_cn on the decoded networks, not part of the loss rows",
        f"{'method':<10} {'batch':>5} {'mean_ms':>12} {'std_ms':>10} {'per_line_ms':>12}",
    ]
    for r in report.rows:
        lines.append(
            f"{r.method:<10} {r.batch:>5} {r.mean_ms:>12.3f} {r.std_ms:>10.3f} {r.per_line_ms:>12.3f}"
        )
    for batch in cfg.batch_sizes:
        lines.append(
            f"ratio softctc/(beam*ctc) batch={batch} "
            f"{report.lower_bound_ratio(batch):.4f}"
        )
        lines.append(
            f"ratio softctc/multictc batch={batch} "
            f"{report.ratio('softctc', 'multictc', batch):.4f}"
        )
        lines.append(
            f"sanity multictc/ctc batch={batch} "
            f"{report.ratio('multictc', 'ctc', batch):.2f} (expected ~{cfg.beam})"
        )
    for r in report.rows:
        lines.append(
            f"row method={r.method} batch={r.batch} mean_ms={r.mean_ms!r} "
            f"std_ms={r.std_ms!r} per_line_ms={r.per_line_ms!r}"
        )
    lines.append(f"total_seconds {report.total_seconds!r}")
    return "\n".join(lines) + "\n"

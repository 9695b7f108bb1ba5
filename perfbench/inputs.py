"""Frozen input generators for the benchmark.

These are copies, not imports, of the synthetic line generator and vocabulary
in ``softctc.bench`` as they stood when the benchmark was defined, plus the
augmentation and temperature jitter the workloads apply.  Keeping them here
means a rework of the library's own micro-bench cannot silently change what
the benchmark measures.  Changing anything in this file changes every
workload and invalidates ``reference.json``.

Every input is a pure function of a key tuple: ``line_rng(kind, *ids)``
seeds a generator from the catalogue key, the input kind and the ids, so the
same catalogue entry is the same array on every machine and in every run.
"""

from __future__ import annotations

import numpy as np

FRAMES = 250
VOCAB = 100
BEAM = 16

CATALOGUE_KEY = 0x50F7C7C

# input kinds, one per stream of random numbers
PSEUDOLABEL_LINE = 1
TRAIN_LINE = 2
TRAIN_JITTER = 3
MERGE_LINE = 4
MERGE_AUGMENT = 5


def line_rng(kind: int, *ids: int) -> np.random.Generator:
    return np.random.default_rng([CATALOGUE_KEY, kind, *ids])


def vocabulary_symbols(size: int = VOCAB) -> tuple[str, ...]:
    """Two-character display names plus a trailing blank (blank is last)."""
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    names = []
    for i in range(size - 1):
        names.append(alphabet[i // len(alphabet) % len(alphabet)] + alphabet[i % len(alphabet)])
    return tuple(names) + ("<blank>",)


def synthetic_line(rng: np.random.Generator, frames: int = FRAMES, vocab: int = VOCAB) -> np.ndarray:
    """One synthetic line: peaked runs with occasional ambiguity bursts.

    Every burst is flanked by confident blank frames so the partial strategy
    isolates it; confident frames put ~0.996 on one symbol.  Returns a
    row-normalized (frames, vocab) array with the blank in the last column.
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
    return rows


def augment(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An augmented copy of a line, as a model would see a perturbed input.

    Flattens the line with a temperature in [1, 1.5], multiplies every entry
    by log-normal noise (sigma 0.3), shifts the frames by up to two positions
    (edge frames repeat) and renormalizes each row.
    """
    temperature = rng.uniform(1.0, 1.5)
    out = y ** (1.0 / temperature)
    out = out * np.exp(rng.normal(0.0, 0.3, size=out.shape))
    shift = int(rng.integers(-2, 3))
    index = np.clip(np.arange(out.shape[0]) - shift, 0, out.shape[0] - 1)
    out = out[index]
    return out / out.sum(axis=1, keepdims=True)


def jitter(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fresh posteriors for one training step: temperature in [0.8, 1.25], renormalized."""
    tau = rng.uniform(0.8, 1.25)
    out = y ** (1.0 / tau)
    return out / out.sum(axis=1, keepdims=True)

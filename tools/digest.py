"""Bitwise digest of the library's outputs on the benchmark catalogue.

Writes one SHA-256 per catalogue entry and output, one ``<sha256>  <name>``
line each, so two source trees can be compared output by output:

    python3 tools/digest.py OUT                    # this checkout's src/
    python3 tools/digest.py --tree ../other OUT    # another checkout's src/
    python3 tools/digest.py --diff A B             # names every entry that differs
    python3 tools/digest.py --against REV          # git revision REV against this tree

The inputs come from ``perfbench/`` of the same tree, the frozen generators
the benchmark runs on.  Covered, for every entry:

- the 96 ``pseudolabel`` lines: ``decode_to_cn`` normalized and raw,
  ``decode_line``'s n-best lists, the compiled target and the kernel's loss,
  gradient and ``log_mass``;
- the 24 ``merge-transform`` lines: the merged network before and after
  prune and smooth, its compiled target and the kernel's outputs on the
  clean line;
- the 16 compiled ``train-step`` targets and, over them, the first
  ``TRAIN_BATCHES`` jittered batches, each line's outputs as its batch
  returns them;
- the first ``pseudolabel`` lines cut to the odd frame counts of
  ``ODD_FRAMES``, none a multiple of the kernel's 32-frame loop block: each
  line's compiled target and its outputs from one batch of them all, where
  lines of equal count share a lock-step group;
- the plain chain target (``compile_nbest`` of the one-entry list) of each
  ``pseudolabel`` line's ``greedy_decode`` labeling, and its outputs from
  one batch of them all: chains do not flush, so these cover the kernel's
  unflushed groups, which no network target reaches.

A network hashes its four arrays, its ``normalized`` flag and its total
score; a target hashes every array with its dtype and shape.  ``--limit N``
keeps the first N entries of each catalogue, for a quick check.  ``--diff``
exits 1 when an entry differs or is missing from one side.

``--against REV`` extracts ``git archive REV`` into a temporary directory
and digests that tree with REV's own ``tools/digest.py``, since the kernel's
interface may differ between the trees, then digests this tree (or
``--tree``), prints the comparison as ``--diff`` does and exits the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAIN_BATCHES = 4
# frame counts of the cut pseudolabel lines, in catalogue order
ODD_FRAMES = (249, 249, 65, 33, 33)


def _hash(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and the ``repr`` of anything else, in order.

    A float's ``repr`` reads back to the same double, so it pins the bits.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _network(cn) -> str:
    return _hash(cn.offsets, cn.symbols, cn.scores, cn.nulls, cn.normalized, cn.total_score)


def _target(t) -> str:
    m = t.transition
    return _hash(m.shape, m.indptr, m.indices, m.data, t.state_symbols, t.alpha_hat, t.beta_hat)


def _decoded(line) -> str:
    """A decoded line's segments and each segment's n-best list."""
    return _hash([(s.start, s.end, s.confident) for s in line.segments],
                 [[(labeling.symbols, weight) for labeling, weight in nbest]
                  for nbest in line.nbests])


def _passes(entry: str, passes) -> list[tuple[str, str]]:
    return [(f"{entry}/loss", _hash(passes.loss)),
            (f"{entry}/grad", _hash(passes.grad)),
            (f"{entry}/log_mass", _hash(passes.log_mass))]


def digest(tree: str, limit: int | None = None) -> list[tuple[str, str]]:
    """``(name, sha256)`` of every covered output, with softctc imported from ``tree``."""
    for path in (os.path.join(tree, "perfbench"), os.path.join(tree, "src")):
        sys.path.insert(0, path)
    import inputs
    import workloads
    from softctc import (NBestList, PosteriorMatrix, compile_cn, compile_nbest, decode_line,
                         decode_to_cn, greedy_decode, merge_cns, prune, smooth)
    from softctc import io as cnio
    from softctc.forward_backward import run_batch
    from tracing import Calls

    def run(lines):
        """Each line's passes in input order; a failing line stops the digest."""
        results = sorted(run_batch(lines), key=lambda result: result[0])
        for i, _, failure in results:
            if failure is not None:
                raise RuntimeError(f"line {i}: {failure}")
        return [passes for _, passes, _ in results]

    def one_line(y, target):
        return run([(y.frames, target)])[0]

    v, cfg = workloads.vocabulary(), workloads.DECODE
    # the workloads' set-up helpers read no reference figures
    no_reference = {"merge-transform": {"lines": []}, "train-step": {}}
    pseudolabel = [
        PosteriorMatrix(inputs.synthetic_line(inputs.line_rng(inputs.PSEUDOLABEL_LINE, i)))
        for i in range(workloads.PSEUDOLABEL_CATALOGUE)[:limit]]
    out = []
    for i, y in enumerate(pseudolabel):
        entry = f"pseudolabel/{i}"
        cn = decode_to_cn(y, v, cfg)
        target = compile_cn(cn, v)
        out += [(f"{entry}/cn", _network(cn)),
                (f"{entry}/cn_raw", _network(decode_to_cn(y, v, cfg, normalize=False))),
                (f"{entry}/nbest", _decoded(decode_line(y, v, cfg))),
                (f"{entry}/target", _target(target))]
        out += _passes(entry, one_line(y, target))

    merge = workloads.MergeTransform(no_reference)
    for i in range(workloads.MERGE_CATALOGUE)[:limit]:
        entry = f"merge-transform/{i}"
        y, texts, _ = merge.serialise(Calls(), i)
        merged = merge_cns([cnio.read_cn(io.StringIO(text), v)[0] for text in texts])
        pruned = prune(merged, workloads.PRUNE_CUTOFF)
        smoothed = smooth(pruned, workloads.SMOOTH_EXPONENT)
        target = compile_cn(smoothed, v)
        out += [(f"{entry}/merged", _network(merged)), (f"{entry}/pruned", _network(pruned)),
                (f"{entry}/smoothed", _network(smoothed)), (f"{entry}/target", _target(target))]
        out += _passes(entry, one_line(y, target))

    train = workloads.TrainStep(no_reference)
    base, targets, _, _ = train.decode_batch(Calls())
    for i, target in enumerate(targets[:limit]):
        out.append((f"train-step/target/{i}", _target(target)))
    for step in range(TRAIN_BATCHES)[:limit]:
        lines = [(y.frames, t) for y, t in zip(train.jittered(base, step), targets)]
        for i, passes in enumerate(run(lines)):
            out += _passes(f"train-step/{step}/{i}", passes)

    lines = []
    for i, frames in enumerate(ODD_FRAMES[:limit]):
        y = PosteriorMatrix(pseudolabel[i].frames[:frames])
        target = compile_cn(decode_to_cn(y, v, cfg), v)
        out.append((f"odd-frames/{i}/target", _target(target)))
        lines.append((y.frames, target))
    for i, passes in enumerate(run(lines)):
        out += _passes(f"odd-frames/{i}", passes)

    lines = []
    for i, y in enumerate(pseudolabel):
        target = compile_nbest(NBestList(((greedy_decode(y, v), 1.0),)), v)
        out.append((f"chain/{i}/target", _target(target)))
        lines.append((y.frames, target))
    for i, passes in enumerate(run(lines)):
        out += _passes(f"chain/{i}", passes)
    return out


def read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as f:
        return {name: sha for sha, name in (line.rstrip("\n").split("  ", 1) for line in f)}


def diff(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """Every name whose digest differs or that only one side holds, in ``a``'s order."""
    return [name for name in {**a, **b} if a.get(name) != b.get(name)]


def report(a: dict[str, str], b: dict[str, str]) -> int:
    """Print every differing entry and a count; 1 if any differs, else 0."""
    differing = diff(a, b)
    for name in differing:
        print(name)
    print(f"{len(differing)} of {len(a.keys() | b.keys())} entries differ")
    return 1 if differing else 0


def digest_revision(tree: str, rev: str, limit: int | None) -> dict[str, str]:
    """The digest of revision ``rev`` of ``tree``'s repository, made by its own tool."""
    archive = subprocess.run(["git", "-C", tree, "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as checkout:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(checkout, filter="data")
        tool, out = os.path.join(checkout, "tools", "digest.py"), os.path.join(checkout, "digest.txt")
        if not os.path.exists(tool):
            raise SystemExit(f"{rev} has no tools/digest.py")
        command = [sys.executable, tool, out]
        if limit is not None:
            command += ["--limit", str(limit)]
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        return read(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="the digest file to write, or the two to compare with --diff")
    parser.add_argument("--diff", action="store_true", help="compare two digest files")
    parser.add_argument("--against", metavar="REV",
                        help="compare git revision REV, digested by its own tool, with the tree")
    parser.add_argument("--tree", default=ROOT, help="checkout whose src/ and perfbench/ to run")
    parser.add_argument("--limit", type=int, default=None, help="first N entries of each catalogue")
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    if args.against is not None:
        if args.paths or args.diff:
            parser.error("--against takes no digest file and no --diff")
        theirs = digest_revision(tree, args.against, args.limit)
        return report(theirs, dict(digest(tree, args.limit)))
    if args.diff:
        if len(args.paths) != 2:
            parser.error("--diff takes two digest files")
        return report(read(args.paths[0]), read(args.paths[1]))
    if len(args.paths) != 1:
        parser.error("write one digest file at a time")
    entries = digest(tree, args.limit)
    with open(args.paths[0], "w", encoding="utf-8") as f:
        f.writelines(f"{sha}  {name}\n" for name, sha in entries)
    print(f"{len(entries)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())

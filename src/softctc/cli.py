"""Command-line interface.

Exit codes: 0 success, 1 validation or usage error, 2 infeasible loss
instance, 3 file I/O error.  Commands are deterministic given identical
inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from io import StringIO

from . import io as formats
from .bench import BenchConfig, render_report, run_bench
from .compiler import compile_cn, compile_nbest
from .confusion import (
    ConfusionNetwork,
    merge_cns,
    normalize_cn,
    outlier_metric,
    prune,
    smooth,
)
from .decoding import DecodeConfig, decode_line
from .loss import ctc_loss, multi_ctc, soft_ctc_loss
from .oracle import enumerate_cn_strings, enumerate_ctc, oracle_softctc
from .types import (
    InfeasibleTarget,
    ValidationError,
    Vocabulary,
    validate_posteriors,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors, not exit 2
        raise ValidationError(message)


def _smooth_arg(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"bad smoothing exponent {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softctc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="posteriors -> confusion network + n-best listing")
    p.add_argument("posteriors")
    p.add_argument("--beam", type=int, default=16)
    p.add_argument("--strategy", choices=("full", "partial"), default="partial")
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--raw", action="store_true", help="keep accumulated scores unnormalized")
    p.add_argument("--out-cn", default=None)
    p.add_argument("--out-nbest", default=None)

    p = sub.add_parser("loss", help="evaluate a loss against one target")
    p.add_argument("posteriors")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--transcript", help="plain chain target, one display symbol per character")
    group.add_argument("--cn", help="confusion network file")
    group.add_argument("--nbest", help="n-best file")
    p.add_argument("--naive", action="store_true", help="with --nbest: per-variant sum instead of one compiled pass")
    p.add_argument("--grad", default=None, help="write the gradient matrix to this path")

    p = sub.add_parser("transform", help="merge, prune, and smooth confusion networks")
    p.add_argument("cn")
    p.add_argument("--merge", action="append", default=[], help="additional network files")
    p.add_argument("--prune", type=float, nargs="?", const=0.01, default=None)
    p.add_argument("--smooth", type=_smooth_arg, default=None, help="exponent, or 'inf'")
    p.add_argument("-o", "--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("filter", help="rank networks by outlier metric and drop the worst")
    p.add_argument("files", nargs="+")
    p.add_argument("--drop-frac", type=float, required=True)

    p = sub.add_parser("bench", help="time the loss kernels on synthetic lines")
    for field in fields(BenchConfig):
        p.add_argument(f"--{field.name}", type=int, default=field.default)

    p = sub.add_parser("oracle", help="brute-force reference values (small inputs only)")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("ctc", help="enumerate alignment paths of one transcript")
    q.add_argument("posteriors")
    q.add_argument("--transcript", required=True)
    q = osub.add_parser("strings", help="enumerate the variants of a network")
    q.add_argument("cn")
    q = osub.add_parser("softctc", help="weight-sum of enumerated variant probabilities")
    q.add_argument("posteriors")
    q.add_argument("--cn", required=True)
    return parser


def _load_posteriors(path):
    m, v = formats.read_posteriors(path)
    validate_posteriors(m, v)
    return m, v


def _load_cn(path, v: Vocabulary | None = None) -> tuple[ConfusionNetwork, Vocabulary]:
    """A network file, normalized if it holds a raw network."""
    cn, v, _ = formats.read_cn(path, v)
    return (cn if cn.normalized else normalize_cn(cn)), v


def cmd_decode(args) -> int:
    m, v = _load_posteriors(args.posteriors)
    cfg = DecodeConfig(beam_size=args.beam, strategy=args.strategy, confidence=args.confidence)
    decoded = decode_line(m, v, cfg, normalize=not args.raw)

    out_cn = args.out_cn or args.posteriors + ".cn"
    out_nbest = args.out_nbest or args.posteriors + ".nbest"
    meta = {
        "strategy": cfg.strategy,
        "beam": cfg.beam_size,
        "confidence": repr(cfg.confidence),
    }
    formats.write_cn(out_cn, decoded.network, v, meta)
    formats.write_nbest(out_nbest, zip(decoded.segments, decoded.nbests), v)
    print(f"wrote {out_cn} and {out_nbest}")
    return EXIT_OK


def cmd_loss(args) -> int:
    m, v = _load_posteriors(args.posteriors)
    if args.naive and not args.nbest:
        raise ValidationError("--naive only applies to --nbest targets")
    if args.transcript is not None:
        result = ctc_loss(m, v.encode(args.transcript), v)
    elif args.cn is not None:
        result = soft_ctc_loss(m, compile_cn(_load_cn(args.cn, v)[0], v))
    else:
        groups = formats.read_nbest(args.nbest, v)
        if len(groups) != 1:
            raise ValidationError("loss expects a single n-best group")
        nbest = groups[0][1]
        if args.naive:
            result = multi_ctc(m, nbest, v)
        else:
            result = soft_ctc_loss(m, compile_nbest(nbest, v))
    print(f"loss {result.loss!r}")
    print(f"log_likelihood {result.log_likelihood!r}")
    if args.grad:
        formats.write_gradient(args.grad, result.grad, v)
        print(f"wrote {args.grad}")
    return EXIT_OK


def _read_cns_union(paths: list[str]) -> tuple[list[ConfusionNetwork], Vocabulary]:
    """Read networks onto one shared vocabulary.

    Each file may mention a different subset of symbols; indices are unified
    by display string in first-appearance order across files.  Every file is
    read once, so a pipe such as ``/dev/stdin`` works too.
    """
    texts = []
    union: dict[str, None] = {}  # ordered set of display strings
    for path in paths:
        texts.append("\n".join(formats._read_lines(path)))
        _, v, _ = formats.read_cn(StringIO(texts[-1]))
        union.update((s, None) for i, s in enumerate(v.symbols) if i != v.blank)
    vocab = Vocabulary(tuple(union) + (formats.BLANK_TOKEN,), blank_index=len(union))
    return [formats.read_cn(StringIO(text), vocab)[0] for text in texts], vocab


def cmd_transform(args) -> int:
    meta = {}
    if args.merge:
        networks, v = _read_cns_union([args.cn] + args.merge)
        cn = merge_cns(networks)
        meta["merged"] = len(networks)
    else:
        cn, v = _load_cn(args.cn)
    if args.prune is not None:
        cn = prune(cn, args.prune)
        meta["prune"] = repr(args.prune)
    if args.smooth is not None:
        cn = smooth(cn, args.smooth)
        meta["smooth"] = "inf" if math.isinf(args.smooth) else repr(args.smooth)
    if args.out:
        formats.write_cn(args.out, cn, v, meta)
    else:
        formats.write_cn(sys.stdout, cn, v, meta)
    return EXIT_OK


def cmd_filter(args) -> int:
    if not 0.0 <= args.drop_frac < 1.0:
        raise ValidationError("drop fraction must be in [0, 1)")
    metrics = [outlier_metric(formats.read_cn(path)[0]) for path in args.files]
    ranked = sorted(zip(args.files, metrics), key=lambda fm: (fm[1], fm[0]))
    dropped = int(len(ranked) * args.drop_frac + 1e-12)
    cut = len(ranked) - dropped
    for i, (path, m) in enumerate(ranked):
        verdict = "keep" if i < cut else "drop"
        print(f"{verdict}\t{m!r}\t{path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = BenchConfig(**{field.name: getattr(args, field.name) for field in fields(BenchConfig)})
    report = run_bench(config)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.oracle_command == "ctc":
        m, v = _load_posteriors(args.posteriors)
        value = enumerate_ctc(m, v.encode(args.transcript), v)
        print(f"probability {value!r}")
    elif args.oracle_command == "strings":
        cn, v = _load_cn(args.cn)
        for labeling, weight in enumerate_cn_strings(cn):
            text = "".join(v.symbols[s] for s in labeling)
            print(f"{weight!r} {text}")
    else:
        m, v = _load_posteriors(args.posteriors)
        value = oracle_softctc(m, _load_cn(args.cn, v)[0], v)
        print(f"probability {value!r}")
    return EXIT_OK


_COMMANDS = {
    "decode": cmd_decode,
    "loss": cmd_loss,
    "transform": cmd_transform,
    "filter": cmd_filter,
    "bench": cmd_bench,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleTarget as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Alignment-free sequence losses over soft transcription targets.

The plain loss scores one labeling; the soft variant scores a whole
distribution of variants encoded as a confusion network, compiled once into
a sparse transition matrix and evaluated by the same forward-backward kernel
at a cost independent of the number of variants.
"""

from .compiler import (
    CompiledTarget,
    compile_cn,
    compile_nbest,
)
from .confusion import (
    ConfusionNetwork,
    ConfusionSet,
    best_path,
    build_cn,
    count_variant_paths,
    levenshtein_align,
    merge_cns,
    normalize_cn,
    outlier_metric,
    prune,
    smooth,
    trivial_cn,
)
from .decoding import (
    DecodeConfig,
    DecodedLine,
    Segment,
    decode_line,
    decode_to_cn,
    greedy_decode,
    prefix_beam_search,
    segment_line,
)
from .loss import (
    ctc_loss,
    multi_ctc,
    soft_ctc_batch,
    soft_ctc_loss,
    soft_ctc_value_at,
)
from .types import (
    InfeasibleTarget,
    Labeling,
    LossResult,
    NBestList,
    NegativeEntry,
    NonFiniteEntry,
    PosteriorMatrix,
    RowNotNormalized,
    ShapeMismatch,
    TooLarge,
    ValidationError,
    Vocabulary,
    validate_posteriors,
)

__all__ = [
    "CompiledTarget",
    "compile_cn",
    "compile_nbest",
    "ConfusionNetwork",
    "ConfusionSet",
    "best_path",
    "build_cn",
    "count_variant_paths",
    "levenshtein_align",
    "merge_cns",
    "normalize_cn",
    "outlier_metric",
    "prune",
    "smooth",
    "trivial_cn",
    "DecodeConfig",
    "DecodedLine",
    "Segment",
    "decode_line",
    "decode_to_cn",
    "greedy_decode",
    "prefix_beam_search",
    "segment_line",
    "ctc_loss",
    "multi_ctc",
    "soft_ctc_batch",
    "soft_ctc_loss",
    "soft_ctc_value_at",
    "InfeasibleTarget",
    "Labeling",
    "LossResult",
    "NBestList",
    "NegativeEntry",
    "NonFiniteEntry",
    "PosteriorMatrix",
    "RowNotNormalized",
    "ShapeMismatch",
    "TooLarge",
    "ValidationError",
    "Vocabulary",
    "validate_posteriors",
]

__version__ = "0.1.0"

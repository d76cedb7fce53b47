"""Lossless zero-pixel text hiding and run-length compression for 8-bit grayscale images."""

from . import errors
from .carrier import synthetic_carrier
from .image import Rect, load_pgm, read_pgm, save_pgm, write_pgm
from .metrics import QualityReport, compare
from .pipeline import PHASES, PipelineResult, TimingReport, run_pipeline
from .rle import RunLengthStream, deserialize, rle_decode, rle_encode, serialize
from .stego import (
    EmbedReport,
    bytes_to_text,
    embed,
    embedding_sites,
    extract,
    scan_candidates,
    text_to_bytes,
    validate_carrier,
)

__version__ = "0.1.0"

__all__ = [
    "EmbedReport",
    "PHASES",
    "PipelineResult",
    "QualityReport",
    "Rect",
    "RunLengthStream",
    "TimingReport",
    "bytes_to_text",
    "compare",
    "deserialize",
    "embed",
    "embedding_sites",
    "errors",
    "extract",
    "load_pgm",
    "read_pgm",
    "rle_decode",
    "rle_encode",
    "run_pipeline",
    "save_pgm",
    "scan_candidates",
    "serialize",
    "synthetic_carrier",
    "text_to_bytes",
    "validate_carrier",
    "write_pgm",
]

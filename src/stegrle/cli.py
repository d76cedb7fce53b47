"""Command-line front end.

Subcommands cover the paper's workflow: ``embed`` hides a message,
``compress``/``decompress`` move between PGM and the SRLE container,
``extract`` recovers message and image, ``metrics`` compares two images, and
``pipeline`` runs everything in-process with timing and quality reports.
A test carrier is ``save_pgm(path, synthetic_carrier(width, height))``.

Failures print one machine-readable line to stderr, ``error: <Name>: ...``,
and exit with a status specific to the error family (see errors.py); 3 is
reserved for I/O problems and 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

from .errors import EmptyMessage, NonLatinCharacter, StegRleError
from .image import Rect, load_pgm, pgm_header, save_pgm, write_file
from .metrics import compare
from .pipeline import run_pipeline
from .rle import deserialize, rle_decode, rle_encode, serialize
from .stego import bytes_to_text, embed, extract, text_to_bytes

IO_ERROR_EXIT = 3
_SITES_SHOWN = 16  # embed prints this many sites, then how many more there are


def _decimal(text: str) -> int:
    """Parse an optional '-' and 1 to 320 ASCII digits, as read_pgm; int() also takes '_', '+'."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit() and len(digits) <= 320):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


def _roi_arg(text: str) -> Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("roi must be x0,y0,x1,y1")
    return Rect(*map(_decimal, parts))


def _message_from_args(args: argparse.Namespace) -> bytes:
    if args.message_file is not None:
        raw = Path(args.message_file).read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise NonLatinCharacter(f"{args.message_file} is not UTF-8 text") from None
    else:
        text = args.message
    message = text_to_bytes(text)
    if not message:
        raise EmptyMessage("message is empty")
    return message


def _fmt_float(value: float, spec: str) -> str:
    """Format a finite value by spec; an infinite one (PSNR of equal images) as Infinity."""
    return "Infinity" if math.isinf(value) else format(value, spec)


def _fmt_metric(value: float) -> str:
    """Render a metric the way the quality table does: 0, Infinity, or 4 decimals."""
    return "0" if value == 0 else _fmt_float(value, ".4f")


def cmd_embed(args: argparse.Namespace) -> int:
    message = _message_from_args(args)
    carrier = load_pgm(args.infile)
    stego, report = embed(carrier, args.roi, message)
    save_pgm(args.out, stego)
    print(f"capacity: {report.capacity}")
    print(f"bytes hidden: {report.bytes_hidden}")
    written = np.flatnonzero(stego != carrier)[:_SITES_SHOWN]  # the sites embed wrote, row-major
    sites = (divmod(int(i), stego.shape[1]) for i in written)
    shown = " ".join(f"{x},{y}" for y, x in sites)
    more = report.bytes_hidden - _SITES_SHOWN
    print("sites:", shown + (f" ... ({more} more)" if more > 0 else ""))
    return 0


def cmd_compress(args: argparse.Namespace) -> int:
    img = load_pgm(args.infile)
    raw = len(pgm_header(img)) + img.size  # the bytes write_pgm(img) would return
    container = serialize(rle_encode(img))
    write_file(args.out, container)
    ratio = raw / len(container)
    print(f"raw bytes: {raw}")
    print(f"container bytes: {len(container)}")
    print(f"ratio: {ratio:.2f}:1")
    return 0


def cmd_decompress(args: argparse.Namespace) -> int:
    # no name holds the file's bytes, so they are freed once deserialize has parsed them
    save_pgm(args.out, rle_decode(deserialize(Path(args.infile).read_bytes())))
    print(f"wrote {args.out}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    stego = load_pgm(args.infile)
    message, restored = extract(stego)
    # a bad --verify file is refused before anything is written or printed
    quality = None if args.verify is None else compare(load_pgm(args.verify), restored)
    save_pgm(args.out, restored)
    print(f"message: {bytes_to_text(message)}")
    if quality is not None:
        print(f"verify mse: {_fmt_metric(quality.mse)}")
        print(f"verify psnr: {_fmt_metric(quality.psnr)}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    quality = compare(load_pgm(args.image_a), load_pgm(args.image_b))
    print(f"mse: {_fmt_metric(quality.mse)}")
    print(f"psnr: {_fmt_metric(quality.psnr)}")
    return 0


def _print_pipeline_report(timing: list, quality: list) -> None:
    print(f"{'phase':<16}{'seconds':>10}")
    for label, seconds in timing:
        print(f"{label:<16}{seconds:>10.4f}")
    print()
    print(f"{'comparison':<22}{'mse':>10}{'psnr':>10}")
    for label, q in quality:
        print(f"{label:<22}{_fmt_metric(q.mse):>10}{_fmt_metric(q.psnr):>10}")


def _write_pipeline_csv(path: str, timing: list, quality: list) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["section", "label", "seconds", "mse", "psnr"])
    writer.writerows(["timing", label, f"{seconds:.6f}", "", ""] for label, seconds in timing)
    writer.writerows(
        ["quality", label, "", f"{q.mse:.6f}", _fmt_float(q.psnr, ".6f")] for label, q in quality
    )
    write_file(path, text.getvalue().encode("ascii"))


def cmd_pipeline(args: argparse.Namespace) -> int:
    message = _message_from_args(args)
    carrier = load_pgm(args.infile)
    result = run_pipeline(carrier, args.roi, message)
    print(f"bytes hidden: {result.embed_report.bytes_hidden}")
    print("round-trip: verified lossless")
    print()
    timing = [*result.timing.phases.items(), ("total", result.timing.total)]
    quality = [
        ("carrier vs stego", result.stego_quality),
        ("carrier vs restored", result.restored_quality),
    ]
    _print_pipeline_report(timing, quality)
    if args.csv:
        _write_pipeline_csv(args.csv, timing, quality)
        print(f"\ncsv written: {args.csv}")
    return 0


def _add_message_options(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--message", help="message text (code points 1..255)")
    group.add_argument("--message-file", help="UTF-8 text file with the message")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stegrle",
        description="Hide text at isolated zero pixels of a grayscale image "
        "and compress the result losslessly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="hide a message in a carrier image")
    p.add_argument("--in", dest="infile", required=True, help="carrier PGM")
    p.add_argument("--out", required=True, help="stego PGM to write")
    p.add_argument("--roi", type=_roi_arg, required=True, help="x0,y0,x1,y1 inclusive")
    _add_message_options(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("compress", help="run-length-compress a PGM into a container")
    p.add_argument("--in", dest="infile", required=True, help="PGM to compress")
    p.add_argument("--out", required=True, help="SRLE container to write")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="restore a PGM from a container")
    p.add_argument("--in", dest="infile", required=True, help="SRLE container")
    p.add_argument("--out", required=True, help="PGM to write")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("extract", help="recover message and image from a stego PGM")
    p.add_argument("--in", dest="infile", required=True, help="stego PGM")
    p.add_argument("--out", required=True, help="restored PGM to write")
    p.add_argument("--verify", help="original PGM to compare the restored image to")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("metrics", help="MSE / PSNR between two images")
    p.add_argument("image_a", help="first PGM")
    p.add_argument("image_b", help="second PGM")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("pipeline", help="embed, compress, decompress, extract, verify")
    p.add_argument("--in", dest="infile", required=True, help="carrier PGM")
    p.add_argument("--roi", type=_roi_arg, required=True, help="x0,y0,x1,y1 inclusive")
    _add_message_options(p)
    p.add_argument("--csv", help="also write the report as CSV")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StegRleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IOError: {exc}", file=sys.stderr)
        return IO_ERROR_EXIT
    except ValueError as exc:
        print(f"error: ValueError: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    # like stderr, print what the terminal cannot encode as escapes (caf\xe9) rather than fail
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Faults the tests must keep catching: each row puts one mended fault back into src/stegrle.

A row names the module, the exact text that guards against the fault, the faulty text
that replaces it, the tests that must fail once it is applied, and the CHANGES.md entry
that the fault comes from. Each text occurs exactly once in its module, which
test_mutants.py checks, so a change that rewrites the guarded code fails there and ports
the row; a row is never dropped to make a mutant pass.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    module: str  # under src/stegrle
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to tests/
    source: str  # words of the CHANGES.md entry


MUTANTS = [
    Mutant(
        "image.py",
        "token.isdigit() and len(token) <= 320",
        "token.isdigit()",
        ("test_cli.py::test_read_pgm_gives_one_outcome_under_every_digit_limit",),
        "One owner per rule:",
    ),
    Mutant(
        "rle.py",
        "pixels = check_pixels(self.width, self.height)",
        "pixels = self.width * self.height",
        (
            "test_rle.py::test_deserialize_survives_single_byte_corruption",
            "test_rle.py::test_decode_refuses_a_pixel_bomb",
        ),
        "One owner per rule:",
    ),
    Mutant(
        "pipeline.py",
        "if restored_quality.mse:",
        "if False:",
        ("test_pipeline.py::test_pipeline_refuses_a_round_trip_that_changes_one_pixel_or_byte",),
        "One owner per rule:",
    ),
    Mutant(
        "carrier.py",
        "if width < 1 or height < 1:",
        "if False:",
        ("test_stego.py::test_synthetic_carrier_refuses_an_empty_geometry",),
        "One owner per rule:",
    ),
    Mutant(
        "stego.py",
        "rows.tobytes()",
        'rows.tobytes(order="A")',
        ("test_stego.py::test_non_contiguous_inputs_give_the_contiguous_results",),
        "on a Fortran-ordered carrier `np.packbits` returns Fortran-ordered rows",
    ),
    Mutant(
        "image.py",
        "int(width) * int(height)",
        "width * height",
        ("test_stego.py::test_synthetic_carrier_checks_the_pixel_budget_before_allocating",),
        "`image.check_pixels` and `RunLengthStream` multiply `int(width) * int(height)`",
    ),
    Mutant(
        "rle.py",
        "stream._repeats",
        "stream.lengths",
        ("test_rle.py::test_decode_does_not_copy_the_run_lengths",),
        "MENDED: `src/stegrle/rle.py` `rle_decode` now copies the stream's int64 lengths",
    ),
    Mutant(
        "rle.py",
        "{shown(self.width)}x{shown(self.height)}",
        "{self.width}x{self.height}",
        ("test_rle.py::test_numpy_dimensions_are_multiplied_as_python_ints",),
        "MENDED: `src/stegrle/rle.py` `RunLengthStream` formats its dimension refusal",
    ),
    Mutant(
        "rle.py",
        '("values", check_values(values))',
        '("values", values)',
        ("test_rle.py::test_values_outside_a_byte_are_refused_not_wrapped",),
        "MENDED: `src/stegrle/rle.py` `rle_decode` still narrows hand-built stream values",
    ),
    Mutant(
        "image.py",
        "data[pos + _BLOCK : pos + _BLOCK + 320]",
        "data[pos + _BLOCK : pos + _BLOCK + 319]",
        ("test_image.py::test_read_p2_runs_a_block_on_through_a_320_digit_sample",),
        "The P2 reader's numpy blocks now end where a sample ends",
    ),
    Mutant(
        "image.py",
        'len(head.lstrip(b"0123456789")) + 1',
        'len(head.lstrip(b"0123456789"))',
        ("test_image.py::test_read_p2_refuses_junk_glued_to_its_last_sample_at_a_block_edge",),
        "The P2 reader's numpy blocks now end where a sample ends",
    ),
    Mutant(
        "image.py",
        "-(10**640) < value < 10**640",
        "True",
        ("test_cli.py::test_a_5001_digit_dimension_is_refused_by_name_under_every_digit_limit",),
        "MENDED: `src/stegrle/image.py` `check_pixels` formats `{width}x{height}`",
    ),
    Mutant(
        "image.py",
        "early[cls[early] > 0]",
        "early[cls[early] > 9]",
        ("test_image.py::test_read_p2_sends_a_long_sample_in_a_later_block_token_by_token",),
        "One P2 path:",
    ),
    Mutant(
        "stego.py",
        "int(np.count_nonzero(hidden))",
        "len(validate_carrier(img))",
        ("test_stego.py::test_embed_refuses_a_checkerboard_without_listing_its_sites",),
        "`embed`'s `AmbiguousCarrier` takes its count from `np.count_nonzero`",
    ),
    Mutant(
        "cli.py",
        "quality = None if args.verify is None else compare(load_pgm(args.verify), restored)",
        "save_pgm(args.out, restored); quality = None if args.verify is None else compare("
        "load_pgm(args.verify), restored)",
        ("test_cli.py::test_refusal_prints_one_error_line_and_leaves_no_file",),
        "`cmd_extract` loads and compares the `--verify` image before it writes `--out`",
    ),
    Mutant(
        "rle.py",
        "(longest := int(lengths.max()))",
        "(longest := int(lengths.astype(np.int64).max()))",
        ("test_rle.py::test_decode_length_mismatch",),
        "`RunLengthStream.__post_init__` checks run lengths as given, before the int64 cast",
    ),
    Mutant(
        "image.py",
        "np.frombuffer(data, dtype=np.uint8, count=count, offset=pos + 1)",
        "np.frombuffer(data[pos + 1 :], dtype=np.uint8, count=count)",
        ("test_memory.py::test_read_p5_peak_memory_per_pixel",),
        "Hold each raster and container once:",
    ),
    Mutant(
        "image.py",
        "np.ascontiguousarray(img)",
        "img.tobytes()",
        ("test_memory.py::test_write_pgm_peak_memory_per_pixel",),
        "Hold each raster and container once:",
    ),
    Mutant(
        "cli.py",
        "save_pgm(args.out, rle_decode(deserialize(Path(args.infile).read_bytes())))",
        "container = Path(args.infile).read_bytes(); "
        "save_pgm(args.out, rle_decode(deserialize(container)))",
        ("test_memory.py::test_decompress_peak_memory_per_pixel",),
        "Hold each raster and container once:",
    ),
    Mutant(
        "image.py",
        "if maxval < 1:",
        "if False:",
        ("test_cli.py::test_refusal_prints_one_error_line_and_leaves_no_file",),
        "Two `read_pgm` refusals are now named by a test",
    ),
    Mutant(
        "image.py",
        "if pos >= len(data) or data[pos] not in _WHITESPACE:",
        "if False:",
        ("test_cli.py::test_refusal_prints_one_error_line_and_leaves_no_file",),
        "Two `read_pgm` refusals are now named by a test",
    ),
]

"""The whole journey, timed: hide, compress, decompress, recover.

Run with:  python demos/04_full_pipeline.py
"""

from stegrle import PHASES, Rect, bytes_to_text, run_pipeline, synthetic_carrier, text_to_bytes

carrier = synthetic_carrier(256, 256)
message = text_to_bytes("GRI pid:007")

# Each phase is timed once; the pipeline also verifies every stage against
# its input and raises if anything fails to round-trip.
result = run_pipeline(carrier, Rect(1, 1, 60, 60), message)

print(f"{'phase':<16}{'seconds':>10}")
for phase in PHASES:
    print(f"{phase:<16}{result.timing.phases[phase]:>10.4f}")
print(f"{'total':<16}{result.timing.total:>10.4f}")

print()
print("container size:", len(result.container), "bytes")
print("recovered text:", bytes_to_text(result.message_out))
print(f"stego distortion: mse={result.stego_quality.mse:.4f} "
      f"psnr={result.stego_quality.psnr:.4f} dB")
print(f"after recovery:   mse={result.restored_quality.mse:.0f} psnr=Infinity")

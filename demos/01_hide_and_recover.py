"""Hiding a patient tag in an image and getting both back, step by step.

Run with:  python demos/01_hide_and_recover.py
"""

import numpy as np

from stegrle import (
    Rect,
    bytes_to_text,
    embed,
    embedding_sites,
    extract,
    scan_candidates,
    synthetic_carrier,
    text_to_bytes,
    validate_carrier,
)

# A stand-in for a real scan: black background, one bright disk.
carrier = synthetic_carrier(256, 256)
print(f"carrier: {carrier.shape[1]}x{carrier.shape[0]}, "
      f"{int((carrier != 0).sum())} nonzero pixels")

# The carrier must be safe first: no pixel may already look like a hidden
# byte, or the receiver would read garbage it cannot tell from a message.
print("ambiguous pixels:", validate_carrier(carrier))

# Pick the region to hide in. Only zero pixels whose four neighbours are
# also zero can carry a byte, and each write disqualifies its neighbours,
# so the usable capacity is lower than the raw candidate count.
roi = Rect(1, 1, 60, 60)
print("raw candidate sites in ROI:", len(scan_candidates(carrier, roi)))
print("usable capacity:", len(embedding_sites(carrier, roi)))

# Hide the tag. Characters become their code points, one byte per site.
tag = "GRI pid:007"
message = text_to_bytes(tag)
print(f"hiding {tag!r} as {list(message)}")

stego, report = embed(carrier, roi, message)
# The carrier was clean, so the isolated nonzero pixels now are the written sites.
print(f"bytes hidden: {report.bytes_hidden} at sites {validate_carrier(stego)}")
print("pixels changed:", int((stego != carrier).sum()))

# The receiver needs no key, no ROI, nothing but the image: every isolated
# nonzero pixel is a byte, and zeroing it restores the carrier.
recovered, restored = extract(stego)
print("recovered text:", bytes_to_text(recovered))
print("carrier restored bit for bit:", np.array_equal(restored, carrier))

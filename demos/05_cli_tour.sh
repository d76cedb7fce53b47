#!/bin/sh
# A tour of every subcommand. Needs the package installed (pip install -e .).
set -e

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo "working in $work"

echo; echo "# 1. make a synthetic carrier with the library"
python3 -c 'import sys, stegrle; stegrle.save_pgm(sys.argv[1], stegrle.synthetic_carrier())' \
    "$work/carrier.pgm"

echo; echo "# 2. hide a message near the top-left corner"
stegrle embed --in "$work/carrier.pgm" --out "$work/stego.pgm" \
    --roi 1,1,60,60 --message "GRI pid:007"

echo; echo "# 3. compress the stego image into an SRLE container"
stegrle compress --in "$work/stego.pgm" --out "$work/stego.srle"

echo; echo "# 4. decompress it again"
stegrle decompress --in "$work/stego.srle" --out "$work/stego2.pgm"
cmp "$work/stego.pgm" "$work/stego2.pgm" && echo "stego round-trip: byte-identical"

echo; echo "# 5. recover message and carrier, verifying against the original"
stegrle extract --in "$work/stego2.pgm" --out "$work/restored.pgm" \
    --verify "$work/carrier.pgm"

echo; echo "# 6. quality numbers on their own"
stegrle metrics "$work/carrier.pgm" "$work/stego.pgm"

echo; echo "# 7. everything in one go, with timing"
stegrle pipeline --in "$work/carrier.pgm" --roi 1,1,60,60 \
    --message "GRI pid:007" --csv "$work/report.csv"

echo; echo "# csv report:"
cat "$work/report.csv"

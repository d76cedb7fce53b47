"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is written as plain nested loops over Python lists, on
purpose: the point is to share no code (and therefore no bugs) with the
numpy implementations under test.
"""

PGM_WHITESPACE = b" \t\n\r\x0b\x0c"


def as_grid(img):
    """Copy any 2-D pixel source into a list of lists of ints."""
    return [[int(v) for v in row] for row in img]


def brute_candidates(img, x0, y0, x1, y1):
    """Zero pixels inside the box whose four neighbours are all zero, row-major."""
    grid = as_grid(img)
    height, width = len(grid), len(grid[0])
    sites = []
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            if x < 1 or x > width - 2 or y < 1 or y > height - 2:
                continue
            if grid[y][x] != 0:
                continue
            if grid[y - 1][x] or grid[y + 1][x] or grid[y][x - 1] or grid[y][x + 1]:
                continue
            sites.append((x, y))
    return sites


def brute_isolated_nonzero(img):
    """Extraction predicate over the whole interior, row-major; also the carrier check."""
    grid = as_grid(img)
    height, width = len(grid), len(grid[0])
    sites = []
    for y in range(1, height - 1):
        for x in range(1, width - 1):
            if grid[y][x] == 0:
                continue
            if grid[y - 1][x] or grid[y + 1][x] or grid[y][x - 1] or grid[y][x + 1]:
                continue
            sites.append((x, y))
    return sites


def brute_extract(img):
    """Reference extraction: (message bytes, restored grid)."""
    grid = as_grid(img)
    message = []
    for x, y in brute_isolated_nonzero(img):
        message.append(grid[y][x])
        grid[y][x] = 0
    return bytes(message), grid


def brute_greedy_sites(img, x0, y0, x1, y1):
    """Sequential embedding simulation: write a sentinel at each usable site.

    Walks the ROI row-major, re-checks the predicate against the evolving
    working grid, and marks every accepted site nonzero before moving on.
    The accepted sites, in order, are the true capacity of one pass.
    """
    grid = as_grid(img)
    height, width = len(grid), len(grid[0])
    sites = []
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            if x < 1 or x > width - 2 or y < 1 or y > height - 2:
                continue
            if grid[y][x] != 0:
                continue
            if grid[y - 1][x] or grid[y + 1][x] or grid[y][x - 1] or grid[y][x + 1]:
                continue
            grid[y][x] = 255  # any nonzero sentinel disqualifies neighbours
            sites.append((x, y))
    return sites


def brute_rle(sequence):
    """Reference run-length encoding of a flat sequence."""
    runs = []
    for value in sequence:
        value = int(value)
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([value, 1])
    return [(value, length) for value, length in runs]


def brute_rle_expand(runs):
    """Reference run-length decoding back to a flat list."""
    out = []
    for value, length in runs:
        out.extend([int(value)] * int(length))
    return out


def brute_mse(a, b):
    """Reference mean squared error over two equal-shaped pixel sources."""
    total = 0
    count = 0
    for row_a, row_b in zip(as_grid(a), as_grid(b)):
        for va, vb in zip(row_a, row_b):
            total += (va - vb) ** 2
            count += 1
    return total / count


def brute_pgm_header(data):
    """Reference PGM header scan: ([magic, width, height, maxval] tokens, raster offset).

    Skips whitespace and ``#`` comments, each of which must end at a
    newline; a token runs until whitespace or ``#``. Returns None when the
    data ends before the fourth token.
    """
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and (data[pos] in PGM_WHITESPACE or data[pos] == ord("#")):
            if data[pos] == ord("#"):
                pos = data.find(b"\n", pos)
                if pos < 0:
                    return None
            pos += 1
        start = pos
        while pos < len(data) and data[pos] not in PGM_WHITESPACE and data[pos] != ord("#"):
            pos += 1
        if pos == start:
            return None
        tokens.append(data[start:pos])
    return tokens, pos


def is_pgm_number(token):
    """A PGM number is 1 to 320 ASCII digits, whatever int()'s own digit limit is."""
    return 1 <= len(token) <= 320 and all(ord("0") <= byte <= ord("9") for byte in token)


def brute_read_p2(raster, count):
    """Reference P2 raster parse: the first count samples as ints, or the error's class name.

    Drops each ``#`` comment up to (not including) its newline, splits on
    the six ASCII whitespace bytes and converts token by token.
    """
    kept = bytearray()
    in_comment = False
    for byte in raster:
        if byte == ord("#"):
            in_comment = True
        elif byte == ord("\n"):
            in_comment = False
        if not in_comment:
            kept.append(byte)
    samples = []
    for token in bytes(kept).split()[:count]:
        if not is_pgm_number(token):
            return "MalformedHeader"
        samples.append(int(token))
    if len(samples) < count:
        return "TruncatedData"
    return samples


def brute_read_pgm(data, max_pixels):
    """Reference PGM parse: the image as a list of rows, or the error's class name."""
    header = brute_pgm_header(data)
    if header is None or header[0][0] not in (b"P2", b"P5"):
        return "MalformedHeader"
    (magic, *fields), pos = header
    numbers = []
    for field in fields:
        if not is_pgm_number(field):
            return "MalformedHeader"
        numbers.append(int(field))
    width, height, maxval = numbers
    if width < 1 or height < 1:
        return "MalformedHeader"
    if maxval > 255:
        return "UnsupportedMaxval"
    if maxval < 1:
        return "MalformedHeader"
    count = width * height
    if count > max_pixels:
        return "PixelBudgetExceeded"
    if magic == b"P5":
        # one whitespace byte, then the raster; bytes after it are not read
        if pos >= len(data) or data[pos] not in PGM_WHITESPACE:
            return "MalformedHeader"
        samples = list(data[pos + 1 : pos + 1 + count])
        if len(samples) < count:
            return "TruncatedData"
    else:
        samples = brute_read_p2(data[pos:], count)
        if isinstance(samples, str):
            return samples
    if max(samples) > maxval:
        return "MalformedHeader"
    return [samples[row * width : (row + 1) * width] for row in range(height)]


def parse_container(data):
    """Independent SRLE parser; returns (width, height, [(value, length), ...]).

    Written directly against the documented byte layout with int.from_bytes,
    so it validates serializer output without reusing its code.
    """
    assert data[0:4] == b"SRLE", "magic"
    assert data[4] == 1, "version"
    width = int.from_bytes(data[5:9], "little")
    height = int.from_bytes(data[9:13], "little")
    count = int.from_bytes(data[13:17], "little")
    assert len(data) == 17 + 5 * count, "container size"
    runs = []
    for i in range(count):
        offset = 17 + 5 * i
        value = data[offset]
        length = int.from_bytes(data[offset + 1 : offset + 5], "little")
        runs.append((value, length))
    return width, height, runs


def pack_container(width, height, runs):
    """Independent SRLE packer, the inverse of parse_container.

    Writes the header fields and (value, length) records exactly as given,
    valid or not, with int.to_bytes, so tests can build hostile containers
    without the serializer under test.
    """
    data = b"SRLE" + bytes([1])
    for number in (width, height, len(runs)):
        data += number.to_bytes(4, "little")
    for value, length in runs:
        data += bytes([value]) + length.to_bytes(4, "little")
    return data

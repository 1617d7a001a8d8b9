"""File formats: the line-oriented instance grammar and plain PBM/PGM rasters.

An integer token, in an instance document or in a raster header or body,
is an ASCII decimal integer with an optional sign (`[+-]?[0-9]+`); a block
token may end in one `?`, which marks the block unreliable.  Anything else
that Python's `int()` would take, such as `1_0` or non-ASCII digits, is a
`FormatError` naming its line.

Each section of a document is checked and converted as a whole, and a
rejected section is walked token by token only to name its first error.
The block section is read as bytes: one `bytes.translate` codes them, a
table of byte pairs checks the grammar and finds every token's end, and
array operations read the values and the `?` marks off those ends.
Writers build each section from the arrays in the same way.

Raster files are written top row first, so file raster row 1 holds image
row q = n; the Cartesian flip happens here and only here.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

import numpy as np

from .model import BinaryImage, GrayImage, Instance, _instance_of_grids, _require_well_formed, validate_instance


class FormatError(ValueError):
    """Malformed document; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# --------------------------------------------------------------------------
# Instance documents
# --------------------------------------------------------------------------

_INT = re.compile(r"[+-]?[0-9]+")
# Block rows are read as one code per byte: a digit's own value, then these;
# code 15 is unused.  Inside a content line, str.split() separates tokens at
# spaces, tabs and \x1f, the only ASCII whitespace str.splitlines() keeps.
_SIGN, _MARK, _SPACE, _BREAK, _OTHER = range(10, 15)
_CODE_OF = {ord(c): int(c) for c in "0123456789"} | {
    ord("+"): _SIGN, ord("-"): _SIGN, ord("?"): _MARK,
    ord(" "): _SPACE, ord("\t"): _SPACE, 0x1F: _SPACE, ord("\n"): _BREAK,
}
_CODES = bytes(_CODE_OF.get(byte, _OTHER) for byte in range(256))
# Block rows are tokens `[+-]?[0-9]+\??` apart by runs of spaces.  Joined
# by breaks and framed by one on each side, they are exactly the ASCII text
# whose every byte may follow the byte before it: a digit may follow a
# space, a break, a sign or a digit; a sign a space or a break; a `?` a
# digit; a space a digit, a `?` or a space; a break a digit or a `?`.
# _FOLLOWS[16 * code before + code after] is 0 for any other pair, 2 for a
# digit after a digit, which only a token of more than one digit holds, 3
# to 6 for a token's last byte (a digit, or `?` from 5 on) before a space
# (odd) or a break (even), and 1 for the other pairs.
_DIGIT = 0  # the kind of every digit's code
_KIND = [_DIGIT] * 10 + [_SIGN, _MARK, _SPACE, _BREAK, _OTHER, _OTHER]
_PAIR = {
    (_SPACE, _DIGIT): 1, (_BREAK, _DIGIT): 1, (_SIGN, _DIGIT): 1, (_SPACE, _SIGN): 1, (_BREAK, _SIGN): 1,
    (_DIGIT, _MARK): 1, (_SPACE, _SPACE): 1, (_DIGIT, _DIGIT): 2,
    (_DIGIT, _SPACE): 3, (_DIGIT, _BREAK): 4, (_MARK, _SPACE): 5, (_MARK, _BREAK): 6,
}
_FOLLOWS = np.array([_PAIR.get(pair, 0) for pair in itertools.product(_KIND, _KIND)], dtype=np.uint8)


@lru_cache(maxsize=8)
def _byte_codes(kk: int) -> tuple[bytes, bytes]:
    """Tables from a byte to its code and to 16 times its code, the digits
    above kk made _OTHER: below 10, no token holding one is in [0, kk]."""
    codes = bytearray(_CODES)
    for byte in range(ord("0") + kk + 1, ord("9") + 1):
        codes[byte] = _OTHER
    return bytes(codes), bytes(16 * code for code in codes)


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def _ints(fields: list[str], lineno: int) -> list[int]:
    # int() of a field without whitespace takes [+-]?[0-9]+, and also `_`
    # separators and non-ASCII digits, which are excluded first
    joined = " ".join(fields)
    if joined.isascii() and "_" not in joined:
        try:
            return list(map(int, fields))
        except ValueError:
            pass
    raise FormatError(f"expected integers, got {joined!r}", lineno)


def parse_instance(text: str) -> Instance:
    """Parse an instance document.

    Structural violations are rejected; a row/column sum mismatch is not,
    since infeasibility is the solver's verdict rather than a parse error.
    """
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty document")
    pos = 0

    def expect(keyword: str, nvals: int | None) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise FormatError(f"unexpected end of document, expected {keyword!r}", lines[-1][0])
        no, line = lines[pos]
        fields = line.split()
        if fields[0] != keyword:
            raise FormatError(f"expected {keyword!r}, got {fields[0]!r}", no)
        if nvals is not None and len(fields) - 1 != nvals:
            raise FormatError(f"{keyword!r} takes {nvals} value(s), got {len(fields) - 1}", no)
        pos += 1
        return no, fields[1:]

    no, magic = expect("NSR", 1)
    if magic != ["1"]:
        raise FormatError(f"unsupported format version {magic[0]!r}", no)
    no, vals = expect("k", 1)
    k = _ints(vals, no)[0]
    no, vals = expect("eps", 1)
    epsilon = _ints(vals, no)[0]
    no, vals = expect("size", 2)
    m, n = _ints(vals, no)
    if k < 2 or m <= 0 or n <= 0 or m % k or n % k:
        raise FormatError(f"bad dimensions: k={k}, size {m} {n}", no)

    no, vals = expect("rows", None)
    if len(vals) != n:
        raise FormatError(f"'rows' needs {n} values, got {len(vals)}", no)
    row_sums = tuple(_ints(vals, no))
    no, vals = expect("cols", None)
    if len(vals) != m:
        raise FormatError(f"'cols' needs {m} values, got {len(vals)}", no)
    col_sums = tuple(_ints(vals, no))

    expect("blocks", 0)
    bw, bh = m // k, n // k
    rows = lines[pos : pos + bh]
    pos += len(rows)
    grids = _block_grids(rows, bh, bw, k * k) if len(rows) == bh else None
    if grids is None:
        raise _block_rows_error(rows, bh, bw, k * k, lines[-1][0])
    if pos < len(lines):
        raise FormatError("trailing content after block rows", lines[pos][0])

    inst = _instance_of_grids(k, epsilon, row_sums, col_sums, *grids)
    _require_well_formed(validate_instance(inst), FormatError)
    return inst


def _block_grids(rows: list[tuple[int, str]], bh: int, bw: int, kk: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Values and reliability marks, [bv, bu], of bh well-formed block rows of bw tokens, else None."""
    # the file prints the top block row first; the grids run bottom up
    text = "\n".join([line for _, line in reversed(rows)])
    if not text.isascii():  # str.split() also separates tokens at non-ASCII spaces
        text = "\n".join([" ".join(line.split()) for _, line in reversed(rows)])
        if not text.isascii():
            return None
    data = f"\n{text}\n".encode("ascii")
    to_code, to_code_before = _byte_codes(kk)
    codes = np.frombuffer(data.translate(to_code), dtype=np.uint8)
    pairs = _FOLLOWS.take(np.frombuffer(data.translate(to_code_before), dtype=np.uint8)[:-1] + codes[1:])
    found = np.bincount(pairs, minlength=3)
    if found[0]:
        return None
    # bh * bw tokens with every bw-th before a break are bw per row, as the
    # rows hold bh tokens before a break between them
    ends = (pairs >= 3).nonzero()[0]
    ending = pairs.take(ends)
    if ends.size != bh * bw or np.count_nonzero(ending[bw - 1 :: bw] & 1):
        return None
    marked = ending >= 5
    lasts = ends - marked  # last digits
    values = _many_digit_values(codes, lasts, kk) if found[2] else codes.take(lasts)
    if values is None:
        return None
    # only a `-` can make a value negative
    if b"-" in data:
        minus = (np.frombuffer(data, dtype=np.uint8) == ord("-")).nonzero()[0]
        if np.count_nonzero(values.take(np.searchsorted(lasts, minus))):
            return None
    return values.reshape(bh, bw), ~marked.reshape(bh, bw)


def _many_digit_values(codes: np.ndarray, lasts: np.ndarray, kk: int) -> np.ndarray | None:
    """Values of the tokens with their last digits at `lasts`, or None if one is above kk."""
    width = len(str(kk))
    digit = codes < 10
    size = max(codes.size - width, 0)
    # a nonzero digit with `width` digits after it puts its token above kk
    far = digit[:size] & (codes[:size] != 0)
    for e in range(1, width + 1):
        far &= digit[e : size + e]
    if far.any():
        return None
    values = codes.take(lasts).astype(np.int64)
    run = np.ones(lasts.size, dtype=bool)  # the token's digits reach back e places
    for e in range(1, width):
        # index 0 holds the frame's first break, which ends every run
        at = np.maximum(lasts - e, 0)
        run &= digit[at]
        values += codes.take(at) * (run * 10**e)
    return None if np.count_nonzero(values > kk) else values


def _block_rows_error(rows: list[tuple[int, str]], bh: int, bw: int, kk: int, last: int) -> FormatError:
    """The first fault of block rows that failed the section checks, in document order."""
    for file_row in range(bh):
        if file_row >= len(rows):
            return FormatError("missing block rows", last)
        no, line = rows[file_row]
        tokens = line.split()
        if len(tokens) != bw:
            return FormatError(f"block row needs {bw} tokens, got {len(tokens)}", no)
        for tok in tokens:
            body = tok[:-1] if tok.endswith("?") else tok
            if not _INT.fullmatch(body):
                return FormatError(f"bad block token {tok!r}", no)
            if not 0 <= int(body) <= kk:
                return FormatError(f"block value {int(body)} outside [0, {kk}]", no)
    raise AssertionError("block rows failed a section check but have no fault")


@lru_cache(maxsize=8)
def _block_tokens(k: int) -> np.ndarray:
    """[value, byte]: each block value of a k-instance as its digits, NUL
    padding, a NUL byte that an unreliable block's `?` takes, and a space."""
    kk = k * k
    table = np.zeros((kk + 1, len(str(kk)) + 2), dtype=np.uint8)
    for v in range(kk + 1):
        table[v, : len(str(v))] = np.frombuffer(str(v).encode("ascii"), dtype=np.uint8)
    table[:, -1] = ord(" ")
    table.flags.writeable = False  # every caller of a k gets this one table
    return table


def write_instance(inst: Instance) -> str:
    """Instance document of a well-shaped instance; unreliable blocks get a `?`.

    Each block takes its value's bytes from a table; then the unreliable
    ones get their mark, the last space of each row becomes a newline,
    and the NUL bytes are deleted from the section as a whole.
    """
    # the file prints the top block row first
    tokens = _block_tokens(inst.k).take(inst._grid[::-1], axis=0)
    tokens[..., -2][~inst._reliable_grid[::-1]] = ord("?")
    tokens[:, -1:, -1] = ord("\n")
    rows, cols = " ".join(map(str, inst.row_sums)), " ".join(map(str, inst.col_sums))
    head = f"NSR 1\nk {inst.k}\neps {inst.epsilon}\nsize {inst.m} {inst.n}\nrows {rows}\ncols {cols}\nblocks\n"
    return head + tokens.tobytes().translate(None, b"\0").decode("ascii")


# --------------------------------------------------------------------------
# PBM / PGM rasters
# --------------------------------------------------------------------------

_COMMENT = re.compile(rb"#[^\n]*")
_PNM_INT = re.compile(rb"[+-]?[0-9]+")
_PNM_INTS = re.compile(rb"(?:[+-]?[0-9]+(?: [+-]?[0-9]+)*)?")
# str.split of the decoded text also splits at \x1c..\x1f; bytes.split does not
_SEPARATORS = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
_WHITESPACE = b" \t\n\r\x0b\x0c"


def _pnm_fields(data: bytes, header: int) -> list[bytes]:
    """The magic number and `header` - 1 more fields, then the rest of the file.

    Comments run from `#` to the end of the line and are dropped.
    """
    return _COMMENT.sub(b"", data).translate(_SEPARATORS).split(maxsplit=header)


def _pnm_line(data: bytes, index: int) -> int | None:
    """1-based line holding field number `index` (0 = magic) of a plain PNM file."""
    seen = 0
    for no, raw in enumerate(data.split(b"\n"), start=1):
        seen += len(raw.split(b"#", 1)[0].translate(_SEPARATORS).split())
        if seen > index:
            return no
    return None


def _pnm_magic(fields: list[bytes], want: bytes) -> None:
    if not fields or fields[0] != want:
        got = fields[0].decode("ascii", errors="replace") if fields else "<empty>"
        raise FormatError(f"bad magic number {got!r}, expected {want.decode()}")


def _pnm_header(data: bytes, fields: list[bytes], count: int, error: str) -> list[int]:
    """Fields 1..count as integers; `error` is the message when one is missing or malformed."""
    if len(fields) <= count:
        raise FormatError(error)
    for x in range(1, count + 1):
        if not _PNM_INT.fullmatch(fields[x]):
            raise FormatError(error, _pnm_line(data, x))
    return list(map(int, fields[1 : count + 1]))


def read_image(data: bytes) -> BinaryImage:
    """Decode a plain (P1) PBM byte string."""
    fields = _pnm_fields(data, 3)
    _pnm_magic(fields, b"P1")
    m, n = _pnm_header(data, fields, 2, "missing or malformed PBM dimensions")
    if m <= 0 or n <= 0:
        raise FormatError(f"bad PBM dimensions {m} {n}")
    # the body's bits may run together or stand apart
    bits = fields[3].translate(None, _WHITESPACE) if len(fields) > 3 else b""
    if len(bits) != m * n:
        raise FormatError(f"expected {m * n} bits, got {len(bits)}")
    a = np.frombuffer(bits, dtype=np.uint8) - ord("0")
    if a.max() > 1:  # bytes below "0" wrap around
        raise FormatError("non-bit token in PBM body")
    return BinaryImage(a.reshape(n, m)[::-1])  # raster top row is image row q = n


def write_image(img: BinaryImage) -> bytes:
    # one row is "b b ... b\n": bits at even offsets, a newline last
    out = np.full((img.n, max(2 * img.m, 1)), ord(" "), dtype=np.uint8)
    out[:, : 2 * img.m : 2] = img.a[::-1] + ord("0")
    out[:, -1] = ord("\n")
    return f"P1\n{img.m} {img.n}\n".encode("ascii") + out.tobytes()


def write_gray(g: GrayImage) -> bytes:
    lines = ["P2", f"{g.width} {g.height}", str(g.maxval)]
    for v in range(g.height, 0, -1):
        lines.append(" ".join(str(x) for x in g.values[v - 1]))
    return ("\n".join(lines) + "\n").encode("ascii")


def read_gray(data: bytes) -> GrayImage:
    """Decode a plain (P2) PGM byte string."""
    fields = _pnm_fields(data, 4)
    _pnm_magic(fields, b"P2")
    w, h, maxval = _pnm_header(data, fields, 3, "malformed PGM header or body")
    tokens = fields[4].split() if len(fields) > 4 else []
    body = b" ".join(tokens)
    if not _PNM_INTS.fullmatch(body):
        bad = next(x for x, t in enumerate(tokens) if not _PNM_INT.fullmatch(t))
        raise FormatError("malformed PGM header or body", _pnm_line(data, 4 + bad))
    if w <= 0 or h <= 0:
        raise FormatError(f"bad PGM dimensions {w} {h}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"PGM maxval {maxval} outside [1, 65535]")
    if len(tokens) != w * h:
        raise FormatError(f"expected {w * h} values, got {len(tokens)}")
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    if values.min() < 0 or values.max() > maxval:  # a value beyond int64 reads as its bound
        raise FormatError("PGM value outside [0, maxval]")
    return GrayImage(
        width=w, height=h, maxval=maxval, values=tuple(map(tuple, values.reshape(h, w)[::-1].tolist()))
    )

"""Per-token reference versions of the instance and raster I/O, for differential tests.

These are the straightforward loops the array-native code in
`drtomo.formats`, `drtomo.model.validate_instance` and the instance
derivations `perturb_instance` and `lift_instance` must agree with: the
same instances, findings and bytes, and a `FormatError` on the same
documents.  They read and build instances through the `blocks` and
`reliable` tuple views only.  One deliberate difference: integer tokens here go through
Python's `int()`, which also takes `1_0` and non-ASCII digits that the
library rejects.
"""

from __future__ import annotations

import math
import random

import numpy as np

from drtomo.formats import FormatError
from drtomo.model import BinaryImage, GrayImage, Instance, ValidationError


def validate_instance(inst: Instance) -> list[ValidationError]:
    errs: list[ValidationError] = []
    if inst.k < 2:
        errs.append(ValidationError("dimension", f"k must be >= 2, got {inst.k}"))
    if inst.epsilon < 0:
        errs.append(ValidationError("value", f"epsilon must be >= 0, got {inst.epsilon}"))
    if inst.m <= 0 or inst.n <= 0:
        errs.append(ValidationError("dimension", f"grid {inst.m}x{inst.n} must be positive"))
    if inst.k >= 2 and (inst.m % inst.k or inst.n % inst.k):
        errs.append(
            ValidationError("dimension", f"grid {inst.m}x{inst.n} is not a multiple of k={inst.k}")
        )
        return errs
    if errs:
        return errs

    if len(inst.row_sums) != inst.n:
        errs.append(ValidationError("shape", f"expected {inst.n} row sums, got {len(inst.row_sums)}"))
    if len(inst.col_sums) != inst.m:
        errs.append(ValidationError("shape", f"expected {inst.m} column sums, got {len(inst.col_sums)}"))
    bw, bh = inst.m // inst.k, inst.n // inst.k
    if len(inst.blocks) != bh or any(len(row) != bw for row in inst.blocks):
        errs.append(ValidationError("shape", f"block grid must be {bh} rows of {bw} values"))
    if errs:
        return errs

    for j, r in enumerate(inst.row_sums, start=1):
        if not 0 <= r <= inst.m:
            errs.append(ValidationError("value", f"row sum r_{j}={r} outside [0, {inst.m}]"))
    for i, c in enumerate(inst.col_sums, start=1):
        if not 0 <= c <= inst.n:
            errs.append(ValidationError("value", f"column sum c_{i}={c} outside [0, {inst.n}]"))
    kk = inst.k * inst.k
    for i, j in inst.corners():
        v = inst.value(i, j)
        if not 0 <= v <= kk:
            errs.append(ValidationError("value", f"block value v({i},{j})={v} outside [0, {kk}]"))
    all_corners = set(inst.corners())
    if not inst.reliable <= all_corners:
        errs.append(ValidationError("reliability", "reliable set contains non-corner points"))
    if inst.epsilon == 0 and inst.reliable != all_corners:
        errs.append(
            ValidationError("reliability", "epsilon = 0 requires every block to be reliable")
        )
    if sum(inst.row_sums) != sum(inst.col_sums):
        errs.append(
            ValidationError(
                "sum-mismatch",
                f"sum of row sums ({sum(inst.row_sums)}) != sum of column sums ({sum(inst.col_sums)})",
            )
        )
    return errs


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def _ints(fields: list[str], lineno: int) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise FormatError(f"expected integers, got {' '.join(fields)!r}", lineno) from None


def parse_instance(text: str) -> Instance:
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
    grid: list[tuple[int, ...]] = []
    reliable = set()
    for file_row in range(bh):
        if pos >= len(lines):
            raise FormatError("missing block rows", lines[-1][0])
        no, line = lines[pos]
        pos += 1
        tokens = line.split()
        if len(tokens) != bw:
            raise FormatError(f"block row needs {bw} tokens, got {len(tokens)}", no)
        bv = bh - 1 - file_row
        row_vals = []
        for bu, tok in enumerate(tokens):
            unreliable = tok.endswith("?")
            body = tok[:-1] if unreliable else tok
            try:
                v = int(body)
            except ValueError:
                raise FormatError(f"bad block token {tok!r}", no) from None
            if not 0 <= v <= k * k:
                raise FormatError(f"block value {v} outside [0, {k * k}]", no)
            row_vals.append(v)
            if not unreliable:
                reliable.add((k * bu + 1, k * bv + 1))
        grid.append(tuple(row_vals))
    if pos < len(lines):
        raise FormatError("trailing content after block rows", lines[pos][0])

    inst = Instance(
        k=k,
        epsilon=epsilon,
        m=m,
        n=n,
        row_sums=row_sums,
        col_sums=col_sums,
        blocks=tuple(reversed(grid)),
        reliable=frozenset(reliable),
    )
    structural = [e for e in validate_instance(inst) if e.kind != "sum-mismatch"]
    if structural:
        raise FormatError("; ".join(str(e) for e in structural))
    return inst


def write_instance(inst: Instance) -> str:
    out = [
        "NSR 1",
        f"k {inst.k}",
        f"eps {inst.epsilon}",
        f"size {inst.m} {inst.n}",
        "rows " + " ".join(str(r) for r in inst.row_sums),
        "cols " + " ".join(str(c) for c in inst.col_sums),
        "blocks",
    ]
    bh = inst.n // inst.k
    for bv in range(bh - 1, -1, -1):
        tokens = []
        for bu, v in enumerate(inst.blocks[bv]):
            corner = (inst.k * bu + 1, inst.k * bv + 1)
            tokens.append(str(v) if corner in inst.reliable else f"{v}?")
        out.append(" ".join(tokens))
    return "\n".join(out) + "\n"


def perturb_instance(inst: Instance, fraction_unreliable: float, seed: int) -> Instance:
    """Demote a seeded sample of the sorted corners and jitter their values, one corner at a time."""
    if inst.epsilon == 0 or fraction_unreliable == 0:
        return inst
    all_corners = sorted(inst.corners())
    count = math.ceil(fraction_unreliable * len(all_corners))
    rng = random.Random(seed)
    demoted = set(rng.sample(all_corners, count))
    kk = inst.k * inst.k
    new_blocks = [list(row) for row in inst.blocks]
    for i, j in sorted(demoted):
        offset = rng.randint(-inst.epsilon, inst.epsilon)
        bu, bv = (i - 1) // inst.k, (j - 1) // inst.k
        new_blocks[bv][bu] = min(kk, max(0, new_blocks[bv][bu] + offset))
    return Instance(
        k=inst.k,
        epsilon=inst.epsilon,
        m=inst.m,
        n=inst.n,
        row_sums=inst.row_sums,
        col_sums=inst.col_sums,
        blocks=tuple(tuple(row) for row in new_blocks),
        reliable=inst.reliable - demoted,
    )


def lift_instance(inst: Instance, k_prime: int) -> Instance:
    """Move every line sum, block value and reliable corner of a k = 2 instance to k'-sized blocks."""
    m2, n2 = inst.m * k_prime // 2, inst.n * k_prime // 2
    rows = [0] * n2
    cols = [0] * m2
    for j in range(1, inst.n, 2):
        base = k_prime * (j - 1) // 2
        rows[base], rows[base + 1] = inst.row_sums[j - 1], inst.row_sums[j]
    for i in range(1, inst.m, 2):
        base = k_prime * (i - 1) // 2
        cols[base], cols[base + 1] = inst.col_sums[i - 1], inst.col_sums[i]
    reliable = frozenset((k_prime * (i - 1) // 2 + 1, k_prime * (j - 1) // 2 + 1) for i, j in inst.reliable)
    return Instance(
        k=k_prime,
        epsilon=inst.epsilon,
        m=m2,
        n=n2,
        row_sums=tuple(rows),
        col_sums=tuple(cols),
        blocks=inst.blocks,
        reliable=reliable,
    )


def _tokenize_pnm(data: bytes) -> list[str]:
    text = data.decode("ascii", errors="replace")
    tokens = []
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0]
        tokens.extend(line.split())
    return tokens


def read_image(data: bytes) -> BinaryImage:
    tokens = _tokenize_pnm(data)
    if not tokens or tokens[0] != "P1":
        raise FormatError(f"bad magic number {tokens[0] if tokens else '<empty>'!r}, expected P1")
    try:
        m, n = int(tokens[1]), int(tokens[2])
    except (IndexError, ValueError):
        raise FormatError("missing or malformed PBM dimensions") from None
    if m <= 0 or n <= 0:
        raise FormatError(f"bad PBM dimensions {m} {n}")
    bits = "".join(tokens[3:])
    if len(bits) != m * n:
        raise FormatError(f"expected {m * n} bits, got {len(bits)}")
    if set(bits) - {"0", "1"}:
        raise FormatError("non-bit token in PBM body")
    a = np.array([int(b) for b in bits], dtype=np.uint8).reshape(n, m)
    return BinaryImage(a[::-1])


def write_image(img: BinaryImage) -> bytes:
    lines = ["P1", f"{img.m} {img.n}"]
    for q in range(img.n, 0, -1):
        lines.append(" ".join(str(int(b)) for b in img.a[q - 1]))
    return ("\n".join(lines) + "\n").encode("ascii")


def read_gray(data: bytes) -> GrayImage:
    tokens = _tokenize_pnm(data)
    if not tokens or tokens[0] != "P2":
        raise FormatError(f"bad magic number {tokens[0] if tokens else '<empty>'!r}, expected P2")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        values = [int(t) for t in tokens[4:]]
    except (IndexError, ValueError):
        raise FormatError("malformed PGM header or body") from None
    if w <= 0 or h <= 0:
        raise FormatError(f"bad PGM dimensions {w} {h}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"PGM maxval {maxval} outside [1, 65535]")
    if len(values) != w * h:
        raise FormatError(f"expected {w * h} values, got {len(values)}")
    if any(not 0 <= x <= maxval for x in values):
        raise FormatError("PGM value outside [0, maxval]")
    rows = [tuple(values[r * w : (r + 1) * w]) for r in range(h)]
    return GrayImage(width=w, height=h, maxval=maxval, values=tuple(reversed(rows)))

"""Instance grammar and PBM/PGM round trips."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import format_reference as ref
from drtomo.formats import (
    FormatError,
    parse_instance,
    read_gray,
    read_image,
    write_gray,
    write_image,
    write_instance,
)
from drtomo.hardness import OneInThreeInstance, gen_sat_instance
from drtomo.model import (
    BinaryImage,
    GrayImage,
    Instance,
    degrade,
    make_exact_instance,
    random_image,
    validate_instance,
)

MINIMAL = """\
NSR 1
k 2
eps 0
size 2 2
rows 0 0
cols 0 0
blocks
0
"""


class TestParseInstance:
    def test_minimal_document(self):
        inst = parse_instance(MINIMAL)
        assert (inst.k, inst.epsilon, inst.m, inst.n) == (2, 0, 2, 2)
        assert inst.blocks == ((0,),)
        assert inst.reliable == frozenset({(1, 1)})

    def test_unreliable_token(self):
        text = MINIMAL.replace("eps 0", "eps 1").replace("\n0\n", "\n3?\n")
        inst = parse_instance(text)
        assert inst.value(1, 1) == 3
        assert not inst.is_reliable(1, 1)

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL.replace("rows", "rows  # trailing\nrows")
        with pytest.raises(FormatError):
            parse_instance(text)  # duplicated keyword still caught
        assert parse_instance("# c\n" + MINIMAL) == parse_instance(MINIMAL)

    def test_sum_mismatch_is_not_a_parse_error(self):
        text = MINIMAL.replace("rows 0 0", "rows 1 0")
        inst = parse_instance(text)
        assert inst.row_sums == (1, 0)

    def test_block_row_orientation(self):
        text = """\
NSR 1
k 2
eps 0
size 2 4
rows 0 0 2 0
cols 1 1
blocks
2
0
"""
        inst = parse_instance(text)
        assert inst.value(1, 1) == 0  # bottom block is the last file line
        assert inst.value(1, 3) == 2

    def test_errors_carry_line_numbers(self):
        with pytest.raises(FormatError) as err:
            parse_instance(MINIMAL.replace("size 2 2", "size 2"))
        assert "line 4" in str(err.value)
        with pytest.raises(FormatError) as err:
            parse_instance(MINIMAL.replace("rows 0 0", "rows 0"))
        assert "line 5" in str(err.value)

    @pytest.mark.parametrize(
        "mutation",
        [
            ("NSR 1", "NSR 2"),
            ("k 2", "k x"),
            ("size 2 2", "size 3 2"),
            ("\n0\n", "\n5\n"),
            ("\n0\n", "\n0 0\n"),
            ("\n0\n", "\n0\n0\n"),
            ("blocks\n", ""),
        ],
    )
    def test_structural_rejections(self, mutation):
        with pytest.raises(FormatError):
            parse_instance(MINIMAL.replace(*mutation))

    def test_empty_document(self):
        with pytest.raises(FormatError):
            parse_instance("  \n# only comments\n")

    def test_round_trip_random(self):
        for seed in range(5):
            inst = make_exact_instance(random_image(8, 6, 0.4, seed), 2)
            assert parse_instance(write_instance(inst)) == inst

    def test_round_trip_sat_board_byte_identical(self):
        sat = OneInThreeInstance(4, ((1, -2, 3),))
        inst = gen_sat_instance(sat)
        text = write_instance(inst)
        assert write_instance(parse_instance(text)) == text


class TestRasterFormats:
    def test_single_black_pixel(self):
        img = BinaryImage.from_ones(1, 1, [(1, 1)])
        assert write_image(img) == b"P1\n1 1\n1\n"

    def test_raster_top_row_is_highest_q(self):
        img = BinaryImage.from_ones(2, 2, [(1, 2)])
        assert write_image(img) == b"P1\n2 2\n1 0\n0 0\n"
        assert read_image(write_image(img)) == img

    def test_pbm_round_trip_random(self):
        for seed in range(5):
            img = random_image(16, 16, 0.5, seed)
            assert read_image(write_image(img)) == img

    def test_pbm_errors(self):
        with pytest.raises(FormatError):
            read_image(b"P4\n1 1\n1\n")
        with pytest.raises(FormatError):
            read_image(b"P1\n2 2\n1 0 1\n")
        with pytest.raises(FormatError):
            read_image(b"P1\n1 1\n7\n")
        with pytest.raises(FormatError):
            read_image(b"P1\n0 1\n\n")
        with pytest.raises(FormatError):
            read_image(b"")

    def test_pbm_comments(self):
        assert read_image(b"P1 # plain\n1 1 # size\n1\n").get(1, 1) == 1

    def test_pgm_round_trip(self):
        gray = degrade(random_image(8, 8, 0.6, 1), 2)
        data = write_gray(gray)
        assert data.startswith(b"P2\n4 4\n4\n")
        assert read_gray(data) == gray

    def test_pgm_errors(self):
        with pytest.raises(FormatError):
            read_gray(b"P1\n1 1\n1\n")
        with pytest.raises(FormatError):
            read_gray(b"P2\n1 1\n4\n5\n")
        with pytest.raises(FormatError):
            read_gray(b"P2\n2 1\n4\n1\n")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2 0 0 255", "dimensions"),
            (b"P2 0 2 4", "dimensions"),
            (b"P2 -1 -1 3", "dimensions"),
            (b"P2 1 1 0 0", "maxval"),
            (b"P2 1 1 -4 0", "maxval"),
            (b"P2 1 1 65536 7", "maxval"),
        ],
    )
    def test_pgm_header_range_errors(self, data, message):
        with pytest.raises(FormatError, match=message):
            read_gray(data)

    def test_pgm_maxval_range_accepted(self):
        assert read_gray(b"P2 1 1 1 1").maxval == 1
        assert read_gray(b"P2 1 1 65535 65535").values == ((65535,),)

    def test_pgm_orientation(self):
        gray = GrayImage(width=1, height=2, maxval=4, values=((1,), (3,)))
        assert write_gray(gray) == b"P2\n1 2\n4\n3\n1\n"


class TestIntegerTokens:
    """Only ASCII decimal integers with an optional sign are integer tokens."""

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("k 2", "k 0_2", 2),
            ("eps 0", "eps \u0660", 3),  # ARABIC-INDIC DIGIT ZERO
            ("size 2 2", "size 2 \uff12", 4),  # FULLWIDTH DIGIT TWO
            ("rows 0 0", "rows 0 0_0", 5),
            ("cols 0 0", "cols \u0660 0", 6),
            ("blocks\n0\n", "blocks\n0_0\n", 8),
            ("blocks\n0\n", "blocks\n\u0660\n", 8),
        ],
    )
    def test_instance_rejects_other_int_spellings(self, old, new, line):
        text = MINIMAL.replace(old, new)
        ref.parse_instance(text)  # int() takes it
        with pytest.raises(FormatError) as err:
            parse_instance(text)
        assert err.value.line == line

    def test_unreliable_non_ascii_block_rejected(self):
        text = MINIMAL.replace("eps 0", "eps 1").replace("blocks\n0\n", "blocks\n\u0663?\n")
        assert ref.parse_instance(text).blocks == ((3,),)
        with pytest.raises(FormatError, match="line 8: bad block token"):
            parse_instance(text)

    def test_signs_and_leading_zeros_accepted(self):
        text = MINIMAL.replace("k 2", "k +2").replace("rows 0 0", "rows -0 00").replace("blocks\n0\n", "blocks\n+0\n")
        assert parse_instance(text) == parse_instance(MINIMAL)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"P1\n0_1 1\n1\n", 2),
            (b"P1\n1\n# size\n1_0\n" + b"1" * 10 + b"\n", 4),
        ],
    )
    def test_pbm_dimensions_reject_other_int_spellings(self, data, line):
        ref.read_image(data)
        with pytest.raises(FormatError, match="malformed PBM dimensions") as err:
            read_image(data)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"P2\n1 1\n4\n0_1\n", 4),
            (b"P2 2 1\n1_0\n0 0\n", 2),
            (b"P2 2 1 4\n# two values\n3 +0_4\n", 3),
        ],
    )
    def test_pgm_rejects_other_int_spellings(self, data, line):
        ref.read_gray(data)
        with pytest.raises(FormatError, match="malformed PGM header or body") as err:
            read_gray(data)
        assert err.value.line == line


class TestLongTokens:
    """Tokens past int()'s default limit of 4300 digits, which the reference's int() refuses."""

    NINES, PAD = "9" * 5000, "0" * 5000

    @pytest.mark.parametrize("k", [2, 16])
    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_block_token_is_out_of_range(self, k, sign):
        for rows in ((f"1 {sign}{self.NINES}", "2 3"), ("1 2", f"3 {sign}000{self.NINES}?")):
            with pytest.raises(FormatError) as err:
                parse_instance(TestBlockTokens.document(k, rows))
            line = 8 if self.NINES in rows[0] else 9
            want = f"line {line}: block value {'-' * (sign == '-')}{self.NINES} outside [0, {k * k}]"
            assert str(err.value) == want and err.value.line == line

    @pytest.mark.parametrize("k", [2, 16])
    def test_zero_padded_block_token_parses(self, k):
        text = TestBlockTokens.document(k, (f"1 +{self.PAD}3?", f"-{self.PAD} {self.PAD}2"))
        inst = parse_instance(text)
        assert inst.blocks == ((0, 2), (1, 3)) and not inst.is_reliable(k + 1, k + 1)
        # the token walk that names a section's first fault reads it too
        with pytest.raises(FormatError, match=r"^line 8: bad block token 'x'$"):
            parse_instance(TestBlockTokens.document(k, (f"{self.PAD}3 x", "0 0")))

    @pytest.mark.parametrize(
        "old, new, line",
        [("k 2", "k ", 2), ("rows 0 0", "rows 0 ", 5), ("eps 0", "eps ", 3), ("size 2 2", "size 2 ", 4),
         ("cols 0 0", "cols 0 ", 6)],
    )
    def test_header_token_names_its_line(self, old, new, line):
        with pytest.raises(FormatError, match="expected integers") as err:
            parse_instance(MINIMAL.replace(old, new + self.NINES))
        assert err.value.line == line

    @pytest.mark.parametrize(
        "old, new",
        [("k 2", "k {}2"), ("eps 0", "eps {}"), ("size 2 2", "size 2 +{}2"), ("rows 0 0", "rows 0 -{}"),
         ("cols 0 0", "cols {}0 0")],
        ids=["k", "eps", "size", "rows", "cols"],
    )
    def test_zero_padded_header_token_parses(self, old, new):
        assert parse_instance(MINIMAL.replace(old, new.format(self.PAD))) == parse_instance(MINIMAL)

    @pytest.mark.parametrize("sign", [b"", b"-"])
    def test_pnm_header_field_is_rejected_on_its_line(self, sign):
        nines = sign + self.NINES.encode()
        for data, line in ((b"P1 " + nines + b" 1 0", 1), (b"P1\n1\n" + nines + b"\n1\n", 3)):
            with pytest.raises(FormatError, match="malformed PBM dimensions") as err:
                read_image(data)
            assert err.value.line == line
        for data, line in ((b"P2 1 1\n" + nines + b"\n0\n", 2), (b"P2\n" + nines + b" 1 4 0", 2)):
            with pytest.raises(FormatError, match="malformed PGM header or body") as err:
                read_gray(data)
            assert err.value.line == line

    def test_zero_padded_pnm_header_parses(self):
        pad = self.PAD.encode()
        assert read_image(b"P1 " + pad + b"2 +" + pad + b"1 1 0") == BinaryImage.from_ones(2, 1, [(1, 1)])
        gray = read_gray(b"P2 1 1 " + pad + b"7 5")
        assert (gray.width, gray.height, gray.maxval, gray.values) == (1, 1, 7, ((5,),))


class TestBlockRowSpacing:
    """Block rows split into tokens wherever str.split() splits them."""

    ROWS = MINIMAL.replace("size 2 2", "size 4 4").replace("rows 0 0", "rows 0 0 0 0").replace(
        "cols 0 0", "cols 0 0 0 0"
    ).replace("blocks\n0\n", "blocks\n{}\n{}\n")

    @pytest.mark.parametrize("space", ["\xa0", "\u2003", "\x1f", "\u3000", " \xa0\t", "\x1f\x1f"])
    @pytest.mark.parametrize("rows", [("1{}2", "3 4"), ("1 2", "+3{}04"), ("1{}2", "0{}4"), ("1{}2{}3", "1 2")])
    def test_unicode_and_control_spaces_match_reference(self, space, rows):
        text = self.ROWS.format(*(row.replace("{}", space) for row in rows))
        assert outcome(parse_instance, text) == outcome(ref.parse_instance, text)

    def test_no_break_space_separates_tokens(self):
        inst = parse_instance(self.ROWS.format("1\xa02", "3\x1f4"))
        assert inst.blocks == ((3, 4), (1, 2))

    @pytest.mark.parametrize("space", ["\x0b", "\x0c"])
    def test_line_breaking_spaces_split_the_row(self, space):
        # str.splitlines() ends a line at \x0b and \x0c, so each half is a row of one token
        text = self.ROWS.format(f"1{space}2", "3 4")
        with pytest.raises(FormatError, match=r"^line 8: block row needs 2 tokens, got 1$") as err:
            parse_instance(text)
        assert err.value.line == 8
        assert outcome(parse_instance, text) == outcome(ref.parse_instance, text)


class TestBlockTokens:
    """Block tokens of every width, sign and range, against the per-token reference."""

    TOKENS = [
        "0", "4", "5", "9", "04", "0004", "005", "10", "13", "16", "016", "17", "25", "26", "100", "116", "256",
        "257", "0257", "1000", "-0", "-00", "+4", "+05", "-1", "-01", "0" * 20 + "3", "9" * 20, "7?", "0016?",
    ]

    @staticmethod
    def document(k: int, rows: tuple[str, str]) -> str:
        zeros = " ".join(["0"] * 2 * k)
        return f"NSR 1\nk {k}\neps 1\nsize {2 * k} {2 * k}\nrows {zeros}\ncols {zeros}\nblocks\n" + "\n".join(rows)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 16])
    @pytest.mark.parametrize("token", TOKENS)
    def test_token_matches_reference(self, k, token):
        for rows in ((f"1 {token}", f"{token}\t2"), (f"{token} {token}", "3? 0")):
            text = self.document(k, rows)
            assert outcome(parse_instance, text) == outcome(ref.parse_instance, text)

    @pytest.mark.parametrize("rows", [("1 2 3", "4"), ("1", "2 3 4"), ("1 2", "3 4 5")])
    def test_tokens_count_per_row(self, rows):
        text = self.document(2, rows)
        with pytest.raises(FormatError, match="block row needs 2 tokens"):
            parse_instance(text)
        assert outcome(parse_instance, text) == outcome(ref.parse_instance, text)


# --------------------------------------------------------------------------
# differential tests against the per-token references in format_reference
# --------------------------------------------------------------------------

@st.composite
def instances(draw, max_blocks=6):
    """Well-shaped instances; line sums and values in range, sums need not match."""
    # k = 5 writes two-digit values; k = 16 has values past 255, so an int64 grid
    k = draw(st.sampled_from([2, 2, 2, 3, 4, 5, 16]))
    bw, bh = draw(st.integers(1, max_blocks)), draw(st.integers(1, max_blocks))
    m, n, kk = k * bw, k * bh, k * k
    epsilon = draw(st.integers(0, 3))
    corners = [(k * bu + 1, k * bv + 1) for bv in range(bh) for bu in range(bw)]
    if epsilon == 0:
        reliable = frozenset(corners)
    else:
        reliable = frozenset(draw(st.sets(st.sampled_from(corners))))
    return Instance(
        k=k,
        epsilon=epsilon,
        m=m,
        n=n,
        row_sums=tuple(draw(st.lists(st.integers(0, m), min_size=n, max_size=n))),
        col_sums=tuple(draw(st.lists(st.integers(0, n), min_size=m, max_size=m))),
        blocks=tuple(
            tuple(draw(st.lists(st.integers(0, kk), min_size=bw, max_size=bw))) for _ in range(bh)
        ),
        reliable=reliable,
    )


SPACES = [" ", "  ", "\t", " \t "]


def decorate(text: str, rng: random.Random) -> str:
    """The same document with other spacing, comments and blank lines."""
    out = []
    for line in text.splitlines():
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# note", "\t# 1 2 3"]))
        fields = line.split()
        line = rng.choice(["", " "]) + "".join(f + rng.choice(SPACES) for f in fields[:-1]) + fields[-1]
        if rng.random() < 0.2:
            line += rng.choice(SPACES) + "# trailing 7 ?"
        out.append(line)
    return "\n".join(out) + rng.choice(["", "\n", "\n\n# end\n"])


# tokens int() and the library judge alike: no `_`, no non-ASCII digits
JUNK = ["x", "5??", "?", "?3", "+", "-", "-1", "+2", "-0", "007", "1.5", "1e2", "0x1",
        "99999999999999999999", "-99999999999999999999", "3?", "17", "NSR", "blocks", "k", "#"]


def mutate(text: str, rng: random.Random) -> str:
    lines = text.split("\n")
    x = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:  # replace one token
        fields = lines[x].split(" ")
        fields[rng.randrange(len(fields))] = rng.choice(JUNK)
        lines[x] = " ".join(fields)
    elif kind == 1:
        del lines[x]
    elif kind == 2:
        lines.insert(x, lines[rng.randrange(len(lines))])
    elif kind == 3:
        lines[x] += " " + rng.choice(JUNK)
    else:
        lines = lines[:x]
    return "\n".join(lines)


def outcome(fn, *args):
    try:
        return fn(*args)
    except FormatError as e:
        return ("FormatError", str(e))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(instances(), st.integers(0, 2**32))
    def test_parse_matches_reference(self, inst, seed):
        text = decorate(ref.write_instance(inst), random.Random(seed))
        parsed = parse_instance(text)
        assert parsed == ref.parse_instance(text) == inst
        assert validate_instance(parsed) == ref.validate_instance(parsed)

    @settings(max_examples=500, deadline=None)
    @given(instances(max_blocks=4), st.integers(0, 2**32))
    def test_malformed_documents_match_reference(self, inst, seed):
        rng = random.Random(seed)
        text = decorate(ref.write_instance(inst), rng)
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        assert outcome(parse_instance, text) == outcome(ref.parse_instance, text)

    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_views_of_parsed_instance_match_fresh_ones(self, inst):
        parsed = parse_instance(write_instance(inst))
        fresh = dataclasses.replace(parsed)  # equal fields, views not yet computed
        assert np.array_equal(parsed._grid, fresh._grid)
        assert np.array_equal(parsed._reliable_grid, fresh._reliable_grid)
        assert np.array_equal(parsed._strip_counts, fresh._strip_counts)

    @settings(max_examples=200, deadline=None)
    @given(instances(), st.sets(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=4))
    def test_write_instance_matches_reference(self, inst, extra):
        # extra corners are written as reliable; any other point is rejected at construction
        if extra <= set(inst.corners()):
            inst = dataclasses.replace(inst, reliable=inst.reliable | extra)
            assert write_instance(inst) == ref.write_instance(inst)
        else:
            with pytest.raises(ValueError, match="non-corner points"):
                dataclasses.replace(inst, reliable=inst.reliable | extra)

    @pytest.mark.parametrize("k", [2, 3, 4, 10, 15, 16, 17])
    def test_write_instance_matches_reference_for_every_k(self, k):
        # k = 16 and 17 hold their values in int64; mixed, no and all `?` marks
        rng = np.random.default_rng(k)
        for fraction in (0, 0.5, 1):
            bh, bw = rng.integers(1, 7, size=2).tolist()
            grid = rng.integers(0, k * k + 1, size=(bh, bw))
            grid.flat[[0, -1]] = k * k, 0
            marks = rng.random((bh, bw)) >= fraction
            inst = Instance(
                k=k, epsilon=3, m=k * bw, n=k * bh,
                row_sums=tuple(rng.integers(0, k * bw + 1, k * bh).tolist()),
                col_sums=tuple(rng.integers(0, k * bh + 1, k * bw).tolist()),
                blocks=tuple(map(tuple, grid.tolist())),
                reliable=frozenset((k * bu + 1, k * bv + 1) for bv, bu in zip(*np.nonzero(marks))),
            )
            assert write_instance(inst) == ref.write_instance(inst)

    @pytest.mark.parametrize("blocks", [((5, 0),), ((-1, 0),), ((0, 2**70),), ((0,), (0, 1))])
    def test_write_instance_rejects_what_it_cannot_write(self, blocks):
        # such a grid is rejected when the instance is built, so write_instance never meets one
        with pytest.raises(ValueError, match=r"integers in \[0, 4\]|ragged"):
            Instance(k=2, epsilon=0, m=4, n=2 * len(blocks), row_sums=(0,) * 2 * len(blocks),
                     col_sums=(0,) * 4, blocks=blocks, reliable=frozenset())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 2**32))
    def test_write_image_matches_reference(self, m, n, seed):
        a = np.random.default_rng(seed).integers(0, 2, size=(n, m), dtype=np.uint8)
        img = BinaryImage(a)
        assert write_image(img) == ref.write_image(img)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32))
    def test_read_image_matches_reference(self, m, n, seed):
        rng = random.Random(seed)
        img = random_image(m, n, rng.random(), seed)
        data = pnm_variant(ref.write_image(img), rng)
        got, want = outcome(read_image, data), outcome(ref.read_image, data)
        assert type(got) is type(want)
        if isinstance(want, BinaryImage):
            assert got == want

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
    def test_read_gray_matches_reference(self, w, h, seed):
        rng = random.Random(seed)
        gray = GrayImage(w, h, rng.randint(1, 300), tuple(
            tuple(rng.randint(0, 300) for _ in range(w)) for _ in range(h)))
        data = pnm_variant(write_gray(gray), rng)
        got, want = outcome(read_gray, data), outcome(ref.read_gray, data)
        assert type(got) is type(want)
        if isinstance(want, GrayImage):
            assert got == want


PNM_SPACES = [b" ", b"  ", b"\t", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b" # c\n"]
PNM_JUNK = [b"x", b"2", b"-1", b"+1", b"0", b"07", b"\xff", b"P1", b"P2", b"#", b"1.0", b"99999999999999999999"]


def pnm_variant(data: bytes, rng: random.Random) -> bytes:
    """Respaced, commented, run-together or damaged versions of a plain PNM file."""
    fields = data.split()
    if rng.random() < 0.3 and fields[0] == b"P1":
        fields = fields[:3] + [b"".join(fields[3:])]  # bits may run together
    for _ in range(rng.choice([0, 0, 1, 2])):
        x = rng.randrange(len(fields) + 1)
        action = rng.randrange(3)
        if action == 0 and x < len(fields):
            fields[x] = rng.choice(PNM_JUNK)
        elif action == 1 and x < len(fields):
            del fields[x]
        else:
            fields.insert(x, rng.choice(PNM_JUNK))
    return b"".join(f + rng.choice(PNM_SPACES) for f in fields)


class TestRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_instance_round_trip(self, inst):
        text = write_instance(inst)
        assert parse_instance(text) == inst
        assert write_instance(parse_instance(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_array_built_equals_tuple_built(self, inst):
        parsed = parse_instance(write_instance(inst))  # built from arrays, no views yet
        assert parsed == inst and inst == parsed and hash(parsed) == hash(inst)
        assert parsed._grid.dtype == inst._grid.dtype == (np.uint8 if inst.k < 16 else np.int64)
        assert parsed.blocks == inst.blocks and parsed.reliable == inst.reliable

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.floats(0, 1), st.integers(0, 2**31))
    def test_pbm_round_trip(self, m, n, density, seed):
        img = random_image(m, n, density, seed)
        data = write_image(img)
        assert read_image(data) == img
        assert write_image(read_image(data)) == data

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 65535), st.integers(0, 2**31))
    def test_pgm_round_trip(self, w, h, maxval, seed):
        rng = random.Random(seed)
        gray = GrayImage(w, h, maxval, tuple(tuple(rng.randint(0, maxval) for _ in range(w)) for _ in range(h)))
        assert read_gray(write_gray(gray)) == gray

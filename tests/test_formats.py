"""Instance grammar and PBM/PGM round trips."""

import pytest

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
from drtomo.model import BinaryImage, GrayImage, degrade, make_exact_instance, random_image

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

"""Command-line surface: exit codes, file outputs, determinism."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from drtomo import cli, formats
from drtomo.model import BinaryImage, make_exact_instance, perturb_instance, random_image, verify_solution

from conftest import single_block_instance


def write_inst(tmp_path, inst, name="case.nsr"):
    path = tmp_path / name
    path.write_text(formats.write_instance(inst))
    return str(path)


def write_img(tmp_path, img, name="img.pbm"):
    path = tmp_path / name
    path.write_bytes(formats.write_image(img))
    return str(path)


DEMO_SAT_TEXT = "p 1in3 4 1\n1 -2 3\n"


class TestSolveVerify:
    def test_solve_then_verify(self, tmp_path, capsys):
        inst = make_exact_instance(random_image(6, 6, 0.5, 1), 2)
        inst_path = write_inst(tmp_path, inst)
        out_path = str(tmp_path / "sol.pbm")
        assert cli.main(["solve", inst_path, "-o", out_path]) == 0
        assert cli.main(["verify", inst_path, out_path]) == 0
        assert capsys.readouterr().out.strip().endswith("OK")

    def test_infeasible_exit_code(self, tmp_path, capsys):
        inst_path = write_inst(tmp_path, single_block_instance(1, (1, 0), (0, 0)))
        assert cli.main(["solve", inst_path]) == 3
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_unsupported_parameters_exit_code(self, tmp_path):
        inst_path = write_inst(tmp_path, single_block_instance(1, (1, 0), (1, 0), epsilon=1))
        assert cli.main(["solve", inst_path]) == 4
        assert cli.main(["check-unique", inst_path]) == 4

    def test_verify_reports_violations(self, tmp_path, capsys):
        inst = make_exact_instance(BinaryImage.zeros(4, 4), 2)
        inst_path = write_inst(tmp_path, inst)
        img_path = write_img(tmp_path, BinaryImage.from_ones(4, 4, [(2, 2)]))
        assert cli.main(["verify", inst_path, img_path]) == 3
        out = capsys.readouterr().out
        assert "row 2" in out and "column 2" in out and "block (1,1)" in out

    def test_missing_file_usage_error(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "nope.nsr")]) == 2

    def test_malformed_instance_usage_error(self, tmp_path):
        bad = tmp_path / "bad.nsr"
        bad.write_text("NSR 2\n")
        assert cli.main(["solve", str(bad)]) == 2


class TestCheckUnique:
    def test_unique_and_not(self, tmp_path, capsys):
        unique_path = write_inst(tmp_path, single_block_instance(2, (2, 0), (1, 1)), "u.nsr")
        assert cli.main(["check-unique", unique_path]) == 0
        assert "UNIQUE" in capsys.readouterr().out
        multi_path = write_inst(tmp_path, single_block_instance(2, (1, 1), (1, 1)), "m.nsr")
        assert cli.main(["check-unique", multi_path]) == 0
        assert "NON-UNIQUE" in capsys.readouterr().out


class TestGenerators:
    def test_gen_phantom_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.pbm"), str(tmp_path / "b.pbm")
        args = ["gen-phantom", "-m", "8", "-n", "6", "--density", "0.4", "--seed", "5"]
        assert cli.main(args + ["-o", a]) == 0
        assert cli.main(args + ["-o", b]) == 0
        assert (tmp_path / "a.pbm").read_bytes() == (tmp_path / "b.pbm").read_bytes()

    def test_degrade_and_make_instance(self, tmp_path):
        img = random_image(6, 6, 0.5, 2)
        img_path = write_img(tmp_path, img)
        gray_path = str(tmp_path / "g.pgm")
        assert cli.main(["degrade", img_path, "-o", gray_path]) == 0
        assert (tmp_path / "g.pgm").read_bytes().startswith(b"P2\n3 3\n4\n")
        inst_path = str(tmp_path / "made.nsr")
        assert cli.main(["make-instance", img_path, "-o", inst_path]) == 0
        inst = formats.parse_instance((tmp_path / "made.nsr").read_text())
        assert verify_solution(inst, img).satisfied

    def test_perturb_round_trip(self, tmp_path):
        inst = make_exact_instance(random_image(8, 8, 0.4, 3), 2)
        inst_path = write_inst(tmp_path, inst)
        out_path = str(tmp_path / "noisy.nsr")
        args = ["perturb", inst_path, "--eps", "1", "--fraction", "0.5", "--seed", "7",
                "-o", out_path]
        assert cli.main(args) == 0
        noisy = formats.parse_instance((tmp_path / "noisy.nsr").read_text())
        assert noisy.epsilon == 1
        assert len(noisy.reliable) == 16 - 8

    @pytest.mark.parametrize("eps, fraction", [(0, 0.5), (2, 0), (2, 0.3), (3, 1)])
    def test_perturb_builds_no_view(self, tmp_path, monkeypatch, eps, fraction):
        inst_path = write_inst(tmp_path, make_exact_instance(random_image(12, 8, 0.4, 5), 2))
        seen = []  # the instances perturb_instance got and gave

        def recorded(given, *args):
            seen.extend((given, perturb_instance(given, *args)))
            return seen[-1]

        monkeypatch.setattr(cli, "perturb_instance", recorded)
        out = tmp_path / "noisy.nsr"
        argv = ["perturb", inst_path, "--eps", str(eps), "--fraction", str(fraction), "--seed", "4"]
        assert cli.main(argv + ["-o", str(out)]) == 0
        # the tuple views are kept in an instance's __dict__ once built
        assert len(seen) == 2 and all({"blocks", "reliable"}.isdisjoint(vars(x)) for x in seen)
        parsed = formats.parse_instance(Path(inst_path).read_text())
        want = perturb_instance(dataclasses.replace(parsed, epsilon=eps), fraction, 4)
        assert out.read_text() == formats.write_instance(want)


    @pytest.mark.parametrize(
        "argv",
        [
            ["degrade", "{img}", "-k", "0"],
            ["degrade", "{img}", "-k", "-2"],
            ["make-instance", "{img}", "-k", "0"],
            ["make-instance", "{img}", "-k", "1"],
            ["perturb", "{inst}", "--eps", "-1", "--fraction", "0"],
            ["perturb", "{inst}", "--eps", "-1", "--fraction", "0.5"],
            ["gen-phantom", "-m", "0", "-n", "4"],
            ["gen-phantom", "-m", "4", "-n", "-2"],
        ],
    )
    def test_rejected_parameters_write_nothing(self, tmp_path, capsys, argv):
        # each of these once wrote a document that the next command rejects,
        # or died with a traceback
        paths = {
            "img": write_img(tmp_path, random_image(4, 4, 0.5, 1)),
            "inst": write_inst(tmp_path, make_exact_instance(random_image(4, 4, 0.5, 1), 2)),
        }
        out = tmp_path / "out.txt"
        argv = [a.format(**paths) for a in argv] + ["-o", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("density", ["1.5", "-0.5", "nan"])
    def test_density_outside_unit_interval_writes_nothing(self, tmp_path, capsys, density):
        out = tmp_path / "phantom.pbm"
        argv = ["gen-phantom", "-m", "4", "-n", "4", "--density", density, "-o", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: density must be in [0, 1]")
        assert not out.exists()

class TestSatCommands:
    def test_gen_embed_extract_pipeline(self, tmp_path, capsys):
        sat_path = tmp_path / "demo.sat"
        sat_path.write_text(DEMO_SAT_TEXT)
        inst_path = str(tmp_path / "board.nsr")
        assert cli.main(["gen-sat", str(sat_path), "-o", inst_path]) == 0
        layout = json.loads((tmp_path / "board.layout.json").read_text())
        assert layout["side"] == 34
        img_path = str(tmp_path / "board.pbm")
        assert cli.main(["embed", str(sat_path), "--assign", "TTFF", "-o", img_path]) == 0
        assert cli.main(["verify", inst_path, img_path]) == 0
        capsys.readouterr()
        assert cli.main(["extract", str(sat_path), img_path]) == 0
        assert capsys.readouterr().out.strip() == "TTFF"

    def test_embed_unsatisfying(self, tmp_path, capsys):
        sat_path = tmp_path / "demo.sat"
        sat_path.write_text(DEMO_SAT_TEXT)
        assert cli.main(["embed", str(sat_path), "--assign", "TTTT"]) == 3
        assert "UNSATISFYING" in capsys.readouterr().out

    def test_bad_assignment_string(self, tmp_path):
        sat_path = tmp_path / "demo.sat"
        sat_path.write_text(DEMO_SAT_TEXT)
        assert cli.main(["embed", str(sat_path), "--assign", "TX"]) == 2

    def test_malformed_formula_usage_error(self, tmp_path, capsys):
        sat_path = tmp_path / "bad.sat"
        sat_path.write_text("p 1in3 4 1\np 1in3 4 1\n1 -2 3\n")
        assert cli.main(["gen-sat", str(sat_path)]) == 2
        assert capsys.readouterr().err == "error: line 2: repeated 'p 1in3' header\n"

    @pytest.mark.parametrize("command", ["gen-sat", "embed", "extract"])
    def test_formula_without_clause_usage_error(self, tmp_path, capsys, command):
        sat_path = tmp_path / "empty.sat"
        sat_path.write_text("p 1in3 3 0\n")
        extra = {"gen-sat": [], "embed": ["--assign", "TFF"], "extract": [str(tmp_path / "board.pbm")]}
        assert cli.main([command, str(sat_path), *extra[command]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: a formula with no clause has no gadget board\n"

    def test_extract_from_padded_image_usage_error(self, tmp_path, capsys):
        sat_path = tmp_path / "demo.sat"
        sat_path.write_text(DEMO_SAT_TEXT)
        img_path = str(tmp_path / "board.pbm")
        assert cli.main(["embed", str(sat_path), "--assign", "TTFF", "-o", img_path]) == 0
        img = formats.read_image((tmp_path / "board.pbm").read_bytes())
        padded = BinaryImage(np.pad(img.a, ((0, 6), (0, 6))))
        padded_path = write_img(tmp_path, padded, "padded.pbm")
        assert cli.main(["extract", str(sat_path), padded_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: image is 40x40")


class TestLiftOracleTv:
    def test_lift(self, tmp_path):
        inst_path = write_inst(tmp_path, single_block_instance(2, (1, 1), (2, 0)))
        out_path = str(tmp_path / "lifted.nsr")
        assert cli.main(["lift", inst_path, "-k", "4", "-o", out_path]) == 0
        lifted = formats.parse_instance((tmp_path / "lifted.nsr").read_text())
        assert lifted.k == 4 and lifted.row_sums == (1, 1, 0, 0)

    def test_oracle_solve_and_count(self, tmp_path, capsys):
        inst_path = write_inst(tmp_path, single_block_instance(2, (1, 1), (1, 1)))
        out_path = str(tmp_path / "o.pbm")
        assert cli.main(["oracle", inst_path, "-o", out_path]) == 0
        assert cli.main(["oracle", inst_path, "--count"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_oracle_infeasible(self, tmp_path):
        inst_path = write_inst(tmp_path, single_block_instance(1, (1, 0), (0, 0)))
        assert cli.main(["oracle", inst_path]) == 3

    def test_oracle_budget_hit_is_undecided(self, tmp_path, capsys):
        inst_path = write_inst(tmp_path, make_exact_instance(random_image(8, 8, 0.5, 3), 2))
        assert cli.main(["oracle", inst_path, "--max-nodes", "1"]) == 5
        captured = capsys.readouterr()
        assert "UNDECIDED (budget hit)" in captured.err and captured.out == ""

    def test_oracle_count_lower_bound_is_undecided(self, tmp_path, capsys):
        inst_path = write_inst(tmp_path, make_exact_instance(random_image(8, 8, 0.5, 3), 2))
        assert cli.main(["oracle", inst_path, "--count", "--max-nodes", "1"]) == 5
        assert capsys.readouterr().out.strip() == ">= 0 (budget hit)"
        limited = write_inst(tmp_path, single_block_instance(2, (1, 1), (1, 1)), "two.nsr")
        assert cli.main(["oracle", limited, "--count", "--limit", "1"]) == 5
        assert capsys.readouterr().out.strip() == ">= 1 (budget hit)"

    def test_oracle_help_lists_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["oracle", "--help"])
        assert "5 undecided" in capsys.readouterr().out

    def test_tv_reduce_rejects_odd_block_size(self, tmp_path, capsys):
        img = random_image(6, 6, 0.5, 5)
        inst_path = write_inst(tmp_path, make_exact_instance(img, 3))
        img_path = write_img(tmp_path, img)
        out_path = tmp_path / "tv.pbm"
        assert cli.main(["tv-reduce", inst_path, img_path, "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert "even block size" in captured.err
        assert captured.out == ""
        assert not out_path.exists()

    def test_tv_reduce_rejects_image_that_does_not_solve(self, tmp_path, capsys):
        inst_path = write_inst(tmp_path, make_exact_instance(random_image(8, 8, 0.5, 4), 2))
        img_path = write_img(tmp_path, random_image(8, 8, 0.5, 5))
        out_path = tmp_path / "tv.pbm"
        assert cli.main(["tv-reduce", inst_path, img_path, "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert "does not solve" in captured.err
        assert captured.out == ""
        assert not out_path.exists()

    def test_tv_reduce_prints_trace(self, tmp_path, capsys):
        img = random_image(8, 8, 0.5, 4)
        inst = make_exact_instance(img, 2)
        inst_path = write_inst(tmp_path, inst)
        img_path = write_img(tmp_path, img)
        out_path = str(tmp_path / "tv.pbm")
        assert cli.main(["tv-reduce", inst_path, img_path, "-o", out_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("tv ")
        final = formats.read_image((tmp_path / "tv.pbm").read_bytes())
        assert verify_solution(inst, final).satisfied

"""Command-line behaviour: outputs, formats, exit codes."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lucaskit import cli, lucas
from lucaskit.polyring import NotDivisible, Poly2
from lucaskit.shapes_tilings import Binomial, count_tilings, partial_from_tiling, staircase, Tiling


# A partial of Binomial(10^9, 1) with no rows: its shape would have 10^9 - 1 of them.
HUGE_ROWLESS_PARTIAL = {"variant": {"kind": "binomial", "n": 10**9, "k": 1}, "rows": [], "start": [1, 0], "path": ""}


# The digits of 10^5000: 5,001 of them, past Python's 4,300-digit int-to-str limit.
HUGE_DIGITS = "1" + "0" * 5000


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(autouse=True)
def digit_limit_kept():
    """Every command leaves Python's int-to-str digit limit as it found it: 4,300 digits."""
    assert sys.get_int_max_str_digits() == 4300
    yield
    assert sys.get_int_max_str_digits() == 4300


class TestComputeCommands:
    def test_lucasnomial_pretty(self, capsys):
        code, out = run(capsys, "lucasnomial", "--n", "4", "--k", "2")
        assert code == 0
        assert out.strip() == "s^4 + 3*s^2*t + 2*t^2"

    def test_catalan_zero(self, capsys):
        code, out = run(capsys, "catalan", "--n", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "lucas", "--n", "6", "--format", "json")
        assert code == 0
        from lucaskit.lucas import lucas

        assert Poly2.from_json_dict(json.loads(out)) == lucas(6)
        # pretty text survives the round trip
        assert Poly2.from_json_dict(json.loads(out)).pretty() == lucas(6).pretty()

    def test_csv(self, capsys):
        code, out = run(capsys, "lucas", "--n", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["s,t,c", "3,0,1", "1,1,2"]

    def test_coxeter(self, capsys):
        code, out = run(capsys, "coxeter", "--type", "I2", "--m", "5")
        assert code == 0
        code2, out2 = run(capsys, "coxeter", "--type", "B", "--n", "2", "--fuss-k", "2")
        assert code2 == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--type", "A", "--n", "3", "--fuss-k", "0"], "need k >= 1"),
            (["--type", "H3", "--n", "3"], "H3 takes no parameter"),
            (["--type", "H3", "--m", "3"], "--type H3 takes no --m"),
            (["--type", "A", "--n", "3", "--m", "5"], "--type A takes no --m"),
            (["--type", "I2", "--m", "5", "--n", "4"], "--type I2 takes no --n"),
        ],
        ids=["fuss-k-0", "exceptional-rank", "exceptional-m", "A-with-m", "I2-with-n"],
    )
    def test_coxeter_refuses_flags_that_do_not_apply(self, capsys, argv, message):
        assert cli.main(["coxeter", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_coxeter_fuss_k_agrees_with_analyze(self, capsys):
        assert cli.main(["coxeter", "--type", "B", "--n", "3", "--fuss-k", "1"]) == 0
        assert cli.main(["coxeter", "--type", "B", "--n", "3"]) == 0
        fuss_one, plain = capsys.readouterr().out.splitlines()
        assert fuss_one == plain
        assert cli.main(["analyze", "--expr", "coxeter:A:3:0"]) == 1

    def test_dlucasnomial(self, capsys):
        code, out = run(capsys, "dlucasnomial", "--n", "2", "--k", "1", "--d", "2")
        assert code == 0
        assert out.strip() == "s^2 + 2*t"

    def test_rational_usage_error(self, capsys):
        code = cli.main(["rational", "--a", "4", "--b", "6"])
        assert code == 1

    def test_missing_subcommand(self):
        assert cli.main([]) == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "poly.txt"
        code = cli.main(["lucas", "--n", "4", "--out", str(target)])
        assert code == 0
        assert target.read_text().strip() == "s^3 + 2*s*t"


class TestVerifyCommands:
    def test_recursion(self, capsys):
        code, out = run(capsys, "verify", "recursion", "--max-n", "8")
        assert code == 0
        assert "pass" in out

    def test_cheby(self, capsys):
        code, out = run(capsys, "verify", "cheby", "--max-n", "12")
        assert code == 0

    def test_involution_single_type(self, capsys):
        code, out = run(capsys, "verify", "involution", "--n", "4", "--k", "2", "--r", "1")
        assert code == 0
        assert "pass" in out

    def test_involution_subcommand_spelling(self, capsys):
        code, out = run(capsys, "involution", "verify", "--n", "4", "--k", "2", "--r", "1")
        assert code == 0

    @pytest.mark.parametrize(
        "what, summary",
        [("recursion", "recursion: 0/0 pass"), ("cheby", "cheby: 0/0 pass"), ("symmetry", "symmetry: 1/1 pass")],
    )
    def test_zero_bound_is_not_the_default(self, capsys, what, summary):
        code, out = run(capsys, "verify", what, "--max-n", "0")
        assert code == 0
        assert out == summary + "\n"

    def test_involution_zero_bound(self, capsys):
        code, out = run(capsys, "verify", "involution", "--max-n", "0")
        assert code == 0
        assert out == "involution (0,0,0): pass [1 objects]\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "cheby", "--max-n", "-2"], "--max-n"),
            (["verify", "recursion", "--max-n", "-1"], "--max-n"),
            (["verify", "fuss-id", "--max-k", "-1"], "--max-k"),
            (["verify", "genCatD", "--max-d", "-3"], "--max-d"),
            (["verify", "involution", "--max-n", "-1"], "--max-n"),
            (["involution", "verify", "--max-n", "-1"], "--max-n"),
        ],
    )
    def test_negative_bound_refused(self, capsys, argv, flag):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 0\n"

    @pytest.mark.parametrize("command", [["involution", "verify"], ["verify", "involution"]], ids=" ".join)
    @pytest.mark.parametrize(
        "flags, missing",
        [
            (["--n", "3", "--k", "2"], "--r"),
            (["--n", "3"], "--k, --r"),
            (["--k", "1", "--r", "0"], "--n"),
        ],
    )
    def test_partial_involution_type_refused(self, capsys, command, flags, missing):
        assert cli.main([*command, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: one involution type needs --n, --k and --r; missing {missing}\n"

    @pytest.mark.parametrize("command", [["involution", "verify"], ["verify", "involution"]], ids=" ".join)
    def test_sweep_bound_with_one_type_refused(self, capsys, command):
        assert cli.main([*command, "--n", "3", "--k", "2", "--r", "1", "--max-n", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-n bounds the sweep over every type; give it without --n, --k and --r\n"

    @pytest.mark.parametrize("command", [["involution", "verify"], ["verify", "involution"]], ids=" ".join)
    def test_invalid_involution_type_refused(self, capsys, command):
        assert cli.main([*command, "--n", "3", "--k", "4", "--r", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need 0 <= r <= k <= n\n"

    @pytest.mark.parametrize("command", [["involution", "verify"], ["verify", "involution"]], ids=" ".join)
    def test_involution_refuses_past_the_reach_before_any_work(self, capsys, monkeypatch, command):
        def verified(n, k, r):
            raise AssertionError("verified a type of a refused check")

        monkeypatch.setattr(cli.involution, "verify_involution", verified)
        # No type is listed, so a sweep to 10^9 is refused as fast as one to 18.
        for argv in (["--max-n", "18"], ["--max-n", str(10**9)], ["--n", "18", "--k", "9", "--r", "0"]):
            start = time.perf_counter()
            assert cli.main([*command, *argv]) == 1
            assert time.perf_counter() - start < 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: n = {argv[1]}; the involution check proves levels up to n = 17\n"

    @pytest.mark.parametrize("command", [["involution", "verify"], ["verify", "involution"]], ids=" ".join)
    def test_involution_reach_admits_n_17(self, capsys, monkeypatch, command):
        from lucaskit.involution import InvolutionReport

        def verified(n, k, r):
            return InvolutionReport(n, k, r, 1, 1, Poly2.one(), Poly2.one(), Poly2.one(), Poly2.one())

        monkeypatch.setattr(cli.involution, "verify_involution", verified)
        assert cli.levels.MAX_LEVEL_N == 17
        code, out = run(capsys, *command, "--n", "17", "--k", "9", "--r", "2")
        assert (code, out) == (0, "involution (17,9,2): pass [1 objects]\n")
        code, out = run(capsys, *command, "--max-n", "17")
        assert code == 0 and len(out.splitlines()) == 1140

    def test_failure_exit_code(self, capsys, monkeypatch):
        # force a failing report through the formatting path
        from lucaskit.involution import InvolutionReport

        def fake(n, k, r):
            return InvolutionReport(
                n, k, r, 0, 0, Poly2.zero(), Poly2.zero(), Poly2.zero(), Poly2.zero(),
                failures=["forced"],
            )

        monkeypatch.setattr(cli.involution, "verify_involution", fake)
        code, out = run(capsys, "verify", "involution", "--n", "4", "--k", "2", "--r", "1")
        assert code == 2
        assert "forced" in out

    def test_gcd_lemma(self, capsys):
        code, out = run(capsys, "verify", "gcd-lemma", "--max-n", "6")
        assert code == 0
        assert out.strip() == "gcd-lemma: 36/36 pass"

    def test_theorem_guard_exit_code(self, capsys, monkeypatch):
        def violated(m, n):
            raise AssertionError(f"{{{m}}} should divide {{{n}}}")

        monkeypatch.setattr(cli, "lucas_divides", violated)
        assert cli.main(["verify", "hoggatt-long", "--max-n", "3"]) == 2
        assert capsys.readouterr().err == "error: {1} should divide {1}\n"

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        def counterexample(n, k):
            raise NotDivisible("nonzero remainder")

        monkeypatch.setattr(cli.coxcat, "narayana", counterexample)
        assert cli.main(["narayana", "--n", "4", "--k", "2"]) == 2
        assert capsys.readouterr().err == "error: nonzero remainder\n"


class TestTilings:
    def test_enumerate(self, capsys):
        code, out = run(capsys, "tilings", "enumerate", "--shape", "delta:4")
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 6"

    def test_partition(self, capsys):
        code, out = run(
            capsys, "tilings", "partition", "--variant", "binomial", "--n", "4", "--k", "2"
        )
        assert code == 0
        assert "ok" in out

    def test_partition_json(self, capsys):
        code, out = run(
            capsys, "tilings", "partition", "--variant", "catalan", "--n", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_partition_reports_a_bad_class(self, capsys, monkeypatch):
        right = Binomial.divisor
        monkeypatch.setattr(Binomial, "divisor", lambda self: right(self) + Poly2.one())
        code, out = run(capsys, "tilings", "partition", "--variant", "binomial", "--n", "5", "--k", "2")
        assert code == 2
        lines = out.splitlines()
        assert lines[-1] == "FAILED"
        assert lines[5:-1] and all(line.startswith("FAIL: block of path ") for line in lines[5:-1])

    def test_render_shape_ascii(self, capsys):
        code, out = run(capsys, "tilings", "render", "--shape", "ddelta:3:2")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_enumerate_refuses_a_huge_shape_before_any_work(self, capsys, monkeypatch):
        def enumerated(shape):
            raise AssertionError("enumerated a refused shape")

        monkeypatch.setattr(cli.shapes_tilings, "enumerate_tilings", enumerated)
        assert cli.main(["tilings", "enumerate", "--shape", "delta:12"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 1570247078400 tilings; enumerate lists at most 10000000\n"

    def test_enumerate_counts_a_refused_shape_without_listing_a_row(self, capsys, monkeypatch):
        def listed(m):
            raise AssertionError(f"listed the tilings of a {m}-cell row")

        monkeypatch.setattr(cli.shapes_tilings, "row_tilings", listed)
        # A row of m cells has F_{m+1} = {m+1}(1, 1) tilings; delta_40's rows hold 1..39 cells.
        count = 1
        for m in range(1, 40):
            count *= lucas.lucas(m + 1).evaluate(1, 1)
        assert cli.main(["tilings", "enumerate", "--shape", "delta:40"]) == 1
        assert capsys.readouterr().err == f"error: {count} tilings; enumerate lists at most 10000000\n"

    @pytest.mark.parametrize("command", ["enumerate", "render"])
    @pytest.mark.parametrize(
        "spec, cells",
        [
            ("delta:204", 20_706),
            ("delta:205", 20_910),
            ("ddelta:300:2", 90_000),
            ("skew:100000", 100_000),
            ("skew:100000/99999", 100_000),
            ("delta:6000", 17_997_000),
            ("delta:1000000000", 499_999_999_500_000_000),
        ],
    )
    def test_a_shape_past_the_cell_bound_is_refused_unbuilt(self, capsys, monkeypatch, command, spec, cells):
        def built(*args):
            raise AssertionError("built a refused shape")

        for name in ("staircase", "d_staircase", "Shape"):
            monkeypatch.setattr(cli.shapes_tilings, name, built)
        start = time.perf_counter()
        assert cli.main(["tilings", command, "--shape", spec]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the outer shape has {cells} cells; at most 20000 are read\n"

    @pytest.mark.parametrize(
        "flags, cells",
        [
            ("catalan --n 13", 25),
            ("binomial --n 25 --k 12", 24),
            ("fuss --n 8 --k 3", 31),
            ("ddivisible --n 9 --k 4 --d 3", 26),
            (f"binomial --n {10**9} --k 1", 10**9 - 1),
        ],
    )
    def test_a_partition_past_the_row_bound_is_refused_unbuilt(self, capsys, monkeypatch, flags, cells):
        def built(*args):
            raise AssertionError("built a refused variant's shape or partition")

        for name in ("staircase", "d_staircase", "Shape", "verify_block_partition"):
            monkeypatch.setattr(cli.shapes_tilings, name, built)
        start = time.perf_counter()
        assert cli.main(["tilings", "partition", "--variant", *flags.split()]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the longest row has {cells} cells; partition folds rows of at most 23\n"

    @pytest.mark.parametrize("flags", ["catalan --n 12", "binomial --n 24 --k 12", "ddivisible --n 8 --k 4 --d 3"])
    def test_the_row_bound_admits_a_row_of_23_cells(self, capsys, monkeypatch, flags):
        def partitioned(variant):
            raise AssertionError(f"partitioning {variant!r}")

        monkeypatch.setattr(cli.shapes_tilings, "verify_block_partition", partitioned)
        assert cli.main(["tilings", "partition", "--variant", *flags.split()]) == 2
        assert capsys.readouterr().err.startswith("error: partitioning ")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("delta:-1000", "negative staircase index"),
            ("ddelta:-1000:2", "need n >= 0 and d >= 1"),
            ("ddelta:300:-2", "need n >= 0 and d >= 1"),
        ],
    )
    def test_a_negative_shape_keeps_its_refusal(self, capsys, spec, message):
        for command in ("enumerate", "render"):
            assert cli.main(["tilings", command, "--shape", spec]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("spec", ["ddelta:3", "ddelta:3:2:1", "delta:", "delta:3:4", "delta:2.5", "skew:3.x"])
    def test_a_malformed_shape_spec_is_refused_by_its_grammar(self, capsys, spec):
        for command in ("enumerate", "render"):
            assert cli.main(["tilings", command, "--shape", spec]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: malformed shape spec {spec!r} (want delta:n, ddelta:n:d or skew:...)\n"

    def test_the_cell_bound_admits_delta_200_with_its_exact_count(self, capsys):
        # delta_200's rows hold 1..199 cells, and a row of m cells has F_{m+1} tilings.
        count, fib, next_fib = 1, 1, 1
        for _ in range(199):
            fib, next_fib = next_fib, fib + next_fib
            count *= fib
        assert len(str(count)) < 4300
        assert cli.main(["tilings", "enumerate", "--shape", "delta:200"]) == 1
        assert capsys.readouterr().err == f"error: {count} tilings; enumerate lists at most 10000000\n"
        # The most a shape may hold, on one row: its count still prints.
        assert cli.main(["tilings", "enumerate", "--shape", f"skew:{cli.MAX_SHAPE_CELLS}"]) == 1
        assert capsys.readouterr().err.endswith(f" tilings; enumerate lists at most {cli.MAX_ENUMERATED_TILINGS}\n")

    def test_enumerate_bound_admits_delta_9_not_delta_10(self):
        assert count_tilings(staircase(9)) == 2_227_680 <= cli.MAX_ENUMERATED_TILINGS
        assert count_tilings(staircase(10)) == 122_522_400 > cli.MAX_ENUMERATED_TILINGS

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_enumerate_refuses_past_the_bound(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "MAX_ENUMERATED_TILINGS", 6)
        code, out = run(capsys, "tilings", "enumerate", "--shape", "delta:4", "--format", fmt)
        assert code == 0 and out
        code, out = run(capsys, "tilings", "enumerate", "--shape", "delta:5", "--format", fmt)
        assert (code, out) == (1, "")

    def test_skew_shape_spec(self, capsys):
        code, out = run(capsys, "tilings", "enumerate", "--shape", "skew:3.1/2")
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 1"

    @pytest.mark.parametrize(
        "variant",
        [
            {"kind": "binomial", "n": "4", "k": 1},
            {"kind": "binomial", "n": 4.0, "k": 1},
            {"kind": "binomial", "n": 4, "k": True},
            {"kind": "binomial", "n": 4, "k": 1, "d": 1},
            "binomial",
        ],
        ids=["str", "float", "bool", "extra-key", "bare-kind"],
    )
    def test_render_rejects_malformed_variant(self, capsys, tmp_path, variant):
        tiling = Tiling(staircase(4), ((2, 1), (2,), (1,)))
        data = partial_from_tiling(tiling, Binomial(4, 1)).to_json_dict()
        source = tmp_path / "partial.json"
        source.write_text(json.dumps({**data, "variant": variant}))
        assert cli.main(["tilings", "render", "--input", str(source)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_render_refuses_too_few_rows_before_building_the_shape(self, capsys, tmp_path):
        source = tmp_path / "partial.json"
        source.write_text(json.dumps(HUGE_ROWLESS_PARTIAL))
        start = time.perf_counter()
        assert cli.main(["tilings", "render", "--input", str(source)]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "error: 0 rows for a shape with at least 999999999\n"

    def test_render_partial_svg(self, capsys, tmp_path):
        tiling = Tiling(staircase(6), ((1, 1, 2, 1), (2, 1, 1), (1, 2), (1, 1), (1,)))
        partial = partial_from_tiling(tiling, Binomial(6, 3))
        source = tmp_path / "partial.json"
        source.write_text(json.dumps(partial.to_json_dict()))
        code, out = run(capsys, "tilings", "render", "--input", str(source), "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and "polyline" in out


class TestInvolutionCli:
    def test_apply_refuses_too_few_rows_before_building_the_shape(self, capsys, tmp_path):
        source = tmp_path / "extended.json"
        source.write_text(json.dumps({"B": HUGE_ROWLESS_PARTIAL, "strips": []}))
        start = time.perf_counter()
        assert cli.main(["involution", "apply", "--input", str(source)]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "error: 0 rows for a shape with at least 999999999\n"

    def test_apply(self, capsys, tmp_path):
        from lucaskit.shapes_tilings import partial_from_fixed
        from lucaskit.involution import ExtendedTiling

        partial = partial_from_fixed(
            Binomial(7, 5),
            (((5, (2,)),), ((4, (2,)),), ((1, (2, 1)),), ((1, (1, 2)),), (), ()),
        )
        extended = ExtendedTiling(partial, ((1, 2, 1), (2, 1)))
        source = tmp_path / "extended.json"
        source.write_text(json.dumps(extended.to_json_dict()))
        code, out = run(capsys, "involution", "apply", "--input", str(source), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"] == ["d", "c", "b", "a", "c", "d", "d"]
        assert payload["result"]["B"]["start"] == [4, 0]


class TestFindings:
    def test_narayana_lines(self, capsys):
        code, out = run(capsys, "findings", "narayana", "--max-n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 15
        assert all(json.loads(line)["status"] == "pass" for line in lines)

    @pytest.mark.parametrize("conjecture", list(cli.FINDINGS))
    def test_each_sweep_gets_its_bound(self, capsys, monkeypatch, conjecture):
        sweep, flag, default = cli.FINDINGS[conjecture]
        seen = []
        monkeypatch.setattr(cli.coxcat, sweep, lambda bound: seen.append(bound) or [])
        assert cli.main(["findings", conjecture]) == 0
        assert cli.main(["findings", conjecture, f"--{flag.replace('_', '-')}", "2"]) == 0
        assert seen == [default, 2]


    @pytest.mark.parametrize("conjecture", list(cli.FINDINGS))
    def test_zero_bound_is_not_the_default(self, capsys, monkeypatch, conjecture):
        sweep, flag, _ = cli.FINDINGS[conjecture]
        seen = []
        monkeypatch.setattr(cli.coxcat, sweep, lambda bound: seen.append(bound) or [])
        assert cli.main(["findings", conjecture, f"--{flag.replace('_', '-')}", "0"]) == 0
        assert seen == [0]

    @pytest.mark.parametrize("conjecture", list(cli.FINDINGS))
    def test_negative_bound_refused(self, capsys, monkeypatch, conjecture):
        sweep, flag, _ = cli.FINDINGS[conjecture]
        monkeypatch.setattr(cli.coxcat, sweep, lambda bound: pytest.fail("sweep ran"))
        option = f"--{flag.replace('_', '-')}"
        assert cli.main(["findings", conjecture, option, "-1"]) == 1
        assert capsys.readouterr().err == f"error: {option} must be >= 0\n"

    @pytest.mark.parametrize("conjecture", list(cli.FINDINGS))
    def test_empty_sweep_prints_nothing(self, capsys, conjecture):
        _, flag, _ = cli.FINDINGS[conjecture]
        code, out = run(capsys, "findings", conjecture, f"--{flag.replace('_', '-')}", "0")
        assert code == 0
        assert out == ""


class TestAnalyzeCli:
    def test_pretty(self, capsys):
        code, out = run(capsys, "analyze", "--expr", "lucasnomial:4:2")
        assert code == 0
        assert "real-rooted: True" in out

    def test_csv(self, capsys):
        code, out = run(capsys, "analyze", "--expr", "catalan:3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k,a_k"

    def test_coxeter_expr(self, capsys):
        code, out = run(capsys, "analyze", "--expr", "coxeter:H3", "--format", "json")
        assert code == 0
        assert json.loads(out)["real_rooted"] is True

    def test_unknown_expr(self, capsys):
        assert cli.main(["analyze", "--expr", "nonsense:3"]) == 1

    @pytest.mark.parametrize("expr", ["lucasnomial:6", "coxeter:B", "lucas:5:7", "coxeter:H3:1:2"])
    def test_wrong_arity(self, capsys, expr):
        assert cli.main(["analyze", "--expr", expr]) == 1
        assert capsys.readouterr().err.startswith(f"error: {expr!r}: want ")


class TestComputedDigits:
    """A computed value prints in full past Python's int-to-str limit; an input document keeps the limit."""

    @pytest.fixture(autouse=True)
    def huge_lucastorial(self, monkeypatch):
        monkeypatch.setattr(lucas, "lucastorial", lambda n: Poly2.monomial(2, 1, 10**5000))

    @pytest.mark.parametrize("command", [["lucastorial", "--n", "3"], ["analyze", "--expr", "lucastorial:3"]], ids=" ".join)
    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_prints_every_digit(self, capsys, command, fmt):
        code, out = run(capsys, *command, "--format", fmt)
        assert code == 0
        assert re.findall(r"\d{4301,}", out) == [HUGE_DIGITS]

    def test_quantity_outputs(self, capsys):
        assert run(capsys, "lucastorial", "--n", "3") == (0, f"{HUGE_DIGITS}*s^2*t\n")
        assert run(capsys, "lucastorial", "--n", "3", "--format", "csv") == (0, f"s,t,c\n2,1,{HUGE_DIGITS}\n")
        code, out = run(capsys, "lucastorial", "--n", "3", "--format", "json")
        assert (code, json.loads(out)) == (0, {"terms": [{"s": 2, "t": 1, "c": HUGE_DIGITS}]})

    def test_limit_is_restored_when_formatting_fails(self, capsys, monkeypatch):
        def refused(self):
            raise ValueError("refused")

        monkeypatch.setattr(Poly2, "pretty", refused)
        assert cli.main(["lucastorial", "--n", "3"]) == 1
        assert capsys.readouterr().err == "error: refused\n"

    def test_input_documents_keep_the_limit(self, capsys, tmp_path):
        document = tmp_path / "huge.json"
        document.write_text('{"shape": {"outer": [' + "9" * 5000 + "]}, \"rows\": []}")
        assert cli.main(["tilings", "render", "--input", str(document)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Exceeds the limit (4300 digits) for integer string conversion")


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, first = run(capsys, "tilings", "partition", "--variant", "binomial",
                       "--n", "5", "--k", "2", "--format", "json")
        _, second = run(capsys, "tilings", "partition", "--variant", "binomial",
                        "--n", "5", "--k", "2", "--format", "json")
        assert first == second


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        # A checkout runs the CLI as ``python -m lucaskit`` without installing it.
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "lucaskit", "narayana", "--n", "6", "--k", "3", "--format", "pretty"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        golden = (root / "tests" / "golden" / "narayana-n-6-k-3-format-pretty.txt").read_text()
        assert (done.returncode, f"exit 0\n{done.stdout}") == (0, golden), done.stderr

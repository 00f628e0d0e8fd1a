"""Command-line behaviour: outputs, formats, exit codes."""

import json

from lucaskit import cli
from lucaskit.polyring import NotDivisible, Poly2
from lucaskit.shapes_tilings import Binomial, partial_from_tiling, staircase, Tiling


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_render_shape_ascii(self, capsys):
        code, out = run(capsys, "tilings", "render", "--shape", "ddelta:3:2")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_skew_shape_spec(self, capsys):
        code, out = run(capsys, "tilings", "enumerate", "--shape", "skew:3.1/2")
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 1"

    def test_render_partial_svg(self, capsys, tmp_path):
        tiling = Tiling(staircase(6), ((1, 1, 2, 1), (2, 1, 1), (1, 2), (1, 1), (1,)))
        partial = partial_from_tiling(tiling, Binomial(6, 3))
        source = tmp_path / "partial.json"
        source.write_text(json.dumps(partial.to_json_dict()))
        code, out = run(capsys, "tilings", "render", "--input", str(source), "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and "polyline" in out


class TestInvolutionCli:
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


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, first = run(capsys, "tilings", "partition", "--variant", "binomial",
                       "--n", "5", "--k", "2", "--format", "json")
        _, second = run(capsys, "tilings", "partition", "--variant", "binomial",
                        "--n", "5", "--k", "2", "--format", "json")
        assert first == second

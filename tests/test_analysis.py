"""Coefficient-sequence diagnostics."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from oracles import fraction_analyze
from lucaskit.analysis import analyze, is_log_concave, is_unimodal
from lucaskit.coxcat import CoxeterType, coxeter_catalan, fuss_catalan, lucas_catalan
from lucaskit.lucas import lucas, lucasnomial
from lucaskit.polyring import NotWeightedHomogeneous, Poly2

S = Poly2.var_s()
T = Poly2.var_t()


def _bench_coxeter_types() -> list[CoxeterType]:
    """The benchmark's Coxeter types, read from bench/workloads.py without putting bench/ on sys.path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COXETER_TYPES


# The diagnostics workload's quantities, every benchmark Coxeter type, and Fuss-Catalan at k = 3.
SWEEP = (
    [(f"lucasnomial:{n}:{k}", lucasnomial, (n, k)) for n in range(1, 17) for k in range(n + 1)]
    + [(f"catalan:{n}", lucas_catalan, (n,)) for n in range(1, 9)]
    + [(f"coxeter:{w}", coxeter_catalan, (w,)) for w in _bench_coxeter_types()]
    + [(f"fuss:{n}:3", fuss_catalan, (n, 3)) for n in range(1, 7)]
)


class TestPredicates:
    def test_unimodal(self):
        assert is_unimodal((1, 3, 2))
        assert is_unimodal((1, 2, 3))
        assert is_unimodal((3, 1))
        assert not is_unimodal((2, 1, 2))

    def test_log_concave(self):
        assert is_log_concave((1, 3, 2))
        assert not is_log_concave((1, 1, 3))
        assert is_log_concave((5,))


class TestAnalyze:
    def test_lucasnomial_example(self):
        report = analyze(lucasnomial(4, 2))
        assert report.coeffs == (1, 3, 2)
        assert report.unimodal and report.log_concave and report.real_rooted

    def test_degree_zero(self):
        report = analyze(S)
        assert report.coeffs == (1,)
        assert report.unimodal and report.log_concave and report.real_rooted

    def test_catalan_three(self):
        report = analyze(lucas_catalan(3))
        assert report.coeffs == (1, 6, 10, 3)
        assert report.log_concave and report.real_rooted

    def test_mixed_weights_rejected(self):
        with pytest.raises(NotWeightedHomogeneous):
            analyze(S + T)

    def test_lucas_coefficients_are_diagonal_binomials(self):
        for n in range(2, 16):
            report = analyze(lucas(n))
            expected = []
            k = 0
            while n - 1 - 2 * k >= 0:
                expected.append(math.comb(n - 1 - k, k))
                k += 1
            assert list(report.coeffs) == expected

    def test_implication_chain(self):
        quantities = [lucas(n) for n in range(2, 15)]
        quantities += [lucasnomial(8, k) for k in range(9)]
        quantities += [lucas_catalan(n) for n in range(2, 6)]
        quantities += [coxeter_catalan(CoxeterType("B", 3)), coxeter_catalan(CoxeterType("H3"))]
        for p in quantities:
            report = analyze(p)
            assert all(c > 0 for c in report.coeffs)
            if report.real_rooted:
                assert report.log_concave
            if report.log_concave:
                assert report.unimodal

    def test_csv_export(self):
        text = analyze(lucasnomial(4, 2)).to_csv()
        assert text.splitlines()[0] == "k,a_k"
        assert text.splitlines()[1:] == ["0,1", "1,3", "2,2"]

    def test_json_fields(self):
        data = analyze(lucas(6)).to_json_dict()
        assert set(data) == {"weight", "coeffs", "unimodal", "log_concave", "real_rooted"}


class TestFractionChainSweep:
    """analyze() on the integer chain writes what it wrote on the Fraction chain."""

    @pytest.mark.parametrize("name, quantity, args", SWEEP, ids=[name for name, _, _ in SWEEP])
    def test_report_matches_oracle(self, name, quantity, args):
        p = quantity(*args)
        report, oracle = analyze(p).to_json_dict(), fraction_analyze(p).to_json_dict()
        assert list(report) == list(oracle)
        for field, value in oracle.items():
            assert report[field] == value, field
        assert json.dumps(report) == json.dumps(oracle)

"""Coefficient-sequence diagnostics."""

import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import bench_workloads, fraction_analyze, fraction_real_rooted, one_point_peel
from lucaskit import analysis
from lucaskit.analysis import analyze, is_log_concave, is_unimodal, peel_atoms
from lucaskit.coxcat import CoxeterType, coxeter_catalan, fuss_catalan, lucas_catalan
from lucaskit.lucas import lucas, lucas_atom, lucasnomial
from lucaskit.polyring import (
    CoeffSeq,
    NotDivisible,
    NotWeightedHomogeneous,
    Poly2,
    coeff_view,
    count_real_roots,
    real_rooted,
)

S = Poly2.var_s()
T = Poly2.var_t()


# The diagnostics workload's quantities, every benchmark Coxeter type, and Fuss-Catalan at k = 3.
SWEEP = (
    [(f"lucasnomial:{n}:{k}", lucasnomial, (n, k)) for n in range(1, 17) for k in range(n + 1)]
    + [(f"catalan:{n}", lucas_catalan, (n,)) for n in range(1, 9)]
    + [(f"coxeter:{w}", coxeter_catalan, (w,)) for w in bench_workloads().COXETER_TYPES]
    + [(f"fuss:{n}:3", fuss_catalan, (n, 3)) for n in range(1, 7)]
)
# Beyond the benchmark's quantities: the largest Fuss-Catalan the Sturm chains still decide in seconds.
BEYOND = [(f"fuss:{n}:3", fuss_catalan, (n, 3)) for n in range(7, 10)]


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
    """analyze() after the peel writes what the Fraction chain wrote on the undivided sequence."""

    @pytest.mark.parametrize("name, quantity, args", SWEEP + BEYOND, ids=[name for name, _, _ in SWEEP + BEYOND])
    def test_report_matches_oracle(self, name, quantity, args):
        p = quantity(*args)
        report, oracle = analyze(p).to_json_dict(), fraction_analyze(p).to_json_dict()
        assert list(report) == list(oracle)
        for field, value in oracle.items():
            assert report[field] == value, field
        assert json.dumps(report) == json.dumps(oracle)
        # The integer chain on the undivided sequence agrees too.
        assert report["real_rooted"] == real_rooted(coeff_view(p).generating_function())


def totients(bound: int) -> list[int]:
    """phi(d) for 0 <= d < bound, by a sieve over the primes."""
    phi = list(range(bound))
    for p in range(2, bound):
        if phi[p] == p:  # p is prime: no smaller prime has touched it
            for m in range(p, bound, p):
                phi[m] -= phi[m] // p
    return phi


def unpeeled(p: Poly2) -> tuple[dict[int, int], CoeffSeq, Poly2]:
    """peel_atoms on p, with the product of the atoms it found times what it left."""
    exponents, rest = peel_atoms(coeff_view(p))
    product = rest.to_poly2()
    for d, e in exponents.items():
        product = product * lucas_atom(d) ** e
    return exponents, rest, product


def peels_exactly(p: Poly2) -> bool:
    """The peel leaves a power of s, and the atoms it found times that power give p back."""
    _, rest, product = unpeeled(p)
    return rest.coeffs == (1,) and product == p


class TestPeel:
    """analyze() runs the Sturm chain only on what the Lucas atoms leave."""

    @pytest.mark.parametrize("d", range(3, 61))
    def test_every_atom_is_real_rooted(self, d):
        f = coeff_view(lucas_atom(d)).generating_function()
        assert real_rooted(f)
        assert count_real_roots(f) == f.degree() == totients(d + 1)[d] // 2

    def test_candidate_bound(self):
        # An atom that can divide h has phi(d)/2 <= deg h, so d < 7 phi(d) <= 14 deg h.
        phi = totients(10**5)
        assert all(d < 7 * phi[d] for d in range(1, 10**5))

    @pytest.mark.parametrize("name, quantity, args", SWEEP + BEYOND, ids=[name for name, _, _ in SWEEP + BEYOND])
    def test_lucas_quotients_peel_to_a_power_of_s(self, name, quantity, args):
        assert peels_exactly(quantity(*args))

    def test_not_real_rooted_after_the_atoms(self):
        p = lucas_catalan(4) * CoeffSeq(4, (1, 0, 1)).to_poly2()  # times 1 + y^2
        _, rest, product = unpeeled(p)
        assert rest.coeffs == (1, 0, 1) and product == p
        assert not analyze(p).real_rooted
        assert not real_rooted(coeff_view(p).generating_function())

    def test_square_of_an_atom(self):
        p = lucasnomial(7, 3) * CoeffSeq(4, (1, 2, 1)).to_poly2()  # times (1 + y)^2 = P_3^2
        exponents, rest, product = unpeeled(p)
        assert rest.coeffs == (1,) and product == p
        assert exponents[3] == unpeeled(lucasnomial(7, 3))[0].get(3, 0) + 2
        assert analyze(p).real_rooted

    def test_vanishing_at_one(self, monkeypatch):
        # 1 - y makes h(1) = 0, so the filter reads h at y0 = 2.
        points = []
        true_values = analysis.atom_values
        monkeypatch.setattr(analysis, "atom_values", lambda y0, bound: points.append(y0) or true_values(y0, bound))
        p = lucasnomial(6, 3) * CoeffSeq(2, (1, -1)).to_poly2()
        _, rest, product = unpeeled(p)
        assert points == [2]
        assert rest.coeffs == (1, -1) and product == p
        assert analyze(p).real_rooted
        q = p * CoeffSeq(4, (1, 0, 1)).to_poly2()
        assert unpeeled(q)[1].coeffs == (1, -1, 1, -1)
        assert not analyze(q).real_rooted

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=7).filter(lambda c: c[-1] != 0),
        st.lists(st.integers(3, 16), max_size=4),
        st.integers(0, 2),
    )
    def test_random_polynomials_agree_with_the_chain(self, coeffs, atoms, extra_s):
        p = CoeffSeq(2 * (len(coeffs) - 1) + extra_s, tuple(coeffs)).to_poly2()
        for d in atoms:
            p = p * lucas_atom(d)
        _, rest, product = unpeeled(p)
        assert product == p
        assert len(rest.coeffs) <= len(coeffs)
        f = coeff_view(p).generating_function()
        assert analyze(p).real_rooted == real_rooted(f) == fraction_real_rooted(f)

    def test_real_rooted_runs_once_on_what_is_left(self, monkeypatch):
        seen = []
        monkeypatch.setattr(analysis, "real_rooted", lambda f: seen.append(f) or real_rooted(f))
        analyze(coxeter_catalan(CoxeterType("E7")))
        assert [f.degree() for f in seen] == [0]

    def test_filter_spares_most_trial_divisions(self, monkeypatch):
        tries = {"divided": 0, "failed": 0}
        true_div = analysis._hom_exact_div

        def counted(*args):
            try:
                h = true_div(*args)
            except NotDivisible:
                tries["failed"] += 1
                raise
            tries["divided"] += 1
            return h

        monkeypatch.setattr(analysis, "_hom_exact_div", counted)
        for _, quantity, args in SWEEP:
            peel_atoms(coeff_view(quantity(*args)))
        # h = 1 + y^40 stays: every P_d with phi(d) <= 80 and d < 560 is a candidate.
        p = coxeter_catalan(CoxeterType("E8")) * CoeffSeq(80, (1,) + (0,) * 39 + (1,)).to_poly2()
        assert not analyze(p).real_rooted
        # Trying every candidate that passes the phi test fails far more often than it divides.
        assert tries["failed"] < tries["divided"] / 2, tries

    def test_second_point_refuses_most_failing_divisions(self, monkeypatch):
        failed = []
        true_div = analysis._hom_exact_div

        def counted(*args):
            try:
                return true_div(*args)
            except NotDivisible:
                failed.append(args)
                raise

        monkeypatch.setattr(analysis, "_hom_exact_div", counted)
        one_point_failed = 0
        for _, quantity, args in SWEEP:
            view = coeff_view(quantity(*args))
            exponents, rest = peel_atoms(view)
            old_exponents, old_rest, old_failed = one_point_peel(view)
            assert exponents == old_exponents
            assert (rest.weight, rest.coeffs) == (old_rest.weight, old_rest.coeffs)
            one_point_failed += old_failed
        # One point lets 164 of 1,034 divisions fail; the second refuses most of them before they run.
        assert len(failed) < one_point_failed / 3, (len(failed), one_point_failed)

    def test_a_broken_second_point_is_seen(self, monkeypatch):
        true_value = analysis._atom_value
        # The second point tests P_{d+1}(1, y0 + 1) in place of P_d(1, y0 + 1).
        monkeypatch.setattr(analysis, "_atom_value", lambda d, y: true_value(d + 1, y))
        assert not peels_exactly(lucasnomial(9, 4))

    def test_a_broken_filter_is_seen(self, monkeypatch):
        true_values = analysis.atom_values

        def shifted(y0, bound):  # the filter tests P_{d+1}(1, y0) in place of P_d(1, y0)
            weights, values = true_values(y0, bound)
            return weights, values[1:] + values[-1:]

        assert peels_exactly(lucasnomial(9, 4))
        monkeypatch.setattr(analysis, "atom_values", shifted)
        assert not peels_exactly(lucasnomial(9, 4))

    def test_a_broken_division_is_seen(self, monkeypatch):
        true_div = analysis._hom_exact_div

        def off_by_one(np_, f, nq, g):  # the quotient's top coefficient is one too large
            h = true_div(np_, f, nq, g)
            return h[:-1] + (h[-1] + 1,)

        monkeypatch.setattr(analysis, "_hom_exact_div", off_by_one)
        assert not peels_exactly(lucasnomial(9, 4))


class TestScale:
    """Inputs the Sturm chain took seconds on are decided by the peel in well under one."""

    @pytest.mark.parametrize("quantity", [lambda: coxeter_catalan(CoxeterType("E8")), lambda: fuss_catalan(11, 3)],
                             ids=["coxeter:E8", "fuss:11:3"])
    def test_real_rooted_in_seconds(self, quantity):
        p = quantity()
        start = time.perf_counter()
        report = analyze(p)
        elapsed = time.perf_counter() - start
        assert report.real_rooted and report.log_concave and report.unimodal
        assert elapsed < 1.0, elapsed

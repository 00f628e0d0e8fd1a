"""Catalan, Fuss-Catalan, Coxeter-Catalan, rational Catalan, Narayana."""

import math

import pytest

from oracles import (
    catalan_number,
    factorial_quotient,
    fuss_number,
    integer_coxeter_catalan,
    narayana_number,
    rational_catalan_number,
)
from lucaskit.coxcat import (
    CoxeterType,
    NotCoprime,
    coxeter_catalan,
    coxeter_fuss_catalan,
    exceptional_fuss_findings,
    fuss_catalan,
    genCatD,
    genCatD_in_range,
    lucas_catalan,
    narayana,
    narayana_findings,
    rational_catalan,
    rational_catalan_findings,
    verify_catD,
    verify_catalan_identity,
    verify_fuss_identity,
    verify_genCatD,
)
from lucaskit.lucas import d_lucasnomial, lucas, lucasnomial
from lucaskit.polyring import Poly2, coeff_view

S = Poly2.var_s()
T = Poly2.var_t()


def lucasnomial_oracle(n, k):
    return factorial_quotient(range(1, n + 1), [*range(1, k + 1), *range(1, n - k + 1)])


def narayana_oracle(n, k):
    """{n}!^2 / ({k}!{n-k}!{k-1}!{n-k+1}!{n}), multiplied out and divided once."""
    num = [*range(1, n + 1)] * 2
    return factorial_quotient(num, [*range(1, k + 1), *range(1, n - k + 1), *range(1, k), *range(1, n - k + 2), n])


class TestLucasCatalan:
    def test_low_values(self):
        assert lucas_catalan(0) == Poly2.one()
        assert lucas_catalan(1) == Poly2.one()
        assert lucas_catalan(2) == S**2 + 2 * T

    def test_three(self):
        value = lucas_catalan(3)
        assert value == S**6 + 6 * S**4 * T + 10 * S**2 * T**2 + 3 * T**3
        assert value.evaluate(2, -1) == 5

    def test_integer_catalans(self):
        for n in range(7):
            assert lucas_catalan(n).evaluate(2, -1) == catalan_number(n)

    def test_identity(self):
        assert verify_catalan_identity(2)
        assert lucas_catalan(2) == lucasnomial(3, 1) + T * lucasnomial(3, 0)
        assert all(verify_catalan_identity(n) for n in range(2, 13))


class TestFussCatalan:
    def test_two_two(self):
        value = fuss_catalan(2, 2)
        assert value == S**4 + 4 * S**2 * T + 3 * T**2
        assert value.evaluate(2, -1) == 3

    def test_k_one_is_catalan(self):
        for n in range(7):
            assert fuss_catalan(n, 1) == lucas_catalan(n)

    def test_empty(self):
        assert fuss_catalan(0, 3) == Poly2.one()

    def test_integer_values(self):
        for n in range(5):
            for k in range(1, 4):
                assert fuss_catalan(n, k).evaluate(2, -1) == fuss_number(n, k)

    def test_identity(self):
        assert verify_fuss_identity(2, 2)
        assert verify_fuss_identity(2, 1)  # degenerates to the Catalan identity
        assert all(verify_fuss_identity(n, k) for n in range(2, 7) for k in range(1, 4))


class TestCoxeterTypes:
    def test_degree_table(self):
        assert CoxeterType("A", 4).degrees() == (2, 3, 4, 5)
        assert CoxeterType("B", 3).degrees() == (2, 4, 6)
        assert CoxeterType("D", 3).degrees() == (2, 4, 3)  # unsorted, h = 4
        assert CoxeterType("D", 3).coxeter_number() == 4
        assert CoxeterType("I2", 7).degrees() == (2, 7)
        assert CoxeterType("E8").degrees() == (2, 8, 12, 14, 18, 20, 24, 30)

    def test_side_conditions(self):
        with pytest.raises(ValueError):
            CoxeterType("D", 2)
        with pytest.raises(ValueError):
            CoxeterType("I2", 1)
        with pytest.raises(ValueError):
            CoxeterType("H3", 3)
        with pytest.raises(ValueError):
            CoxeterType("Z", 3)


class TestCoxeterCatalan:
    def test_type_a_is_catalan(self):
        for n in range(2, 7):
            assert coxeter_catalan(CoxeterType("A", n - 1)) == lucas_catalan(n)

    def test_type_b_is_d_lucasnomial(self):
        for n in range(1, 6):
            assert coxeter_catalan(CoxeterType("B", n)) == d_lucasnomial(2 * n, n, 2)

    def test_i2_value(self):
        assert coxeter_catalan(CoxeterType("I2", 5)).evaluate(2, -1) == 7

    def test_h3_value(self):
        assert coxeter_catalan(CoxeterType("H3")).evaluate(2, -1) == 32

    def test_exceptional_integers(self):
        for family in ("H3", "H4", "F4", "E6", "E7", "E8"):
            w = CoxeterType(family)
            assert coxeter_catalan(w).evaluate(2, -1) == integer_coxeter_catalan(w.degrees())

    def test_nonnegative_homogeneous(self):
        for w in (CoxeterType("A", 4), CoxeterType("D", 4), CoxeterType("I2", 9), CoxeterType("F4")):
            value = coxeter_catalan(w)
            assert value.is_nonnegative()
            coeff_view(value)  # weighted-homogeneous


class TestCoxeterFuss:
    def test_type_a(self):
        for n in range(2, 5):
            for k in range(1, 4):
                assert coxeter_fuss_catalan(CoxeterType("A", n - 1), k) == fuss_catalan(n, k)

    def test_type_b(self):
        for n in range(1, 5):
            for k in range(1, 4):
                expected = d_lucasnomial((k + 1) * n, n, 2)
                assert coxeter_fuss_catalan(CoxeterType("B", n), k) == expected

    def test_i2_value(self):
        assert coxeter_fuss_catalan(CoxeterType("I2", 4), 2).evaluate(2, -1) == 15

    def test_fuss_integer_products(self):
        for family, param in [("D", 4), ("I2", 6), ("H3", None)]:
            w = CoxeterType(family, param)
            for k in range(1, 4):
                expected = integer_coxeter_catalan(w.degrees(), k)
                assert coxeter_fuss_catalan(w, k).evaluate(2, -1) == expected


class TestQuotientEngine:
    """The atom-engine quotients against multiplying out and dividing once."""

    TYPES = (
        [CoxeterType("A", n) for n in range(1, 9)]
        + [CoxeterType("B", n) for n in range(2, 9)]
        + [CoxeterType("D", n) for n in range(4, 9)]
        + [CoxeterType("I2", m) for m in range(5, 13)]
        + [CoxeterType(family) for family in ("H3", "H4", "F4", "E6", "E7", "E8")]
    )

    @pytest.mark.parametrize("w", TYPES, ids=str)
    def test_coxeter_fuss_matches_factorial_quotient(self, w):
        h = w.coxeter_number()
        for k in range(1, 4):
            expected = factorial_quotient([k * h + d for d in w.degrees()], w.degrees())
            assert coxeter_fuss_catalan(w, k) == expected, k

    def test_genCatD_matches_factorial_quotient(self):
        # The default sweep of ``lucaskit verify genCatD``.
        checked = 0
        for d in range(1, 7):
            for m in range(2, 6 // d + 1):
                for k in range(1, m):
                    for l in range(1, k * d):
                        for n in range(1, 5):
                            if not genCatD_in_range(l, k, m, d, n):
                                continue
                            top, bottom = m * (n - 1), k * n - 1
                            num = [(d * m - l) * n - (m - 1) * d, *range(d, top * d + 1, d)]
                            den = [math.gcd(k * d, k * d - l) * n, *range(d, bottom * d + 1, d)]
                            den += range(d, (top - bottom) * d + 1, d)
                            assert genCatD(l, k, m, d, n) == factorial_quotient(num, den), (l, k, m, d, n)
                            checked += 1
        assert checked > 0


class TestTypeD:
    def test_catD_value(self):
        assert coxeter_catalan(CoxeterType("D", 3)).evaluate(2, -1) == 14

    def test_catD_sweep(self):
        assert all(verify_catD(n) for n in range(3, 7))

    def test_genCatD_reproduces_dCatD(self):
        # l = d-1, k = 1, m = 2 is the d-divisible type-D quotient
        for d in range(2, 4):
            for n in range(2, 5):
                value = genCatD(d - 1, 1, 2, d, n)
                expected = (
                    lucas((d + 1) * n - d) * d_lucasnomial(2 * (n - 1), n - 1, d)
                ).exact_div(lucas(n))
                assert value == expected

    def test_genCatD_example(self):
        assert verify_genCatD(1, 1, 2, 2, 3)

    def test_genCatD_fuss_D(self):
        # Cat^(k) D_n = ({(2k+1)n - 2k}/{n}) {(k+1)(n-1):2 brace n-1:2}
        for n in range(3, 6):
            for k in range(1, 4):
                lhs = coxeter_fuss_catalan(CoxeterType("D", n), k)
                rhs = (
                    lucas((2 * k + 1) * n - 2 * k)
                    * d_lucasnomial((k + 1) * (n - 1), n - 1, 2)
                ).exact_div(lucas(n))
                assert lhs == rhs

    def test_out_of_range_guard(self):
        assert not genCatD_in_range(3, 2, 3, 2, 1)
        with pytest.raises(ValueError):
            genCatD(3, 2, 3, 2, 1)


class TestRationalCatalan:
    def test_two_three(self):
        value = rational_catalan(2, 3)
        assert value == S**2 + 2 * T
        assert value.evaluate(2, -1) == 2

    def test_one_b(self):
        for b in range(2, 8):
            assert rational_catalan(1, b) == Poly2.one()

    def test_consecutive_is_catalan(self):
        for n in range(1, 7):
            assert rational_catalan(n, n + 1) == lucas_catalan(n)

    def test_symmetry(self):
        for a in range(1, 13):
            for b in range(a + 1, 13):
                if math.gcd(a, b) == 1:
                    assert rational_catalan(a, b) == rational_catalan(b, a)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            rational_catalan(4, 6)

    def test_integer_values(self):
        for a in range(1, 9):
            for b in range(a + 1, 9):
                if math.gcd(a, b) == 1:
                    assert rational_catalan(a, b).evaluate(2, -1) == rational_catalan_number(a, b)


class TestNarayana:
    def test_three_two(self):
        value = narayana(3, 2)
        assert value == S**2 + T
        assert value.evaluate(2, -1) == 3

    def test_k_one(self):
        for n in range(1, 9):
            assert narayana(n, 1) == Poly2.one()

    def test_integer_values(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert narayana(n, k).evaluate(2, -1) == narayana_number(n, k)

    def test_row_sum_specialization(self):
        # sum_k N_{n,k} = C_n holds at (2,-1); polynomial equality is not claimed
        for n in range(1, 9):
            total = sum(narayana(n, k).evaluate(2, -1) for k in range(1, n + 1))
            assert total == catalan_number(n)

    def test_divide_first_matches_product_then_divide(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                expected = (lucasnomial(n, k) * lucasnomial(n, k - 1)).exact_div(lucas(n))
                assert narayana(n, k) == expected, (n, k)

    def test_matches_factorial_quotient(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert narayana(n, k) == narayana_oracle(n, k), (n, k)

    @pytest.mark.parametrize("n, k", [(1, 1), (9, 1), (9, 6), (12, 8), (12, 12)])
    def test_fills_lucasnomial_cache(self, monkeypatch, n, k):
        # After N_{n,k}, its two Lucasnomials and its mirror N_{n,n+1-k} are
        # lookups: no quotient is computed or divided again.
        from lucaskit import lucas as lucas_module

        expected = [lucasnomial_oracle(n, k), lucasnomial_oracle(n, k - 1), narayana_oracle(n, n + 1 - k)]
        narayana.cache_clear()
        lucasnomial.cache_clear()
        narayana(n, k)

        def no_quotient_work(*args):
            raise AssertionError("quotient recomputed")

        monkeypatch.setattr(lucas_module, "lucas_quotient", no_quotient_work)
        monkeypatch.setattr(Poly2, "exact_div", no_quotient_work)
        assert [lucasnomial(n, k), lucasnomial(n, k - 1), narayana(n, n + 1 - k)] == expected


class TestFindings:
    def test_narayana_sweep_clean(self):
        findings = narayana_findings(12)
        assert all(f.status == "pass" for f in findings)
        assert len(findings) == 12 * 13 // 2

    def test_rational_sweep_clean(self):
        assert all(f.status == "pass" for f in rational_catalan_findings(10))

    def test_exceptional_sweep_clean(self):
        findings = exceptional_fuss_findings(2)
        assert all(f.status == "pass" for f in findings)

    @pytest.mark.parametrize(
        "sweep, bound, patched, status",
        [
            (narayana_findings, 3, "narayana", "finding"),
            (rational_catalan_findings, 3, "rational_catalan", "fail"),
            (exceptional_fuss_findings, 1, "coxeter_fuss_catalan", "finding"),
        ],
    )
    def test_sweep_reports_failures(self, monkeypatch, sweep, bound, patched, status):
        from lucaskit import coxcat
        from lucaskit.polyring import NotDivisible

        def not_polynomial(*args):
            raise NotDivisible("nonzero remainder")

        monkeypatch.setattr(coxcat, patched, not_polynomial)
        findings = sweep(bound)
        assert findings and all((f.status, f.detail) == (status, "not a polynomial") for f in findings)

        monkeypatch.setattr(coxcat, patched, lambda *args: -Poly2.one())
        findings = sweep(bound)
        assert findings and all((f.status, f.detail) == ("finding", "negative coefficient") for f in findings)

    def test_sweep_names_the_blocking_atom(self, monkeypatch):
        from lucaskit import coxcat

        # {6}/{4}: P_4 has exponent -1, and lucas_quotient names it.
        monkeypatch.setattr(coxcat, "coxeter_fuss_catalan", lambda *args: coxcat.lucas_quotient([6], [4]))
        findings = exceptional_fuss_findings(1)
        assert findings
        assert all((f.status, f.detail) == ("finding", "not a polynomial: atom P_4 has exponent -1") for f in findings)

    def test_json_lines(self):
        import json

        line = narayana_findings(2)[0].to_json_line()
        decoded = json.loads(line)
        assert set(decoded) == {"op", "params", "status", "detail"}

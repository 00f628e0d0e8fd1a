"""Exact arithmetic: canonical form, division, specialization, Sturm."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lucaskit.polyring import (
    CoeffSeq,
    DivisionByZero,
    NotDivisible,
    NotWeightedHomogeneous,
    Poly1,
    Poly2,
    coeff_view,
    count_real_roots,
    real_rooted,
)

S = Poly2.var_s()
T = Poly2.var_t()

polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-5, 5),
    max_size=5,
).map(Poly2)

nonzero_polys = polys.filter(bool)


def homogeneous(weight, coeffs) -> Poly2:
    return Poly2({(weight - 2 * k, k): c for k, c in enumerate(coeffs) if c})


class TestAddMul:
    def test_disjoint_union(self):
        assert S + (S * S + T) == S**2 + S + T

    def test_additive_identity(self):
        p = S**3 + 2 * S * T
        assert p + Poly2.zero() == p

    def test_additive_inverse(self):
        p = S**3 + 2 * S * T
        assert p + -p == Poly2.zero()

    def test_monomial_distribution(self):
        assert S * (S**2 + T) == S**3 + S * T

    def test_cross_expansion(self):
        product = (S**2 + T) * (S**2 + 2 * T)
        assert product == S**4 + 3 * S**2 * T + 2 * T**2
        # cross-check the hand expansion by evaluation
        assert product.evaluate(2, -1) == (4 - 1) * (4 - 2)
        assert product.evaluate(1, 1) == 2 * 3

    def test_multiplicative_identity(self):
        p = S**4 + 3 * S**2 * T
        assert p * Poly2.one() == p

    def test_canonical_no_zero_terms(self):
        p = Poly2({(1, 0): 2, (0, 0): 0}) - 2 * S
        assert not p
        assert p == 0


class TestExactDiv:
    def test_quotient_multiplies_back(self):
        p = S**4 + 3 * S**2 * T + 2 * T**2
        q = S**2 + T
        r = p.exact_div(q)
        assert r == S**2 + 2 * T
        assert q * r == p

    def test_divide_by_one(self):
        p = S**3 + 2 * S * T
        assert p.exact_div(Poly2.one()) == p

    def test_not_divisible(self):
        # at s = 0 the dividend is t != 0, so s cannot divide it
        with pytest.raises(NotDivisible):
            (S**2 + T).exact_div(S)

    def test_zero_dividend(self):
        assert Poly2.zero().exact_div(S + T) == Poly2.zero()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            S.exact_div(Poly2.zero())

    def test_non_homogeneous_path(self):
        p = (S + T + 1) * (S**2 + T - 3)
        assert p.exact_div(S + T + 1) == S**2 + T - 3

    def test_rational_quotient_rejected(self):
        with pytest.raises(NotDivisible):
            S.exact_div(Poly2.const(2))


class TestEval:
    def test_lucas5_fibonacci_point(self):
        five = S**4 + 3 * S**2 * T + T**2
        assert five.evaluate(1, 1) == 5

    def test_lucas5_integer_point(self):
        five = S**4 + 3 * S**2 * T + T**2
        assert five.evaluate(2, -1) == 5

    def test_zero(self):
        assert Poly2.zero().evaluate(17, -3) == 0


class TestSpecializeQ:
    def test_q_integer(self):
        assert (S**2 + T).specialize_q() == Poly1({0: 1, 1: 1, 2: 1})

    def test_q_two(self):
        assert S.specialize_q() == Poly1({0: 1, 1: 1})

    def test_gaussian_binomial(self):
        from oracles import gaussian_binomial

        p = S**4 + 3 * S**2 * T + 2 * T**2  # the (4, 2) Lucasnomial
        assert p.specialize_q() == gaussian_binomial(4, 2)


class TestCoeffView:
    def test_weight_three(self):
        view = coeff_view(S**3 + 2 * S * T)
        assert (view.weight, view.coeffs) == (3, (1, 2))

    def test_weight_two(self):
        assert coeff_view(S**2 + T) == CoeffSeq(2, (1, 1))

    def test_mixed_weights(self):
        with pytest.raises(NotWeightedHomogeneous):
            coeff_view(S + T)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            coeff_view(Poly2.zero())

    def test_round_trip(self):
        p = S**6 + 6 * S**4 * T + 10 * S**2 * T**2 + 3 * T**3
        assert coeff_view(p).to_poly2() == p


class TestRealRooted:
    def test_two_rational_roots(self):
        assert real_rooted(Poly1({0: 1, 1: 3, 2: 2}))  # roots -1 and -1/2

    def test_complex_pair(self):
        assert not real_rooted(Poly1({0: 1, 2: 1}))  # roots +-i

    def test_constant(self):
        assert real_rooted(Poly1.const(1))

    def test_repeated_root(self):
        # (y + 1)^2: square-free reduction must not inflate the count
        assert real_rooted(Poly1({0: 1, 1: 2, 2: 1}))

    def test_repeated_complex(self):
        square = Poly1({0: 1, 2: 1}) * Poly1({0: 1, 2: 1})
        assert not real_rooted(square)

    def test_root_count(self):
        cubic = Poly1({1: -1, 3: 1})  # y^3 - y: roots -1, 0, 1
        assert count_real_roots(cubic) == 3


class TestJson:
    def test_round_trip(self):
        p = 12345678901234567890 * S**3 * T - 7 * T**2
        data = p.to_json_dict()
        assert all(isinstance(term["c"], str) for term in data["terms"])
        assert Poly2.from_json_dict(data) == p

    def test_term_order(self):
        p = T**2 + S**2 + S * T
        ordered = [(term["s"], term["t"]) for term in p.to_json_dict()["terms"]]
        assert ordered == [(2, 0), (1, 1), (0, 2)]


class TestPretty:
    def test_display_style(self):
        assert str(S**3 + 2 * S * T) == "s^3 + 2*s*t"
        assert str(S**4 + 3 * S**2 * T + 2 * T**2) == "s^4 + 3*s^2*t + 2*t^2"
        assert str(Poly2.zero()) == "0"
        assert str(Poly2.one() - 2 * T) == "1 - 2*t"  # s desc, then t asc


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_associativity_and_commutativity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)

    @given(polys, polys, polys)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, polys, st.integers(-3, 3), st.integers(-3, 3))
    def test_eval_homomorphism(self, p, q, s0, t0):
        assert (p + q).evaluate(s0, t0) == p.evaluate(s0, t0) + q.evaluate(s0, t0)
        assert (p * q).evaluate(s0, t0) == p.evaluate(s0, t0) * q.evaluate(s0, t0)

    @given(polys, nonzero_polys)
    def test_multiply_then_divide(self, p, q):
        assert (p * q).exact_div(q) == p

    @given(st.integers(0, 8), st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    def test_coeff_view_round_trip(self, extra, coeffs):
        weight = 2 * (len(coeffs) - 1) + extra
        p = homogeneous(weight, coeffs)
        if not p:
            return
        assert coeff_view(p).to_poly2() == p

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
    def test_real_rooted_matches_discriminant(self, a, b, c):
        f = Poly1({0: c, 1: b, 2: a})
        if not f:
            return
        if a != 0:
            expected = b * b - 4 * a * c >= 0
        else:
            expected = True  # linear or constant: every root is real
        assert real_rooted(f) == expected


class TestPoly1:
    def test_divmod(self):
        num = Poly1({0: -1, 3: 1})  # y^3 - 1
        den = Poly1({0: -1, 1: 1})  # y - 1
        assert num.exact_div(den) == Poly1({0: 1, 1: 1, 2: 1})

    def test_fraction_coefficients(self):
        half = Poly1({1: Fraction(1, 2)})
        assert (half * Poly1.const(2)).int_coeffs() == {1: 1}

    def test_derivative(self):
        assert Poly1({3: 2, 1: 5}).derivative() == Poly1({2: 6, 0: 5})

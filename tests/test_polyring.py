"""Exact arithmetic: canonical form, division, specialization, Sturm."""

import json
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from operator import add, mul, sub
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    fraction_coeffs,
    fraction_count_real_roots,
    fraction_divmod,
    fraction_poly1_gcd,
    fraction_real_rooted,
    fraction_remainder_chain,
    integral_poly1,
    lex_exact_div,
    monomial_product,
    one_point_convolve,
    poly1_exact_div,
    poly1_primitive,
    term_substitute,
)
from lucaskit import polyring
from lucaskit.polyring import (
    CoeffSeq,
    DivisionByZero,
    NotDivisible,
    NotWeightedHomogeneous,
    Poly1,
    Poly2,
    coeff_view,
    count_real_roots,
    poly1_gcd,
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
# Two or more weights a + 2b: division is then graded, not one univariate quotient.
mixed_polys = polys.filter(lambda p: p and p.weighted_profile() is None)


# Univariate polynomials with integer coefficients.
poly1s = st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=5).map(Poly1)
nonzero_poly1s = poly1s.filter(bool)
Y = Poly1.var()


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
        assert hash(p) == hash(Poly2.zero())


class TestIntegersOnly:
    """Both classes hold ints: constructors refuse other coefficients, arithmetic other operands."""

    @pytest.mark.parametrize("c", [0.5, 2.0, Fraction(1, 2), Fraction(2), "1", None])
    @pytest.mark.parametrize(
        "build",
        [
            lambda c: Poly2({(0, 1): c}),
            Poly2.const,
            lambda c: Poly2.monomial(1, 0, c),
            lambda c: Poly1({1: c}),
            Poly1.const,
        ],
        ids=["Poly2", "Poly2.const", "Poly2.monomial", "Poly1", "Poly1.const"],
    )
    def test_non_integer_coefficient_rejected(self, build, c):
        with pytest.raises(TypeError):
            build(c)

    @pytest.mark.parametrize("e", [1.5, 2.0, Fraction(1, 2), Fraction(2), "1", None])
    @pytest.mark.parametrize(
        "build",
        [
            lambda e: Poly2({(e, 0): 1}),
            lambda e: Poly2({(0, e): 1}),
            lambda e: Poly2.monomial(e, 0),
            lambda e: Poly2.monomial(0, e),
        ],
        ids=["Poly2-s", "Poly2-t", "Poly2.monomial-s", "Poly2.monomial-t"],
    )
    def test_non_integer_exponent_rejected(self, build, e):
        with pytest.raises(TypeError):
            build(e)

    @pytest.mark.parametrize("p, other_class", [(S, Y), (Y, S)], ids=["Poly2", "Poly1"])
    def test_non_integer_operand_rejected(self, p, other_class):
        for other in (0.5, 2.0, Fraction(1, 2), "s", None, other_class):
            for op in (add, sub, mul):
                with pytest.raises(TypeError):
                    op(p, other)
                with pytest.raises(TypeError):
                    op(other, p)
            assert p != other


class TestCanonicalForm:
    """Every construction route lands on one representation: equal and equal hashes."""

    @pytest.mark.parametrize(
        "built, plain",
        [
            ((S**2 + T) - T, {(2, 0): 1}),  # trims the emptied t-coefficient of weight 2
            (S**3 + S * T - S * T, {(3, 0): 1}),
            (Poly2({(1, 0): 2, (0, 0): 0}) - S, {(1, 0): 1}),
            (Poly2([((0, 1), 1), ((0, 1), 2), ((1, 0), 0)]), {(0, 1): 3}),
            (Poly2.monomial(1, 2, 5), {(1, 2): 5}),
            (Poly2.monomial(0, 0, 0), {}),
            (Poly2.const(7), {(0, 0): 7}),
            (Poly2.const(0), {}),
            (Poly2.one(), {(0, 0): 1}),
            (Poly2.var_s(), {(1, 0): 1}),
            (Poly2.var_t(), {(0, 1): 1}),
            (3 * T - 3 * T + 1, {(0, 0): 1}),
            (CoeffSeq(4, (1, 2, 0, 0)).to_poly2(), {(4, 0): 1, (2, 1): 2}),
            (CoeffSeq(2, (0, 0)).to_poly2(), {}),
        ],
    )
    def test_routes_agree(self, built, plain):
        assert built == Poly2(plain)
        assert hash(built) == hash(Poly2(plain))
        assert dict(built.terms()) == plain

    def test_coeff_seq_drops_trailing_zeros(self):
        p = CoeffSeq(4, (1, 2, 0)).to_poly2()
        assert coeff_view(p) == CoeffSeq(4, (1, 2))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly2({(-1, 1): 1})
        with pytest.raises(ValueError):
            Poly2.monomial(0, -1)

    @given(polys)
    def test_terms_round_trip(self, p):
        assert Poly2(p.terms()) == p
        assert hash(Poly2(p.terms())) == hash(p)


class TestTracedSurface:
    """What bench/tracing.py reads off a Poly2: the term map and the weighted profile."""

    @given(polys)
    def test_terms_map(self, p):
        assert p._terms == dict(p.terms())

    def test_terms_map_is_a_copy(self):
        p = S**2 + T
        terms = p._terms
        terms[(2, 0)] = 9
        terms[(5, 5)] = 1
        assert p == S**2 + T
        assert p._terms == {(2, 0): 1, (0, 1): 1}

    def test_weighted_profile(self):
        assert (S**3 + 2 * S * T).weighted_profile() == (3, (1, 2))
        assert (T**2).weighted_profile() == (4, (0, 0, 1))
        assert (S + T).weighted_profile() is None
        assert Poly2.zero().weighted_profile() is None


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

    @pytest.mark.parametrize("p", [T, T**2 + S**4], ids=str)
    def test_negative_s_exponent(self, p):
        # t / s^2 and t^2 / s^2 would need s^-2: the quotient's top t-exponent is too high
        with pytest.raises(NotDivisible, match="^quotient would need a negative s exponent$"):
            p.exact_div(S**2)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            S.exact_div(Poly2.zero())

    def test_non_homogeneous_path(self):
        p = (S + T + 1) * (S**2 + T - 3)
        assert p.exact_div(S + T + 1) == S**2 + T - 3

    def test_rational_quotient_rejected(self):
        with pytest.raises(NotDivisible):
            S.exact_div(Poly2.const(2))

    @pytest.mark.parametrize(
        "p, q",
        [
            (S + 1, S + 2),
            (S**2 + 1, S + T + 1),
            (S**2 + T, S + 1),
            (T + 1, 2 * S + 1),
        ],
        ids=str,
    )
    def test_not_divisible_mixed_weights(self, p, q):
        with pytest.raises(NotDivisible):
            p.exact_div(q)
        with pytest.raises(NotDivisible):
            lex_exact_div(p._terms, q._terms)

    @given(polys, mixed_polys, st.booleans())
    def test_graded_division_matches_lex(self, p, q, multiple):
        dividend = p * q if multiple else p
        try:
            expected = Poly2(lex_exact_div(dividend._terms, q._terms))
        except NotDivisible:
            with pytest.raises(NotDivisible):
                dividend.exact_div(q)
        else:
            assert dividend.exact_div(q) == expected


# A divisor's lowest nonzero entry leads the division: +-1 (monic, as every Lucas atom) or +-3.
divisor_parts = st.builds(
    lambda v, lead, rest: (0,) * v + (lead, *rest),
    st.integers(0, 2),
    st.sampled_from([1, -1, 3, -3]),
    st.lists(st.integers(-4, 4), max_size=4),
).map(polyring._trimmed)


class TestHomExactDiv:
    """``_hom_exact_div`` against long division over the rationals (``fraction_divmod``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        divisor_parts,
        st.lists(st.integers(-5, 5), min_size=1, max_size=5).filter(lambda h: h[-1]),
        st.lists(st.integers(-2, 2), max_size=6),
        st.integers(0, 2),
        st.integers(0, 3),
    )
    def test_matches_rational_division(self, g, h, noise, shift, extra):
        f = polyring._trimmed((0,) * shift + polyring._add(polyring._convolve(h, g), noise))
        if not f:
            return
        quot, rem = fraction_divmod([Fraction(c) for c in f], [Fraction(c) for c in g])
        nq = 2 * (len(g) - 1) + extra
        np_ = nq + 2 * max(len(f) - len(g), 0) + extra
        if rem or any(c.denominator != 1 for c in quot):
            with pytest.raises(NotDivisible):
                polyring._hom_exact_div(np_, f, nq, g)
        else:
            assert polyring._hom_exact_div(np_, f, nq, g) == tuple(int(c) for c in quot)

    @pytest.mark.parametrize("lead", [1, -1, 3, -3])
    def test_a_constant_divisor(self, lead):
        assert polyring._hom_exact_div(4, (3 * lead, 0, -6 * lead), 0, (lead,)) == (3, 0, -6)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, (1,), 4, (1, 1)), "weight of dividend is below weight of divisor"),
            ((4, (1, 1), 2, (0, 1)), "divisor's t-valuation exceeds dividend's"),
            ((4, (1,), 2, (1, 1)), "dividend has too few terms"),
            ((4, (1, 3, 3), 2, (1, 1)), "nonzero remainder"),
            ((4, (1, 3, 3), 2, (3, 1)), "non-integer coefficient in quotient"),
            ((4, (3, 0, 2), 0, (3,)), "non-integer coefficient in quotient"),
            ((2, (1, 2, 1), 1, (1, 1)), "quotient would need a negative s exponent"),
        ],
    )
    def test_each_refusal_keeps_its_message(self, args, message):
        with pytest.raises(NotDivisible, match=f"^{message}$"):
            polyring._hom_exact_div(*args)

    def test_monic_divisors_take_no_divmod(self, monkeypatch):
        calls = []
        monkeypatch.setattr(polyring, "divmod", lambda a, b: calls.append(b) or divmod(a, b), raising=False)
        f = tuple(polyring._convolve((1, 4, 2), (1, 3, 5)))
        assert polyring._hom_exact_div(8, f, 4, (1, 3, 5)) == (1, 4, 2)
        assert calls == []
        assert polyring._hom_exact_div(8, tuple(polyring._convolve((1, 4, 2), (3, 1))), 2, (3, 1)) == (1, 4, 2)
        assert calls == [3] * 3


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


class TestSubstitute:
    """Integral images take ascending int powers; the term-by-term expansion is the oracle."""

    def test_lucasnomials_against_term_expansion(self):
        from lucaskit.lucas import lucasnomial

        integral = [
            (Poly1({0: 1, 1: 1}), Poly1({1: -1})),  # specialize_q
            (Poly1({1: 2}), Poly1.const(-1)),  # the Chebyshev bridge
        ]
        general = (Poly1({0: -3, 1: 2}), Poly1({0: 5, 2: -1}))
        # (14, 7) and (16, 8) have terms whose s and t powers both reach 16 terms, so their products are packed.
        for n, k in [(n, k) for n in range(9) for k in range(n + 1)] + [(14, 7), (16, 8)]:
            p = lucasnomial(n, k)
            for s_image, t_image in integral + ([general] if n < 9 else []):
                assert p.substitute(s_image, t_image) == term_substitute(p, s_image, t_image)

    def test_zero_images_and_zero_poly(self):
        p = 3 * S**2 * T - 5 * T**3 + 7 + S
        for s_image, t_image in [(Poly1(), Poly1()), (Poly1(), Poly1({1: 2})), (Poly1({0: 4}), Poly1())]:
            assert p.substitute(s_image, t_image) == term_substitute(p, s_image, t_image)
        assert Poly2.zero().substitute(Poly1({1: 1}), Poly1({1: 1})) == Poly1()

    def test_image_holds_ints(self):
        image = (S**3 + 2 * S * T).specialize_q()  # {4} -> [4]_q
        assert image == Poly1({0: 1, 1: 1, 2: 1, 3: 1})
        assert {type(c) for c in image._coeffs} == {int}

    @settings(max_examples=60, deadline=None)
    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 4)), st.integers(-50, 50), max_size=8
        ),
        s_coeffs=st.lists(st.integers(-9, 9), max_size=5),
        t_coeffs=st.lists(st.integers(-9, 9), max_size=5),
    )
    def test_matches_term_expansion(self, terms, s_coeffs, t_coeffs):
        p = Poly2(terms)
        s_image = Poly1(enumerate(s_coeffs))
        t_image = Poly1(enumerate(t_coeffs))
        assert p.substitute(s_image, t_image) == term_substitute(p, s_image, t_image)


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

    @pytest.mark.parametrize(
        "term",
        [
            {"s": 1.9, "t": True, "c": 1.7},
            {"s": 1.0, "t": 0, "c": "1"},
            {"s": True, "t": 0, "c": "1"},
            {"s": "1", "t": 0, "c": "1"},
            {"s": 1, "t": None, "c": "1"},
            {"s": 1, "t": 0, "c": 1},
            {"s": 1, "t": 0, "c": "1.7"},
            {"s": 1, "t": 0, "c": " 7"},
            {"s": 1, "t": 0, "c": "1_000"},
            {"s": 1, "t": 0, "c": "+7"},
            {"s": 1, "t": 0, "c": "7e2"},
            {"s": 1, "t": 0, "c": ""},
            {"s": 1, "t": 0, "c": "\u0667"},  # ARABIC-INDIC DIGIT SEVEN, which int() reads as 7
        ],
    )
    def test_non_integer_terms_rejected(self, term):
        with pytest.raises(ValueError):
            Poly2.from_json_dict({"terms": [term]})

    @pytest.mark.parametrize("c", ["0", "-0", "00", "007", "-07"])
    def test_non_canonical_coefficient_rejected(self, c):
        # to_json_dict writes no zero term and no leading zero.
        with pytest.raises(ValueError):
            Poly2.from_json_dict({"terms": [{"s": 1, "t": 0, "c": c}]})

    @pytest.mark.parametrize("second", ["3", "-2"])
    def test_repeated_term_rejected(self, second):
        terms = [{"s": 1, "t": 0, "c": "2"}, {"s": 0, "t": 1, "c": "1"}, {"s": 1, "t": 0, "c": second}]
        with pytest.raises(ValueError, match="repeated"):
            Poly2.from_json_dict({"terms": terms})

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

    def test_unit_coefficients_and_signs(self):
        assert str(Poly2.one() - T) == "1 - t"
        assert str(Poly2.const(-3)) == "-3"
        assert str(Poly2.const(-1)) == "-1"
        assert str(-S * T + T**2) == "-s*t + t^2"
        assert repr(S - 1) == "Poly2('s - 1')"


class TestPoly1Pretty:
    @pytest.mark.parametrize(
        "coeffs, shown",
        [
            ({}, "0"),
            ({0: 1}, "1"),
            ({0: -1}, "-1"),
            ({1: 1}, "y"),
            ({1: -1}, "-y"),
            ({2: -2, 0: 5}, "-2*y^2 + 5"),
            ({2: 1, 1: -3, 0: 1}, "y^2 - 3*y + 1"),
            ({3: 4, 2: 1, 1: -1, 0: -7}, "4*y^3 + y^2 - y - 7"),
        ],
    )
    def test_display_style(self, coeffs, shown):
        assert Poly1(coeffs).pretty() == shown

    def test_variable_name(self):
        assert Poly1({2: 1, 1: -3, 0: 1}).pretty("q") == "q^2 - 3*q + 1"
        assert Poly1({1: -1}).pretty("q") == "-q"
        assert Poly1({}).pretty("q") == "0"

    def test_repr(self):
        assert repr(Poly1({2: 1, 1: -3, 0: 1})) == "Poly1('y^2 - 3*y + 1')"
        assert repr(Poly1({})) == "Poly1('0')"
        assert repr(-Y) == "Poly1('-y')"


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


# Entries for the packed multiply: zeros, small and word-sized signed ints, and
# signed ints above 10,000 bits (built from two small draws, since each drawn
# bit counts against hypothesis's per-example budget).
huge = st.tuples(st.integers(-(2**16), 2**16).filter(bool), st.integers(0, 2**32)).map(
    lambda hl: hl[0] * 2**10_000 + hl[1]
)
# Lengths from 0 to well past the crossover, drawn uniformly so both sides of it occur.
pack_lengths = st.integers(0, 2 * polyring.PACK_MIN_TERMS + 8)


def seqs(entries):
    return pack_lengths.flatmap(lambda n: st.lists(entries, min_size=n, max_size=n))


packed_operands = st.one_of(
    seqs(st.integers(-9, 9)),
    seqs(st.integers(-(2**64), 2**64)),
    seqs(st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**64), 2**64), huge)),
)


def as_map(seq) -> dict:
    return {e: c for e, c in enumerate(seq) if c}


class TestConvolve:
    """``_convolve`` packs long int operands into one bigint product; the loop takes the rest."""

    @settings(deadline=None)  # a 40 x 40 product of 10,000-bit entries takes tenths of a second
    @given(packed_operands, packed_operands)
    def test_matches_monomial_oracle(self, f, g):
        product = polyring._convolve(f, g)
        assert len(product) == max(len(f) + len(g) - 1, 0)
        assert as_map(product) == monomial_product(f, g)

    @given(seqs(st.integers(-9, 9)), seqs(st.integers(-9, 9)))
    def test_poly1_products(self, f, g):
        assert Poly1(enumerate(f)) * Poly1(enumerate(g)) == Poly1(monomial_product(f, g))

    def test_long_operands_are_packed(self, monkeypatch):
        monkeypatch.setattr(polyring, "_schoolbook", None)
        n = polyring.PACK_MIN_TERMS
        f = [(-1) ** i * (i + 1) ** 40 for i in range(n)]
        g = [0] * (n + 5) + [-(2**10_001)]
        assert as_map(polyring._convolve(f, g)) == monomial_product(f, g)
        assert as_map(polyring._convolve(g, f)) == monomial_product(f, g)

    def test_short_operands_take_the_loop(self, monkeypatch):
        calls = []
        schoolbook = polyring._schoolbook
        monkeypatch.setattr(polyring, "_schoolbook", lambda f, g: calls.append(1) or schoolbook(f, g))
        n = polyring.PACK_MIN_TERMS
        polyring._convolve([1] * (n - 1), [2] * 100)
        polyring._convolve([1] * 100, [2] * (n - 1))
        assert len(calls) == 2
        polyring._convolve([1] * n, [2] * 100)
        assert len(calls) == 2

    @settings(deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2, 3])
    def test_odd_and_even_lengths_about_the_crossover(self, shift, data):
        m = polyring.PACK_MIN_TERMS + shift
        entries = st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64), st.integers(0, 2**300))
        f = data.draw(st.lists(entries, min_size=m, max_size=m))
        g = data.draw(st.lists(entries, min_size=1, max_size=2 * polyring.PACK_MIN_TERMS + 3))
        assert polyring._convolve(f, g) == _dense_product(f, g)
        assert polyring._convolve(g, f) == _dense_product(f, g)

    @settings(deadline=None)
    @given(packed_operands, packed_operands, st.sampled_from([0, 1]))
    def test_a_half_all_zero(self, f, g, parity):
        """The even-index (parity 0) or odd-index (parity 1) half of one operand is all zero."""
        f = [0 if i % 2 == parity else c for i, c in enumerate(f)]
        assert polyring._convolve(f, g) == _dense_product(f, g)
        assert polyring._convolve(g, f) == _dense_product(f, g)

    @given(
        st.integers(polyring.PACK_MIN_TERMS, 3 * polyring.PACK_MIN_TERMS),
        st.integers(0, 3 * polyring.PACK_MIN_TERMS),
        st.integers(1, 200),
        st.integers(0, 7),
        st.sampled_from(["+", "-", "+-", "mixed"]),
    )
    def test_entries_at_the_field_bound(self, m, extra, bits_f, pad, signs):
        """Every entry is +-max and the widths leave the field no spare byte; with one sign per operand c_k reaches m max|f| max|g|."""
        # bits(max|f|) + bits(max|g|) + bits(m) + 2 is a whole number of bytes: B itself.
        bits_g = 8 + pad - (bits_f + m.bit_length() + 2) % 8
        big_f, big_g = 2**bits_f - 1, 2**bits_g - 1
        pattern = {"+": (1, 1), "-": (-1, -1), "+-": (1, -1), "mixed": (1, 1)}[signs]
        f = [pattern[0] * big_f] * m
        g = [pattern[1] * big_g * (-1 if signs == "mixed" and j % 3 == 1 else 1) for j in range(m + extra)]
        product = polyring._convolve(f, g)
        assert product == _dense_product(f, g)
        assert signs == "mixed" or max(map(abs, product)) == m * big_f * big_g

    @settings(deadline=None)
    @given(packed_operands, packed_operands)
    def test_one_signed_operand(self, f, g):
        g = [abs(c) for c in g]
        assert polyring._convolve(f, g) == _dense_product(f, g)
        assert polyring._convolve(g, f) == _dense_product(f, g)

    @given(st.integers(1, 40), st.data())
    def test_pack_round_trip(self, width, data):
        n = data.draw(st.integers(0, 12))
        top = 2 ** (8 * width)
        seq = data.draw(st.lists(st.one_of(st.integers(0, top - 1), st.sampled_from([0, 1, top - 1])), min_size=n, max_size=n))
        assert polyring._unpack(polyring._pack(seq, width), width, n) == seq
        # Signed: balanced digits in [-2^(8 width - 1), 2^(8 width - 1)), the ends included.
        half = top // 2
        signed = data.draw(st.lists(st.one_of(st.integers(-half, half - 1), st.sampled_from([-half, half - 1])), min_size=n, max_size=n))
        value = polyring._pack_signed(signed, width)
        assert value == sum(c << (8 * width * i) for i, c in enumerate(signed))
        assert polyring._unpack_signed(value, width, n) == signed

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_the_one_point_multiply(self, data):
        """Random signed operands past the crossover, entries up to 10,000 bits, against one bigint product."""
        entries = st.one_of(st.just(0), st.integers(-(2**64), 2**64), huge, st.integers(1, 10_000).map(lambda b: -(2**b) + 1))
        lengths = st.integers(polyring.PACK_MIN_TERMS, 3 * polyring.PACK_MIN_TERMS)
        f = data.draw(lengths.flatmap(lambda n: st.lists(entries, min_size=n, max_size=n)))
        g = data.draw(lengths.flatmap(lambda n: st.lists(entries, min_size=n, max_size=n)))
        assert polyring._convolve(f, g) == one_point_convolve(f, g)


def _dense_product(f, g) -> list[int]:
    """``monomial_product`` as a list of len(f) + len(g) - 1 coefficients (none for two empty operands), zeros included."""
    product = monomial_product(f, g)
    return [product.get(e, 0) for e in range(len(f) + len(g) - 1)]


def term_product(p: Poly2, q: Poly2) -> Poly2:
    """p * q term by term through the constructor, which adds repeated monomials: no ``_convolve``."""
    return Poly2(((a + c, b + d), x * y) for (a, b), x in p.terms() for (c, d), y in q.terms())


# One weight with leading, inner and trailing-free sequences of up to 40 terms: both kernels.
one_weight = st.tuples(
    st.integers(0, 3), st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=40).filter(lambda c: c[-1])
).map(lambda ec: homogeneous(2 * (len(ec[1]) - 1) + ec[0], ec[1]))


class TestMulFastPath:
    """``Poly2.__mul__`` builds a one-weight-by-one-weight product straight from one ``_convolve``."""

    @given(st.one_of(one_weight, polys), st.one_of(one_weight, polys))
    def test_matches_the_term_product(self, p, q):
        product = p * q
        assert product == term_product(p, q)
        assert all(type(seq) is tuple and seq and seq[-1] for seq in product._parts.values())
        assert hash(product) == hash(term_product(p, q))
        assert product._terms == dict(term_product(p, q).terms())
        assert product.weighted_profile() == term_product(p, q).weighted_profile()

    @given(one_weight, one_weight)
    def test_one_weight_products_are_one_weight(self, p, q):
        (n, f), (m, g) = p.weighted_profile(), q.weighted_profile()
        assert (p * q).weighted_profile() == (n + m, tuple(_dense_product(f, g)))

    def test_fast_path_makes_no_canonical_copy(self, monkeypatch):
        p, q = homogeneous(40, range(1, 21)), homogeneous(5, [1, 0, -3])
        monkeypatch.setattr(polyring, "_canonical", None)
        assert (p * q).weighted_profile() == (45, tuple(_dense_product(range(1, 21), [1, 0, -3])))

    def test_tracer_reads_every_product(self):
        root = Path(__file__).resolve().parents[1]
        script = (
            "import json, sys\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'bench')!r}]\n"
            "import tracing\n"
            "from lucaskit import lucas\n"
            "tracer = tracing.Tracer()\n"
            "tracer.install()\n"
            "lucas.lucasnomial(20, 10)\n"
            "print(json.dumps(tracer.metrics(1.0)))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout)
        assert metrics["polyring.mul.calls"] > 0
        assert metrics["polyring.max_coeff_bits"] > 0


class TestPower:
    """``p ** n`` squares only while bits of n remain: bit_length(n) - 1 + popcount(n) - 1 products."""

    @pytest.mark.parametrize("base", [S + 2 * T, Poly1({0: 3, 1: -2})], ids=["Poly2", "Poly1"])
    def test_multiply_count_and_value(self, base, monkeypatch):
        cls, one = type(base), base ** 0
        mul_ = cls.__mul__
        count = []
        monkeypatch.setattr(cls, "__mul__", lambda a, b: count.append(1) or mul_(a, b))
        for n in range(34):
            count.clear()
            value = base**n
            assert len(count) == (n.bit_length() + bin(n).count("1") - 2 if n else 0), n
            assert value == reduce(mul_, [base] * n, one), n
        assert one == 1

    def test_negative_power_rejected(self):
        for base in (S, Y):
            with pytest.raises(ValueError):
                base ** -1


class TestPoly1:
    def test_divmod(self):
        num = Poly1({0: -1, 3: 1})  # y^3 - 1
        den = Poly1({0: -1, 1: 1})  # y - 1
        assert poly1_exact_div(num, den) == Poly1({0: 1, 1: 1, 2: 1})

    def test_integral_fraction_coefficients(self):
        assert integral_poly1([Fraction(1, 2) * 2, 0, Fraction(-6, 3)]) == Poly1({0: 1, 2: -2})
        with pytest.raises(ValueError):
            integral_poly1([1, Fraction(1, 2)])

    def test_derivative(self):
        assert Poly1({3: 2, 1: 5}).derivative() == Poly1({2: 6, 0: 5})


class TestPoly1Properties:
    @given(poly1s, poly1s, poly1s)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Poly1() == p and p * 1 == p and p * Poly1() == Poly1()
        assert p - p == Poly1() and p + -p == 0

    @given(poly1s, poly1s, st.fractions(-3, 3, max_denominator=3))
    def test_eval_homomorphism(self, p, q, x):
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)

    @given(poly1s, nonzero_poly1s)
    def test_fraction_divmod(self, a, b):
        f, g = fraction_coeffs(a), fraction_coeffs(b)
        q, r = fraction_divmod(f, g)
        assert as_map([x - y for x, y in zip_longest(f, r, fillvalue=0)]) == monomial_product(q, g)
        assert len(r) < len(g) and (not r or r[-1])

    @given(st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=5), st.lists(st.integers(0, 9), max_size=4))
    def test_canonical_form_and_hash(self, coeffs, zeros):
        plain = Poly1(coeffs)
        padded = Poly1([*coeffs.items(), *((e, 0) for e in zeros)])
        split = Poly1([pair for e, c in coeffs.items() for pair in ((e, 2 * c), (e, -c))])
        for other in (padded, split, plain + Y**7 - Y**7):
            assert other == plain
            assert hash(other) == hash(plain)
            assert other.degree() == plain.degree()

    def test_zero_forms(self):
        for zero in (Poly1({0: 0}), Poly1({3: 0}), Poly1.const(0), Y - Y):
            assert zero == Poly1() and zero == 0 and not zero
            assert hash(zero) == hash(Poly1())
            assert zero.degree() == -1

    def test_coefficient_sequence_route(self):
        f = CoeffSeq(4, (1, 3, 2)).generating_function()
        assert f == Poly1({0: 1, 1: 3, 2: 2})
        assert hash(f) == hash(Poly1({0: 1, 1: 3, 2: 2}))
        assert type(f.coeff(1)) is int

    @given(poly1s, st.integers(1, 4))
    def test_coeff_out_of_range(self, p, gap):
        for e in (-gap, p.degree() + gap):
            assert p.coeff(e) == 0
            assert type(p.coeff(e)) is int
        for e in range(p.degree() + 1):
            assert type(p.coeff(e)) is int
        assert p == Poly1({e: p.coeff(e) for e in range(p.degree() + 1)})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly1({-1: 1})


# Distinct rational real roots and distinct y^2 + b factors (b > 0), each with a multiplicity.
real_roots = st.dictionaries(st.fractions(-4, 4, max_denominator=3), st.integers(1, 3), max_size=3)
quadratics = st.dictionaries(st.fractions(0, 4, max_denominator=3).filter(bool), st.integers(1, 3), max_size=2)
nonzero_scalars = st.integers(-20, 20).filter(bool)


def product(factors) -> Poly1:
    return reduce(mul, factors, Poly1.const(1))


def linear(a: Fraction) -> Poly1:
    """q*y - p for a = p/q: the primitive integer multiple of y - a."""
    return a.denominator * Y - a.numerator


def quadratic(b: Fraction) -> Poly1:
    """q*y^2 + p for b = p/q: the primitive integer multiple of y^2 + b."""
    return b.denominator * Y**2 + b.numerator


class TestSturmOracle:
    """f = c * prod (y - a)^m * prod (y^2 + b)^n, up to positive factors, built by multiplication only."""

    @staticmethod
    def factors(roots, quads, extra=0):
        return [linear(a) ** (m - extra) for a, m in roots.items()] + [
            quadratic(b) ** (n - extra) for b, n in quads.items()
        ]

    @given(real_roots, quadratics, nonzero_scalars)
    def test_known_roots(self, roots, quads, c):
        f = c * product(self.factors(roots, quads))
        assert count_real_roots(f) == len(roots)
        assert real_rooted(f) == (not quads)
        expected_gcd = poly1_primitive(product(self.factors(roots, quads, extra=1)))
        assert poly1_gcd(f, f.derivative()) == expected_gcd
        assert expected_gcd.coeff(expected_gcd.degree()) > 0

    def test_repeated_roots_of_both_kinds(self):
        f = -3 * (Y - 1) ** 3 * (2 * Y + 1) ** 2 * (Y**2 + 2) ** 2
        assert count_real_roots(f) == 2
        assert not real_rooted(f)
        assert poly1_gcd(f, f.derivative()) == (Y - 1) ** 2 * (2 * Y + 1) * (Y**2 + 2)


# Factors that reach every branch of the chain: rational roots, y^2 + b with
# b > 0 (complex pair), b == 0 (double root) or b < 0 (irrational reals), and
# arbitrary integer polynomials, each with a multiplicity.
chain_factors = st.tuples(
    st.one_of(
        st.fractions(-4, 4, max_denominator=3).map(linear),
        st.fractions(-4, 4, max_denominator=3).map(quadratic),
        nonzero_poly1s,
    ),
    st.integers(1, 3),
).map(lambda fm: fm[0] ** fm[1])
nonzero_chain_polys = st.tuples(st.lists(chain_factors, max_size=4), nonzero_scalars).map(
    lambda fc: fc[1] * product(fc[0])
)
maybe_zero_chain_polys = st.one_of(st.just(Poly1()), nonzero_chain_polys)


class TestRemainderChainOracle:
    """The integer pseudo-remainder chain decides as the Fraction chain does."""

    @given(nonzero_chain_polys)
    def test_real_rooted_and_root_count(self, f):
        assert real_rooted(f) == fraction_real_rooted(f)
        assert count_real_roots(f) == fraction_count_real_roots(f)

    @given(maybe_zero_chain_polys, maybe_zero_chain_polys, maybe_zero_chain_polys)
    def test_gcd(self, a, b, common):
        f, g = a * common, b * common
        expected = fraction_poly1_gcd(f, g)
        assert poly1_gcd(f, g) == expected
        assert expected.coeff(expected.degree()) > 0 and expected == poly1_primitive(expected)

    @given(nonzero_chain_polys)
    def test_gcd_with_derivative(self, f):
        assert poly1_gcd(f, f.derivative()) == fraction_poly1_gcd(f, f.derivative())

    @given(nonzero_chain_polys, maybe_zero_chain_polys)
    def test_entries_are_positive_multiples(self, f, g):
        """Entry by entry, the integer chain is the Fraction chain times a positive constant."""
        chain = polyring._remainder_chain(f, g)
        oracle = fraction_remainder_chain(f, g)
        assert len(chain) == len(oracle)
        for ints, entry in zip(chain, oracle):
            assert all(type(c) is int for c in ints)
            lead = entry.coeff(entry.degree())
            assert ints[-1] * lead > 0 and lead * Poly1(enumerate(ints)) == ints[-1] * entry

    def test_constant_and_linear(self):
        for f in (Poly1.const(-3), Poly1.const(2), Poly1({0: 1, 1: -2}), Poly1({1: -2}), 3 * Y + 2):
            assert real_rooted(f) and fraction_real_rooted(f)
            assert count_real_roots(f) == fraction_count_real_roots(f) == f.degree()

    def test_gcd_of_zeros(self):
        assert poly1_gcd(Poly1(), Poly1()) == fraction_poly1_gcd(Poly1(), Poly1()) == Poly1.const(1)
        assert poly1_gcd(Poly1(), -2 * Y + 1) == poly1_gcd(-2 * Y + 1, Poly1()) == 2 * Y - 1

    def test_integer_input_creates_no_fraction(self, monkeypatch):
        f = CoeffSeq(20, (1, 30, 255, 780, 780, 255, 30, 1)).generating_function()
        g = f.derivative()
        created = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            created.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        chain = polyring._remainder_chain(f, g)
        monkeypatch.undo()
        assert created == []
        assert len(chain) == 8 and all(type(c) is int for seq in chain for c in seq)


class TestTracerHooks:
    """bench/tracing.py wraps these names; a traced analyze must still run."""

    def test_tracer_installs_and_reports(self):
        root = Path(__file__).resolve().parents[1]
        script = (
            "import importlib, json, sys\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'bench')!r}]\n"
            "import tracing\n"
            "from lucaskit import analysis\n"
            "tracer = tracing.Tracer()\n"
            "tracer.install()\n"
            "lucas = importlib.import_module('lucaskit.lucas')\n"
            "analysis.analyze(lucas.lucasnomial(9, 4))\n"
            "lucas.lucastorial(5)\n"
            "print(json.dumps(tracer.metrics(1.0)))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout)
        assert metrics["analysis.analyze.calls"] == 1
        assert metrics["polyring.real_rooted.calls"] == 1
        assert metrics["lucas.lucasnomial.calls"] == 1
        assert metrics["lucas.lucastorial.misses"] > 0

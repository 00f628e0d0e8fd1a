"""Lucas sequence, Lucastorials, Lucasnomials and their identities."""

import math

import pytest

from oracles import fib, gaussian_binomial, integer_d_binomial
from lucaskit.lucas import (
    chebyshev_U,
    d_lucasnomial,
    d_lucastorial,
    lucas,
    lucas_divides,
    lucasnomial,
    lucastorial,
    verify_chebyshev_bridge,
    verify_gcd_lemma,
    verify_lucasnomial_recursion,
    verify_symmetry_identity,
)
from lucaskit.polyring import Poly1, Poly2, coeff_view

S = Poly2.var_s()
T = Poly2.var_t()


class TestLucas:
    def test_base_cases(self):
        assert lucas(0) == Poly2.zero()
        assert lucas(1) == Poly2.one()

    def test_small_values(self):
        assert lucas(2) == S
        assert lucas(3) == S**2 + T
        assert lucas(4) == S**3 + 2 * S * T

    def test_recurrence_step(self):
        assert lucas(5) == S**4 + 3 * S**2 * T + T**2
        assert lucas(5) == S * lucas(4) + T * lucas(3)

    def test_specialization_chain(self):
        for n in range(31):
            assert lucas(n).evaluate(1, 1) == fib(n)
            assert lucas(n).evaluate(2, -1) == n
        for n in range(31):
            assert lucas(n).specialize_q() == Poly1({e: 1 for e in range(n)})


class TestLucastorial:
    def test_empty_product(self):
        assert lucastorial(0) == Poly2.one()

    def test_three(self):
        assert lucastorial(3) == S**3 + S * T

    def test_four_multiplies_back(self):
        assert lucastorial(4) == (S**3 + S * T) * (S**3 + 2 * S * T)


class TestLucasnomial:
    def test_four_choose_two(self):
        assert lucasnomial(4, 2) == S**4 + 3 * S**2 * T + 2 * T**2

    def test_edge_k(self):
        for n in range(8):
            assert lucasnomial(n, 0) == Poly2.one()
            assert lucasnomial(n, n) == Poly2.one()

    def test_out_of_range_is_zero(self):
        assert lucasnomial(4, -1) == Poly2.zero()
        assert lucasnomial(4, 5) == Poly2.zero()

    def test_binomial_specialization(self):
        for n in range(21):
            for k in range(n + 1):
                assert lucasnomial(n, k).evaluate(2, -1) == math.comb(n, k)

    def test_gaussian_specialization(self):
        for n in range(11):
            for k in range(n + 1):
                assert lucasnomial(n, k).specialize_q() == gaussian_binomial(n, k)

    def test_nonnegative_and_weight(self):
        for n in range(13):
            for k in range(n + 1):
                p = lucasnomial(n, k)
                assert p.is_nonnegative()
                if p:
                    assert coeff_view(p).weight == k * (n - k)


class TestRecursion:
    def test_small_cases(self):
        assert verify_lucasnomial_recursion(4, 2)
        assert verify_lucasnomial_recursion(2, 1)

    def test_sweep(self):
        assert all(verify_lucasnomial_recursion(n, k) for n in range(2, 13) for k in range(1, n))


class TestSymmetry:
    def test_paper_instance(self):
        assert verify_symmetry_identity(7, 5, 2)

    def test_plain_symmetry(self):
        # r = 0 is {n brace k} = {n brace n-k}
        for n in range(13):
            for k in range(n + 1):
                assert lucasnomial(n, k) == lucasnomial(n, n - k)

    def test_full_telescoping(self):
        # r = k: the prefix product is a whole Lucastorial
        n, k = 6, 4
        assert verify_symmetry_identity(n, k, k)
        lhs = lucasnomial(n, k) * lucastorial(k)
        rhs = lucasnomial(n, n)
        for j in range(1, k + 1):
            rhs = rhs * lucas(n - k + j)
        assert lhs == rhs


class TestDDivisible:
    def test_two_two(self):
        assert d_lucastorial(2, 2) == S**4 + 2 * S**2 * T

    def test_empty(self):
        assert d_lucastorial(0, 3) == Poly2.one()

    def test_d_one_degenerates(self):
        assert d_lucastorial(3, 1) == lucastorial(3)
        for n in range(8):
            for k in range(n + 1):
                assert d_lucasnomial(n, k, 1) == lucasnomial(n, k)

    def test_type_b_value(self):
        assert d_lucasnomial(4, 2, 2).evaluate(2, -1) == 6

    def test_integer_specialization(self):
        for d in range(1, 4):
            for n in range(11):
                for k in range(n + 1):
                    assert d_lucasnomial(n, k, d).evaluate(2, -1) == integer_d_binomial(n, k, d)

    def test_edge_k(self):
        assert d_lucasnomial(5, 0, 3) == Poly2.one()


class TestDivides:
    def test_quotient(self):
        assert lucas_divides(2, 4) == S**2 + 2 * T

    def test_self(self):
        assert lucas_divides(7, 7) == Poly2.one()

    def test_absent(self):
        assert lucas_divides(2, 3) is None

    def test_both_directions(self):
        for m in range(1, 21):
            for n in range(1, 21):
                quotient = lucas_divides(m, n)
                assert (quotient is not None) == (n % m == 0)
                if quotient is not None:
                    assert quotient.is_nonnegative()
                    assert quotient * lucas(m) == lucas(n)


class TestGcdLemma:
    def test_examples(self):
        assert verify_gcd_lemma(4, 6)
        assert verify_gcd_lemma(5, 7)
        assert verify_gcd_lemma(9, 9)

    def test_sweep(self):
        assert all(verify_gcd_lemma(m, n) for m in range(1, 13) for n in range(1, 13))


class TestChebyshev:
    def test_base(self):
        assert chebyshev_U(0) == Poly1.const(1)
        assert chebyshev_U(1) == Poly1({1: 2})

    def test_one_step(self):
        assert chebyshev_U(2) == Poly1({2: 4, 0: -1})

    def test_value_at_one(self):
        for n in range(10):
            assert chebyshev_U(n).evaluate(1) == n + 1

    def test_bridge(self):
        assert all(verify_chebyshev_bridge(n) for n in range(1, 31))

    def test_bridge_example(self):
        image = lucas(4).substitute(Poly1({1: 2}), Poly1.const(-1))
        assert image == Poly1({3: 8, 1: -4})


class TestErrors:
    def test_negative_index(self):
        with pytest.raises(ValueError):
            lucas(-1)
        with pytest.raises(ValueError):
            verify_lucasnomial_recursion(3, 3)
        with pytest.raises(ValueError):
            verify_symmetry_identity(3, 2, 3)


def test_lucas_module_not_shadowed():
    import sys

    import lucaskit

    assert lucaskit.lucas is sys.modules["lucaskit.lucas"]


class TestCacheConcurrency:
    def test_parallel_reads_and_extensions(self):
        from concurrent.futures import ThreadPoolExecutor

        from lucaskit.lucas import LucasCache

        cache = LucasCache()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(cache.get, [120] * 16 + list(range(100))))
        assert all(p == results[0] for p in results[:16])
        for n, p in zip(range(100), results[16:]):
            assert p == lucas(n)

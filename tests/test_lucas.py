"""Lucas sequence, Lucastorials, Lucasnomials and their identities."""

import importlib
import itertools
import math
import random

import pytest

from oracles import (
    cyclotomic,
    factorial_quotient,
    fib,
    gaussian_binomial,
    integer_d_binomial,
    loop_d_lucastorial,
    one_shot_atom_values,
)
from lucaskit.lucas import (
    NegativeAtom,
    atom_values,
    chebyshev_U,
    d_lucasnomial,
    d_lucastorial,
    lucas,
    lucas_atom,
    lucas_divides,
    lucas_quotient,
    lucasnomial,
    lucastorial,
    verify_chebyshev_bridge,
    verify_gcd_lemma,
    verify_lucasnomial_recursion,
    verify_symmetry_identity,
)
from lucaskit.polyring import NotDivisible, Poly1, Poly2, coeff_view

S = Poly2.var_s()
T = Poly2.var_t()
# The package re-exports the function lucas() over the submodule of that name.
lucas_module = importlib.import_module("lucaskit.lucas")


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

    def test_negative_n_refused(self):
        # Its own refusal, which the CLI prints, not d_lucasnomial's.
        with pytest.raises(ValueError, match="^negative Lucasnomial index$"):
            lucasnomial(-1, 0)

    def test_binomial_specialization(self):
        for n in range(21):
            for k in range(n + 1):
                assert lucasnomial(n, k).evaluate(2, -1) == math.comb(n, k)

    def test_gaussian_specialization(self):
        for n in range(11):
            for k in range(n + 1):
                assert lucasnomial(n, k).specialize_q() == gaussian_binomial(n, k)

    def test_is_the_d_one_value(self):
        # One rule: the d = 1 Lucasnomial is d_lucasnomial's cached value itself, not a copy.
        for n in range(13):
            for k in range(n + 1):
                assert lucasnomial(n, k) is d_lucasnomial(n, k, 1), (n, k)

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
        # r = 0 is {n brace k} = {n brace n-k}.  Both keys share one cached
        # value, so each side is checked against its own index lists instead.
        for n in range(13):
            for k in range(n + 1):
                for j in (k, n - k):
                    expected = factorial_quotient(range(1, n + 1), [*range(1, j + 1), *range(1, n - j + 1)])
                    assert lucasnomial(n, j) == expected, (n, k, j)

    def test_d_symmetry(self):
        for d in (2, 3):
            for n in range(11):
                for k in range(n + 1):
                    for j in (k, n - k):
                        den = [*range(d, j * d + 1, d), *range(d, (n - j) * d + 1, d)]
                        expected = factorial_quotient(range(d, n * d + 1, d), den)
                        assert d_lucasnomial(n, j, d) == expected, (n, k, j, d)

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

    @pytest.mark.parametrize("d", range(1, 4))
    def test_matches_the_loop_product(self, d):
        for n in range(13):
            assert d_lucastorial(n, d) == loop_d_lucastorial(n, d), (n, d)

    @pytest.mark.parametrize("n, d", [(-1, 1), (2, 0)])
    def test_bad_arguments_refused(self, n, d):
        with pytest.raises(ValueError, match="need n >= 0 and d >= 1"):
            d_lucastorial(n, d)

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


class TestLucasAtoms:
    def test_atoms_multiply_to_lucas(self):
        for n in range(1, 61):
            product = Poly2.one()
            for d in range(2, n + 1):
                if n % d == 0:
                    product = product * lucas_atom(d)
            assert product == lucas(n), n

    def test_atoms_nonnegative(self):
        assert all(lucas_atom(d).is_nonnegative() for d in range(2, 81))

    def test_q_specialization_is_cyclotomic(self):
        for d in range(2, 41):
            assert lucas_atom(d).specialize_q() == cyclotomic(d), d


class TestAtomValues:
    @pytest.mark.parametrize("y0", [1, 2, 3, 7])
    def test_match_the_atoms(self, y0):
        weights, values = atom_values(y0, 61)
        for d in range(2, 61):
            atom = lucas_atom(d)
            assert values[d] == atom.evaluate(1, y0), d
            assert weights[d] == coeff_view(atom).weight, d

    def test_weights_are_totients(self):
        weights, _ = atom_values(1, 200)
        assert all(weights[d] == sum(math.gcd(j, d) == 1 for j in range(1, d + 1)) for d in range(2, 200))

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_a_growing_sieve_gives_the_one_shot_tables(self, order):
        bounds = [0, 1, 2, 3, 4, 7, 8, 30, 31, 64, 97, 128, 300]
        if order != "ascending":
            bounds.reverse()
        if order == "shuffled":
            random.Random(1).shuffle(bounds)
        lucas_module._SIEVES.clear()
        atom_values.cache_clear()
        for bound in bounds:
            for y0 in (1, 2, 3):
                assert atom_values(y0, bound) == one_shot_atom_values(y0, bound), (y0, bound)
        assert sorted(lucas_module._SIEVES) == [1, 2, 3]
        assert all(len(values) == 300 for _, values, _ in lucas_module._SIEVES.values())

    def test_a_larger_bound_keeps_the_entries_it_has(self):
        lucas_module._SIEVES.clear()
        atom_values.cache_clear()
        weights, values = atom_values(2, 100)
        # Mark an entry: a sieve run again from d = 2 would overwrite it, a grown one keeps it.
        marked = values[:67] + (-1,) + values[68:]  # 67 divides no new entry
        lucas_module._SIEVES[2] = weights, marked, lucas_module._SIEVES[2][2]
        try:
            grown = atom_values(2, 102)
            assert grown[1][:100] == marked
            assert grown[1][100:] == one_shot_atom_values(2, 102)[1][100:]
        finally:
            lucas_module._SIEVES.clear()
            atom_values.cache_clear()


class TestQuotientEngine:
    """``lucas_quotient`` against multiplying out and dividing once."""

    def test_lucasnomial_matches_factorial_quotient(self):
        for n in range(25):
            for k in range(n + 1):
                expected = factorial_quotient(range(1, n + 1), [*range(1, k + 1), *range(1, n - k + 1)])
                assert lucasnomial(n, k) == expected, (n, k)

    def test_d_lucasnomial_matches_factorial_quotient(self):
        for d in (2, 3, 4):
            for n in range(11):
                for k in range(n + 1):
                    den = [*range(d, k * d + 1, d), *range(d, (n - k) * d + 1, d)]
                    expected = factorial_quotient(range(d, n * d + 1, d), den)
                    assert d_lucasnomial(n, k, d) == expected, (n, k, d)

    def test_two_by_two_divisibility_matches_oracle(self):
        pairs = list(itertools.combinations_with_replacement(range(1, 11), 2))
        for num in pairs:
            for den in pairs:
                try:
                    expected = factorial_quotient(num, den)
                except NotDivisible:
                    with pytest.raises(NotDivisible):
                        lucas_quotient(num, den)
                else:
                    assert lucas_quotient(num, den) == expected, (num, den)

    def test_index_below_one_rejected(self):
        for num, den in (([0], []), ([3], [0]), ([4, -1], [2])):
            with pytest.raises(ValueError):
                lucas_quotient(num, den)

    def test_names_the_blocking_atom(self):
        with pytest.raises(NotDivisible, match="P_4"):
            lucas_quotient([6], [4])
        # {5} = P_5 and {6} = P_2 P_3 P_6: three atoms go negative, the smallest is named.
        with pytest.raises(NotDivisible, match=r"P_2\b"):
            lucas_quotient([5], [6])

    def test_carries_the_blocking_atom(self):
        # {12}/{4}^3: P_2 and P_4 each have exponent 1 - 3.
        with pytest.raises(NegativeAtom) as caught:
            lucas_quotient([12], [4, 4, 4])
        assert (caught.value.d, caught.value.exponent) == (2, -2)
        assert str(caught.value) == "not a polynomial: atom P_2 has exponent -2"
        assert isinstance(caught.value, NotDivisible)


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

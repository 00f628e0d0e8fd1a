"""Item pools, library calls and independent checks for the four workloads.

Each workload has a fixed pool of items in a canonical order; a seed only
picks the orders items are issued in and the oracle's evaluation points, so
the total distinct work of a pass does not depend on the seed.  An item is
one public library call.  Its result is checked afterwards, outside the timed
loop, against oracles that never touch ``Poly2`` arithmetic or the tiling
code: ``{n}`` at an integer point comes from the defining recurrence and
tiling counts from Fibonacci products.  A digest of the result's
``to_json_dict`` must also equal the one pinned in ``pins.json``.

``sys.path`` must already hold the checkout's ``src`` directory.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

from lucaskit import analysis, coxcat, involution, shapes_tilings
from lucaskit.coxcat import CoxeterType
from lucaskit.polyring import Poly2

# The package re-exports the function lucas() over the submodule of that name.
lucas = importlib.import_module("lucaskit.lucas")

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

COXETER_TYPES = (
    [CoxeterType("A", n) for n in range(1, 9)]
    + [CoxeterType("B", n) for n in range(2, 9)]
    + [CoxeterType("D", n) for n in range(4, 9)]
    + [CoxeterType("I2", m) for m in range(5, 13)]
    + [CoxeterType(f) for f in ("H3", "H4", "F4", "E6", "E7", "E8")]
)


@dataclass(frozen=True)
class Item:
    """One library call: ``fn`` names it, ``args`` are its arguments, ``spec``
    holds what the checker needs (index lists, theorem flags)."""

    id: str
    fn: str
    args: tuple
    spec: dict


# -- oracles ----------------------------------------------------------------------


class LucasValues:
    """{n}(s0, t0) from {0} = 0, {1} = 1, {n} = s0{n-1} + t0{n-2}, in integers."""

    def __init__(self, s0: int, t0: int):
        self.s0, self.t0 = s0, t0
        self._vals = [0, 1]

    def __call__(self, n: int) -> int:
        vals = self._vals
        while len(vals) <= n:
            vals.append(self.s0 * vals[-1] + self.t0 * vals[-2])
        return vals[n]

    def is_quotient(self, value: int, num, den) -> bool:
        """value == prod {num} / prod {den} at (s0, t0)."""
        bottom = math.prod(self(b) for b in den)
        if bottom == 0:
            raise ValueError(f"a denominator vanishes at {(self.s0, self.t0)}")
        return value * bottom == math.prod(self(a) for a in num)


@functools.lru_cache(maxsize=None)
def lucas_values(s0: int, t0: int) -> LucasValues:
    return LucasValues(s0, t0)


def eval_points(seed: int) -> list[tuple[int, int]]:
    """Two integer points at which no {n}, n >= 1, vanishes.

    The first has s0, t0 > 0.  The second has t0 < 0 with s0^2 + 4 t0 > 0, so
    the characteristic roots are distinct positive reals.
    """
    rng = random.Random(f"points:{seed}")
    s1, t1 = rng.randint(1, 9), rng.randint(1, 9)
    s2 = rng.randint(3, 9)
    t2 = -rng.randint(1, (s2 * s2 - 1) // 4)
    return [(s1, t1), (s2, t2)]


def coeff_seq(poly_json: dict) -> tuple[int, list[int]] | None:
    """(N, a_0..a_m) with p = sum a_k s^(N-2k) t^k, read from a Poly2's wire
    form; None unless p is nonzero and weighted homogeneous."""
    terms = [(int(t["s"]), int(t["t"]), int(t["c"])) for t in poly_json["terms"]]
    weights = {a + 2 * b for a, b, _ in terms}
    if len(weights) != 1:
        return None
    coeffs = [0] * (max(b for _, b, _ in terms) + 1)
    for _, b, c in terms:
        coeffs[b] = c
    return weights.pop(), coeffs


def eval_seq(weight: int, coeffs: list[int], s0: int, t0: int) -> int:
    """sum a_k s0^(N-2k) t0^k, by Horner's rule in s0^2 and t0."""
    acc, t_pow, s_sq = 0, 1, s0 * s0
    for c in coeffs:
        acc = acc * s_sq + c * t_pow
        t_pow *= t0
    return acc * s0 ** (weight - 2 * (len(coeffs) - 1))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_quotient(poly_json: dict, num, den, points, nonneg: bool) -> list[str]:
    """Weight, point values and, where a theorem says so, signs of {num}/{den}."""
    seq = coeff_seq(poly_json)
    weight = sum(a - 1 for a in num) - sum(b - 1 for b in den)
    if seq is None or seq[0] != weight:
        return [f"not a nonzero homogeneous polynomial of weight {weight}"]
    problems = []
    for s0, t0 in points:
        if not lucas_values(s0, t0).is_quotient(eval_seq(*seq, s0, t0), num, den):
            problems.append(f"value at {(s0, t0)} disagrees with the recurrence")
    if nonneg and any(c <= 0 for c in seq[1]):
        problems.append("a coefficient is not positive where a theorem says it is")
    return problems


def fac(n: int, d: int = 1) -> list[int]:
    """The indices of {n:d}! = {d}{2d}...{nd}."""
    return [j * d for j in range(1, n + 1)]


def binom_lists(n: int, k: int, d: int = 1) -> tuple[list[int], list[int]]:
    """Numerator and denominator indices of {n:d brace k:d}."""
    return fac(n, d), fac(k, d) + fac(n - k, d)


# -- workloads --------------------------------------------------------------------


class Workload:
    """A fixed pool plus the call, check and corruption of its items."""

    name = ""

    def pool(self) -> list[Item]:
        raise NotImplementedError

    def prepare(self, items: list[Item]) -> dict:
        """Set-up work done before the first item is issued; returns a context."""
        return {}

    def call(self, item: Item, ctx: dict):
        raise NotImplementedError

    def to_json(self, result):
        return result.to_json_dict()

    def check(self, item: Item, result, ctx: dict, points, pins: dict) -> list[str]:
        """Problems found with one item's result; empty when it is correct."""
        data = self.to_json(result)
        problems = self.check_value(item, result, data, ctx, points)
        want = pins["digests"].get(item.id)
        if want is None:
            problems.append("no pinned digest")
        elif digest(data) != want:
            problems.append("digest differs from the pinned one")
        return problems

    def check_value(self, item: Item, result, data, ctx: dict, points) -> list[str]:
        """Oracle checks of a result whose wire form is ``data``."""
        raise NotImplementedError

    def corrupt(self, result):
        """A deliberately wrong copy of a result, for the self-tests."""
        raise NotImplementedError


class Quotients(Workload):
    name = "quotients"

    def pool(self) -> list[Item]:
        items = []

        def add(fn, args, num, den, nonneg):
            ident = ":".join([fn] + [str(a) for a in args])
            items.append(Item(ident, fn, args, dict(num=num, den=den, nonneg=nonneg)))

        for n in range(41):
            for k in range(n + 1):
                add("lucasnomial", (n, k), *binom_lists(n, k), True)
        for d in (2, 3):
            for n in range(13):
                for k in range(n + 1):
                    add("d_lucasnomial", (n, k, d), *binom_lists(n, k, d), True)
        for n in range(31):
            add("lucas_catalan", (n,), fac(2 * n), fac(n) + fac(n + 1), True)
        for n in range(11):
            for k in range(1, 5):
                add("fuss_catalan", (n, k), fac((k + 1) * n), fac(n) + fac(k * n + 1), True)
        for w in COXETER_TYPES:
            h = w.coxeter_number()
            for k in range(1, 4):
                # Nonnegativity is a theorem for k = 1 and for the infinite families.
                add("coxeter_fuss_catalan", (w, k), [k * h + d for d in w.degrees()], list(w.degrees()),
                    k == 1 or w.family in ("A", "B", "D", "I2"))
        for a in range(1, 21):
            for b in range(a + 1, 21):
                if math.gcd(a, b) == 1:
                    add("rational_catalan", (a, b), fac(a + b), fac(a) + fac(b) + [a + b], False)
        for n in range(1, 41):
            for k in range(1, n + 1):
                add("narayana", (n, k), fac(n) * 2, fac(k) + fac(n - k) + fac(k - 1) + fac(n - k + 1) + [n], False)
        for m in range(1, 31):
            for n in range(1, 31):
                add("lucas_divides", (m, n), [n], [m], True)
        return items

    def call(self, item: Item, ctx: dict):
        module = lucas if item.fn in ("lucasnomial", "d_lucasnomial", "lucas_divides") else coxcat
        return getattr(module, item.fn)(*item.args)

    def to_json(self, result):
        return None if result is None else result.to_json_dict()

    def check_value(self, item: Item, result, data, ctx: dict, points) -> list[str]:
        if item.fn == "lucas_divides":
            m, n = item.args
            if (result is not None) != (n % m == 0):
                return [f"presence of {{{n}}}/{{{m}}} disagrees with m | n"]
            if result is None:
                return []
        if not isinstance(result, Poly2):
            return [f"result is {type(result).__name__}, not Poly2"]
        spec = item.spec
        return check_quotient(data, spec["num"], spec["den"], points, spec["nonneg"])

    def corrupt(self, result):
        if result is None:
            return Poly2.one()
        first = result.terms()[0][0]
        return result + Poly2.monomial(*first)


class Partitions(Workload):
    name = "partitions"

    def pool(self) -> list[Item]:
        # spec: the partial sum is num/den, the divisor is {den}, and rows are
        # the row lengths of the variant's shape.  Of the shapes with more than
        # 10^4 tilings, one start each is kept (the others walk the same shape
        # and code), so that a pass stays short enough to repeat within a run.
        heavy = {(8, 4), (4, 2, 3)}
        items = []
        for n in range(9):
            for k in range(n + 1):
                if n < 8 or (n, k) in heavy:
                    num, den = binom_lists(n, k)
                    items.append(Item(f"binomial:{n}:{k}", "Binomial", (n, k),
                                      dict(num=num, den=den, rows=list(range(n - 1, 0, -1)))))
        for n in range(5):
            items.append(Item(f"catalan:{n}", "Catalan", (n,), dict(
                num=fac(2 * n), den=fac(n) + fac(n + 1), rows=list(range(2 * n - 1, 0, -1)))))
        for n, k in ((2, 2), (2, 3)):
            items.append(Item(f"fuss:{n}:{k}", "FussCatalan", (n, k), dict(
                num=fac((k + 1) * n), den=fac(n) + fac(k * n + 1), rows=list(range((k + 1) * n - 1, 0, -1)))))
        for d in range(1, 4):
            for n in range(5):
                for k in range(n + 1):
                    if d < 3 or n < 4 or (n, k, d) in heavy:
                        num, den = binom_lists(n, k, d)
                        rows = list(range(n - 1, 0, -1)) if d == 1 else [j * d - 1 for j in range(n, 0, -1)]
                        items.append(Item(f"ddivisible:{n}:{k}:{d}", "DDivisible", (n, k, d),
                                          dict(num=num, den=den, rows=rows)))
        return items

    def prepare(self, items: list[Item]) -> dict:
        return {item.id: getattr(shapes_tilings, item.fn)(*item.args) for item in items}

    def call(self, item: Item, ctx: dict):
        return shapes_tilings.verify_block_partition(ctx[item.id])

    def check(self, item: Item, result, ctx: dict, points, pins: dict) -> list[str]:
        problems = super().check(item, result, ctx, points, pins)
        if result.block_count != pins["blocks"].get(item.id):
            problems.append(f"{result.block_count} blocks, pinned {pins['blocks'].get(item.id)}")
        return problems

    def check_value(self, item: Item, report, data, ctx: dict, points) -> list[str]:
        spec = item.spec
        problems = list(report.failures)
        fib = lucas_values(1, 1)
        tilings = math.prod(fib(m + 1) for m in spec["rows"])  # a row of m cells has F_{m+1} tilings
        if report.tiling_count != tilings:
            problems.append(f"{report.tiling_count} tilings, Fibonacci product says {tilings}")
        # Every block weighs divisor * (a monomial), so each holds divisor(1,1) tilings.
        block_size = math.prod(fib(b) for b in spec["den"])
        if report.block_count * block_size != tilings:
            problems.append(f"{report.block_count} blocks of {block_size} do not cover {tilings} tilings")
        return problems + check_quotient(data["partial_sum"], spec["num"], spec["den"], [(1, 1), (2, -1)] + points,
                                         nonneg=True)

    def corrupt(self, report):
        return replace(report, block_count=report.block_count + 1, failures=list(report.failures))


class Involution(Workload):
    name = "involution"

    def pool(self) -> list[Item]:
        # spec: index lists of the symmetry identity's two sides.
        items = []
        for n in range(7):
            for k in range(n + 1):
                for r in range(k + 1):
                    num_l, den_l = binom_lists(n, k)
                    num_r, den_r = binom_lists(n, n - k + r)
                    items.append(Item(f"involution:{n}:{k}:{r}", "verify_involution", (n, k, r), dict(
                        lhs=(num_l + [k - i for i in range(r)], den_l),
                        rhs=(num_r + [n - k + j for j in range(1, r + 1)], den_r))))
        return items

    def call(self, item: Item, ctx: dict):
        return involution.verify_involution(*item.args)

    def check_value(self, item: Item, report, data, ctx: dict, points) -> list[str]:
        spec = item.spec
        problems = list(report.failures)
        fib = lucas_values(1, 1)
        if not fib.is_quotient(report.class_size, *spec["lhs"]):
            problems.append(f"class size {report.class_size} != symmetry LHS at (1,1)")
        if not fib.is_quotient(report.target_size, *spec["rhs"]):
            problems.append(f"mirror class size {report.target_size} != symmetry RHS at (1,1)")
        return problems + check_quotient(data["class_sum"], *spec["lhs"], points, nonneg=True)

    def corrupt(self, report):
        return replace(report, class_size=report.class_size + 1, failures=list(report.failures))


class Diagnostics(Workload):
    name = "diagnostics"
    # The Coxeter types whose analyze() takes longest (about 1 s each on a
    # 2.1 GHz Xeon, E8 about 28 s); left out so a pass repeats within a run.
    SLOW_TYPES = ("B8", "H4", "E7", "E8")

    def pool(self) -> list[Item]:
        items = []
        for n in range(1, 17):
            for k in range(n + 1):
                items.append(Item(f"analyze:lucasnomial:{n}:{k}", "lucasnomial", (n, k), {}))
        for n in range(1, 9):
            items.append(Item(f"analyze:lucas_catalan:{n}", "lucas_catalan", (n,), {}))
        for w in COXETER_TYPES:
            if str(w) not in self.SLOW_TYPES:
                items.append(Item(f"analyze:coxeter_catalan:{w}", "coxeter_catalan", (w,), {}))
        return items

    def prepare(self, items: list[Item]) -> dict:
        return {item.id: getattr(lucas if item.fn == "lucasnomial" else coxcat, item.fn)(*item.args)
                for item in items}

    def call(self, item: Item, ctx: dict):
        return analysis.analyze(ctx[item.id])

    def check_value(self, item: Item, report, data, ctx: dict, points) -> list[str]:
        weight, coeffs = coeff_seq(ctx[item.id].to_json_dict())
        problems = []
        if report.weight != weight or list(report.coeffs) != coeffs:
            problems.append("coefficient sequence differs from the polynomial's terms")
        peak = coeffs.index(max(coeffs))
        unimodal = all(x <= y for x, y in zip(coeffs[:peak], coeffs[1:peak + 1])) and all(
            x >= y for x, y in zip(coeffs[peak:], coeffs[peak + 1:]))
        log_concave = all(coeffs[i] ** 2 >= coeffs[i - 1] * coeffs[i + 1] for i in range(1, len(coeffs) - 1))
        if report.unimodal != unimodal:
            problems.append(f"unimodal is {report.unimodal}, should be {unimodal}")
        if report.log_concave != log_concave:
            problems.append(f"log_concave is {report.log_concave}, should be {log_concave}")
        if report.real_rooted:
            # Newton's inequalities hold for every real-rooted polynomial.
            m = len(coeffs) - 1
            if any(coeffs[i] ** 2 * i * (m - i) < coeffs[i - 1] * coeffs[i + 1] * (i + 1) * (m - i + 1)
                   for i in range(1, m)):
                problems.append("real_rooted, but Newton's inequalities fail")
        return problems

    def corrupt(self, report):
        return replace(report, coeffs=(report.coeffs[0] + 1,) + tuple(report.coeffs[1:]))


WORKLOADS = {w.name: w for w in (Quotients(), Partitions(), Involution(), Diagnostics())}


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def make_pins(workload: Workload, items: list[Item], results: list) -> dict:
    """The pins.json entry of a workload, from results trusted to be correct."""
    entry = {"digests": {item.id: digest(workload.to_json(res)) for item, res in zip(items, results)}}
    if workload.name == "partitions":
        entry["blocks"] = {item.id: res.block_count for item, res in zip(items, results)}
    return entry

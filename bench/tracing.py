"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public entry points of each layer once and
rebinds that single wrapper wherever a ``lucaskit`` module holds the original
(``coxcat``, ``involution`` and ``shapes_tilings`` import several of them by
name, so wrapping each binding separately would count nested calls twice).
Every call records a span: name, start, end, parent span and item index.
Spans stay in memory; ``write_spans`` puts them in a file when the pass ends.
A span's self time is its duration minus the time its child spans cover.
Counts are taken in the same wrappers, and ``lru_cache`` hits and misses are
read from the original functions.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

from lucaskit import analysis, coxcat, involution, polyring, shapes_tilings
from lucaskit.shapes_tilings import count_tilings
from run import LAYERS

# The package re-exports the function lucas() over the submodule of that name.
lucas = importlib.import_module("lucaskit.lucas")

COXCAT_QUOTIENTS = ("lucas_catalan", "fuss_catalan", "coxeter_catalan", "coxeter_fuss_catalan",
                    "rational_catalan", "narayana")


def _max_bits(poly) -> int:
    # Reads the term map directly: asking for the weighted profile would do
    # work the library would otherwise do later, inside another span.
    return max((abs(c).bit_length() for c in poly._terms.values()), default=0)


def _seq_len(poly) -> int:
    """Length of the coefficient sequence, or the term count off the homogeneous case."""
    profile = poly.weighted_profile() if poly else None
    return len(profile[1]) if profile else len(poly._terms)


class Tracer:
    """Spans and counters of one pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent index, item index)
        self.stack: list[int] = []
        self.item = -1  # index of the item being issued; -1 during set-up
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.originals: dict = {}  # span name -> the function its wrapper replaced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        Poly2 = polyring.Poly2
        self._wrap_attr(Poly2, "__mul__", "polyring.mul", after=self._after_mul)
        self._wrap_attr(Poly2, "exact_div", "polyring.exact_div", after=self._after_div,
                        errors={polyring.NotDivisible: "polyring.exact_div.not_divisible"})
        for name in ("real_rooted", "poly1_gcd", "count_real_roots"):
            self._wrap_attr(polyring, name, f"polyring.{name}")
        for name in ("lucastorial", "lucasnomial", "d_lucasnomial", "lucas_divides"):
            self._wrap_attr(lucas, name, f"lucas.{name}")
        for name in COXCAT_QUOTIENTS:
            self._wrap_attr(coxcat, name, f"coxcat.{name}")
        self._wrap_attr(shapes_tilings, "block_partition", "shapes_tilings.block_partition",
                        after=self._after_partition)
        for name in ("verify_block_partition", "partial_from_tiling", "partial_from_fixed", "enumerate_partials"):
            self._wrap_attr(shapes_tilings, name, f"shapes_tilings.{name}")
        self._wrap_attr(involution, "verify_involution", "involution.verify", after=self._after_verify)
        self._wrap_attr(involution, "iota_trace", "involution.iota", after=self._after_iota,
                        errors={involution.Malformed: "involution.malformed"})
        self._wrap_attr(involution.ExtendedTiling, "weight", "involution.weight")
        self._wrap_generator(involution, "enumerate_extended", "involution.enumerate_extended")
        self._wrap_attr(analysis, "analyze", "analysis.analyze", after=self._after_analyze)

    def _rebind(self, home, original, wrapper) -> None:
        """Point every binding of ``original`` in ``home`` and the lucaskit modules at ``wrapper``."""
        namespaces = [home] + [mod for name, mod in sys.modules.items()
                               if name == "lucaskit" or name.startswith("lucaskit.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)

    def _wrap_attr(self, home, attr: str, span: str, after=None, errors=None) -> None:
        original = self.originals[span] = vars(home)[attr]
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns
        errors = tuple((errors or {}).items())

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (span, start, clock(), parent, self.item)
                stack.pop()
                for kind, counter in errors:
                    if isinstance(exc, kind):
                        counts[counter] += 1
                raise
            spans[idx] = (span, start, clock(), parent, self.item)
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._rebind(home, original, wrapper)

    def _wrap_generator(self, home, attr: str, span: str) -> None:
        """Each resumption of the generator is one span."""
        original = vars(home)[attr]
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[f"{span}.calls"] += 1
            gen = original(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    spans[idx] = (span, start, clock(), parent, self.item)
                    stack.pop()
                yield value

        self._rebind(home, original, wrapper)

    # -- counters taken at the wrappers ---------------------------------------------

    def _after_mul(self, args, result) -> None:
        left, right = args
        if isinstance(right, polyring.Poly2):
            self.counts["polyring.mul.coeff_products"] += _seq_len(left) * _seq_len(right) if left and right else 0
        else:
            self.counts["polyring.mul.coeff_products"] += len(left._terms)
        self.maxima["polyring.max_coeff_bits"] = max(self.maxima["polyring.max_coeff_bits"], _max_bits(result))

    def _after_div(self, args, result) -> None:
        dividend, divisor = args
        self.counts["polyring.exact_div.coeff_products"] += _seq_len(dividend) * _seq_len(divisor)
        self.maxima["polyring.max_coeff_bits"] = max(self.maxima["polyring.max_coeff_bits"], _max_bits(result))

    def _after_partition(self, args, result) -> None:
        self.counts["shapes_tilings.tilings_covered"] += count_tilings(args[0].shape())
        self.counts["shapes_tilings.blocks_found"] += len(result)

    def _after_verify(self, args, report) -> None:
        self.counts["involution.objects"] += report.class_size

    def _after_iota(self, args, result) -> None:
        self.counts["involution.iota.levels"] += len(result[1])

    def _after_analyze(self, args, report) -> None:
        self.maxima["analysis.max_degree"] = max(self.maxima["analysis.max_degree"], len(report.coeffs) - 1)

    # -- results ----------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            fh.writelines(f"{n}\t{a}\t{b}\t{p}\t{i}\n" for n, a, b, p, i in self.spans)

    def metrics(self, loop_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass; ``loop_s`` is the traced item loop's wall time."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        total_ns: Counter = Counter()
        layer_ns: Counter = Counter()
        for idx, (name, start, end, _, item) in enumerate(self.spans):
            calls[name] += 1
            total_ns[name] += end - start
            own = end - start - child[idx]
            self_ns[name] += own
            if item >= 0:
                layer_ns[name.split(".")[0]] += own

        def self_s(*names):
            return sum(self_ns[n] for n in names) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(*fns):
            infos = [fn.cache_info() for fn in fns]
            hits = sum(i.hits for i in infos)
            return ratio(hits, hits + sum(i.misses for i in infos))

        c = self.counts
        quotients = [f"coxcat.{name}" for name in COXCAT_QUOTIENTS]
        lucastorial = self.originals["lucas.lucastorial"]
        blocks, tilings = c["shapes_tilings.blocks_found"], c["shapes_tilings.tilings_covered"]
        out = {
            "polyring.mul.calls": calls["polyring.mul"],
            "polyring.mul.self_s": self_s("polyring.mul"),
            "polyring.mul.coeff_products": c["polyring.mul.coeff_products"],
            "polyring.exact_div.calls": calls["polyring.exact_div"],
            "polyring.exact_div.self_s": self_s("polyring.exact_div"),
            "polyring.exact_div.coeff_products": c["polyring.exact_div.coeff_products"],
            "polyring.exact_div.not_divisible": c["polyring.exact_div.not_divisible"],
            "polyring.max_coeff_bits": self.maxima["polyring.max_coeff_bits"],
            "polyring.real_rooted.calls": calls["polyring.real_rooted"],
            "polyring.real_rooted.self_s": self_s("polyring.real_rooted"),
            "polyring.poly1_gcd.self_s": self_s("polyring.poly1_gcd"),
            "polyring.count_real_roots.self_s": self_s("polyring.count_real_roots"),
            "lucas.lucastorial.misses": lucastorial.cache_info().misses,
            "lucas.lucastorial.cached": lucastorial.cache_info().currsize,
            "lucas.lucasnomial.calls": calls["lucas.lucasnomial"],
            "lucas.lucasnomial.hit_ratio": hit_ratio(self.originals["lucas.lucasnomial"]),
            "lucas.lucasnomial.self_s": self_s("lucas.lucasnomial"),
            "lucas.d_lucasnomial.self_s": self_s("lucas.d_lucasnomial"),
            "lucas.lucas_divides.calls": calls["lucas.lucas_divides"],
            "lucas.lucas_divides.self_s": self_s("lucas.lucas_divides"),
            "coxcat.quotient.calls": sum(calls[n] for n in quotients),
            "coxcat.quotient.hit_ratio": hit_ratio(*(self.originals[n] for n in quotients)),
            "coxcat.quotient.self_s": self_s(*quotients),
            "shapes_tilings.block_partition.calls": calls["shapes_tilings.block_partition"],
            "shapes_tilings.block_partition.self_s": self_s("shapes_tilings.block_partition"),
            "shapes_tilings.tilings_covered": tilings,
            "shapes_tilings.blocks_found": blocks,
            "shapes_tilings.blocks_per_tiling": ratio(blocks, tilings),
            "shapes_tilings.tilings_per_s": ratio(tilings, self_s("shapes_tilings.block_partition")),
            "shapes_tilings.verify_block_partition.self_s": self_s("shapes_tilings.verify_block_partition"),
            "involution.verify.calls": calls["involution.verify"],
            "involution.verify.self_s": self_s("involution.verify"),
            "involution.objects": c["involution.objects"],
            "involution.objects_per_s": ratio(c["involution.objects"], total_ns["involution.verify"] / 1e9),
            "involution.iota.calls": calls["involution.iota"],
            "involution.iota.self_s": self_s("involution.iota"),
            "involution.iota.levels": c["involution.iota.levels"],
            "involution.enumerate_extended.self_s": self_s("involution.enumerate_extended"),
            "involution.weight.calls": calls["involution.weight"],
            "involution.weight.self_s": self_s("involution.weight"),
            "involution.malformed": c["involution.malformed"],
            "analysis.analyze.calls": calls["analysis.analyze"],
            "analysis.analyze.self_s": self_s("analysis.analyze"),
            "analysis.max_degree": self.maxima["analysis.max_degree"],
        }
        for name in ("partial_from_tiling", "partial_from_fixed", "enumerate_partials"):
            out[f"shapes_tilings.{name}.calls"] = calls[f"shapes_tilings.{name}"]
            out[f"shapes_tilings.{name}.self_s"] = self_s(f"shapes_tilings.{name}")
        for layer in LAYERS:
            out[f"layer.{layer}.self_share"] = ratio(layer_ns[layer] / 1e9, loop_s)
        return out

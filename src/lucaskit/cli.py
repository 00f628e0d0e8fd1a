"""Command-line surface.

Every subcommand is deterministic: the same argv and input files produce
byte-identical output.  Each leaf action has its own parser, which declares
only the flags and ``--format`` values its handler reads.  Exit codes, and the
exceptions that ``main`` maps to them (each printed as ``error: ...`` on
stderr):

    0  success or verification pass
    1  usage error: argparse's refusals (a flag the action does not take, a
       format it does not render, a missing required flag), bad arguments,
       ValueError (malformed input documents included), KeyError, OSError,
       json.JSONDecodeError
    2  verification failure or conjecture counterexample: a failed check,
       AssertionError from a theorem guard, NotDivisible from a quotient
       that is not a polynomial
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterator, TextIO

from . import analysis, coxcat, involution, levels, lucas, render, shapes_tilings
from .lucas import (
    lucas_divides,
    verify_chebyshev_bridge,
    verify_gcd_lemma,
    verify_lucasnomial_recursion,
    verify_symmetry_identity,
)
from .polyring import NotDivisible, Poly2

PASS, USAGE_ERROR, VERIFY_FAIL = 0, 1, 2

# Subcommand -> (module, function name, its integer flags in argument order).
# The function is looked up at call time, so a patched module attribute is used.
QUANTITIES = {
    "lucas": (lucas, "lucas", ("n",)),
    "lucastorial": (lucas, "lucastorial", ("n",)),
    "lucasnomial": (lucas, "lucasnomial", ("n", "k")),
    "dlucasnomial": (lucas, "d_lucasnomial", ("n", "k", "d")),
    "catalan": (coxcat, "lucas_catalan", ("n",)),
    "fuss": (coxcat, "fuss_catalan", ("n", "k")),
    "narayana": (coxcat, "narayana", ("n", "k")),
    "rational": (coxcat, "rational_catalan", ("a", "b")),
}

# Conjecture -> (coxcat sweep, its bound flag, the bound's default).
FINDINGS = {
    "narayana": ("narayana_findings", "max_n", 40),
    "rational": ("rational_catalan_findings", "max_ab", 12),
    "exceptional-fuss": ("exceptional_fuss_findings", "max_k", 3),
}


def _divisibility(max_n: int) -> Iterator[tuple[str, bool]]:
    """{m} | {n} exactly when m | n; ``lucas_divides`` raises on a violation."""
    for m in range(1, max_n + 1):
        for n in range(1, max_n + 1):
            present = lucas_divides(m, n) is not None
            yield f"{{{m}}} | {{{n}}}: {present}", present == (n % m == 0)


def _types(max_n: int) -> Iterator[tuple[int, int, int]]:
    """Every involution type (n, k, r) with 0 <= r <= k <= n <= max_n, by n, then k, then r."""
    return ((n, k, r) for n in range(max_n + 1) for k in range(n + 1) for r in range(k + 1))


# Check -> (its bound flags with their defaults, the (label, passed) pairs at
# those bounds).  The bounds reach the function as keyword arguments.
VERIFICATIONS = {
    "recursion": ({"max_n": 12}, lambda max_n: (
        (f"recursion n={n} k={k}", verify_lucasnomial_recursion(n, k))
        for n in range(2, max_n + 1)
        for k in range(1, n)
    )),
    "symmetry": ({"max_n": 10}, lambda max_n: (
        (f"symmetry n={n} k={k} r={r}", verify_symmetry_identity(n, k, r)) for n, k, r in _types(max_n)
    )),
    "catalan-id": ({"max_n": 12}, lambda max_n: (
        (f"catalan identity n={n}", coxcat.verify_catalan_identity(n)) for n in range(2, max_n + 1)
    )),
    "fuss-id": ({"max_n": 6, "max_k": 3}, lambda max_n, max_k: (
        (f"fuss identity n={n} k={k}", coxcat.verify_fuss_identity(n, k))
        for n in range(2, max_n + 1)
        for k in range(1, max_k + 1)
    )),
    "catD": ({"max_n": 6}, lambda max_n: ((f"Cat D_{n}", coxcat.verify_catD(n)) for n in range(3, max_n + 1))),
    "genCatD": ({"max_d": 6, "max_n": 4}, lambda max_d, max_n: (
        (f"genCatD l={l} k={k} m={m} d={d} n={n}", coxcat.verify_genCatD(l, k, m, d, n))
        for d in range(1, max_d + 1)
        for m in range(2, max_d // d + 1)
        for k in range(1, m)
        for l in range(1, k * d)
        for n in range(1, max_n + 1)
        if coxcat.genCatD_in_range(l, k, m, d, n)
    )),
    "hoggatt-long": ({"max_n": 20}, _divisibility),
    "gcd-lemma": ({"max_n": 12}, lambda max_n: (
        (f"gcd lemma m={m} n={n}", verify_gcd_lemma(m, n))
        for m in range(1, max_n + 1)
        for n in range(1, max_n + 1)
    )),
    "cheby": ({"max_n": 30}, lambda max_n: (
        (f"chebyshev bridge n={n}", verify_chebyshev_bridge(n)) for n in range(1, max_n + 1)
    )),
}

POLY_FORMATS = ("pretty", "json", "csv")
REPORT_FORMATS = ("pretty", "json")

# `tilings enumerate` lists every tiling: delta_9's 2,227,680 still run, delta_10's 122,522,400 are refused.
MAX_ENUMERATED_TILINGS = 10**7

# A row of m cells has F_{m+1} < 10^(0.21 m) tilings, so no shape of 20,000 cells has a
# count past Python's 4,300-digit int-to-str limit: delta_200 (19,900 cells) is read,
# and delta_204, ddelta:300:2 and skew:100000 are refused before any shape is built.
MAX_SHAPE_CELLS = 20_000

# `tilings partition` lists every tiling of each row it folds in, so its time and memory grow
# about 1.6-fold per cell of the longest row: 23 cells (Catalan(12), Binomial(24, 12)) take
# 1.9-2.1 s and 184 MB, 24 cells (Binomial(25, 12)) 2.8 s and 297 MB, and Catalan(14)'s 27
# about 15 s (2 cores, Python 3.11).  Longer rows are refused before any shape is built.
MAX_PARTITION_ROW = 23


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The file named by ``--out``, or stdout."""
    if out:
        with open(out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


@contextlib.contextmanager
def _all_digits() -> Iterator[None]:
    """Lift Python's int-to-str digit limit, if it has one, while a computed value is written; input keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@_all_digits()
def _poly_output(value: Poly2, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(value.to_json_dict())
    if fmt == "csv":
        lines = ["s,t,c"]
        lines += [f"{a},{b},{c}" for (a, b), c in value.terms()]
        return "\n".join(lines)
    return value.pretty()


def _parse_shape(spec: str) -> shapes_tilings.Shape:
    """delta:n | ddelta:n:d | skew:outer.parts[/inner.parts], refused past ``MAX_SHAPE_CELLS`` cells.

    The cells are counted from the spec's integers, before any shape is
    built; a skew shape counts its outer shape's, which also bound its
    width.  A negative n counts none, so the constructor refuses it.
    """
    kind, _, rest = spec.partition(":")
    grammar = "delta:n, ddelta:n:d or skew:..."
    if kind not in ("delta", "ddelta", "skew"):
        raise ValueError(f"unknown shape spec {spec!r} (want {grammar})")
    malformed = ValueError(f"malformed shape spec {spec!r} (want {grammar})")
    try:
        if kind == "skew":
            outer_part, _, inner_part = rest.partition("/")
            outer, inner = (tuple(int(x) for x in part.split(".") if x) for part in (outer_part, inner_part))
        else:
            n, *d = map(int, rest.split(":"))
    except ValueError:
        raise malformed from None
    if kind == "skew":
        return _sized(sum(outer), shapes_tilings.Shape, outer, inner)
    m = max(n, 0)
    if kind == "delta" and not d:
        return _sized(m * (m - 1) // 2, shapes_tilings.staircase, n)
    if kind == "ddelta" and len(d) == 1:
        return _sized(d[0] * m * (m + 1) // 2 - m, shapes_tilings.d_staircase, n, d[0])
    raise malformed


def _sized(cells: int, build, *args) -> shapes_tilings.Shape:
    """``build(*args)``, unless its ``cells`` are past ``MAX_SHAPE_CELLS``."""
    if cells > MAX_SHAPE_CELLS:
        raise ValueError(f"the outer shape has {cells} cells; at most {MAX_SHAPE_CELLS} are read")
    return build(*args)


def _bound(args, flag: str, default: int) -> int:
    """The sweep bound ``--flag``, or ``default`` when the flag is absent; never negative."""
    value = getattr(args, flag)
    if value is None:
        return default
    if value < 0:
        raise ValueError(f"--{flag.replace('_', '-')} must be >= 0")
    return value


def _variant_flags() -> tuple[str, ...]:
    """Every variant's integers, once each, in argument order: n, k, d."""
    names = (shapes_tilings.variant_integers(cls) for cls in shapes_tilings.VARIANTS.values())
    return tuple(dict.fromkeys(name for variant in names for name in variant))


def _parse_variant(args) -> shapes_tilings.Variant:
    """The ``--variant`` built from exactly its integer flags."""
    cls = shapes_tilings.VARIANTS[args.variant]
    names = shapes_tilings.variant_integers(cls)
    for flag in _variant_flags():
        given = getattr(args, flag) is not None
        if given != (flag in names):
            raise ValueError(f"--variant {args.variant} {'takes no' if given else 'needs'} --{flag}")
    return cls(*(getattr(args, name) for name in names))


def _coxeter(family: str, param: int | None, fuss_k: int | None) -> Poly2:
    """Cat W, or Cat^(fuss_k) W, for the group of this family.

    ``param`` is the rank of A, B, D or the m of I2; the exceptional types
    take none, and ``CoxeterType`` refuses one.
    """
    if param is None and family not in coxcat.EXCEPTIONAL_DEGREES:
        raise ValueError(f"--type {family} needs --{'m' if family == 'I2' else 'n'}")
    w = coxcat.CoxeterType(family, param)
    return coxcat.coxeter_catalan(w) if fuss_k is None else coxcat.coxeter_fuss_catalan(w, fuss_k)


def _read_json_input(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _named_quantity(expr: str) -> Poly2:
    """Mini grammar for analyze, colon-separated:

        <quantity>:<int>...         a quantity subcommand with one integer per
                                    flag, in flag order: lucasnomial:6:3 is
                                    ``lucasnomial --n 6 --k 3``
        coxeter:<family>[:<param>][:<k>]
                                    Cat W, or Cat^(k) W; <param> is the rank of
                                    A, B, D or the m of I2, and absent for the
                                    exceptional types: coxeter:H3, coxeter:B:3:2

    Any other count of integers is an error.
    """
    name, *parts = expr.split(":")
    if name == "coxeter" and parts:
        family, *parts = parts
        arity = 0 if family in coxcat.EXCEPTIONAL_DEGREES else 1
        if len(parts) not in (arity, arity + 1):
            raise ValueError(f"{expr!r}: want coxeter:{family}{':<param>' * arity}[:<k>]")
        param = int(parts.pop(0)) if arity else None
        return _coxeter(family, param, int(parts[0]) if parts else None)
    if name not in QUANTITIES:
        raise ValueError(f"unknown quantity {expr!r}")
    module, function, flags = QUANTITIES[name]
    if len(parts) != len(flags):
        raise ValueError(f"{expr!r}: want {name}" + "".join(f":<{flag}>" for flag in flags))
    return getattr(module, function)(*(int(p) for p in parts))


# -- subcommand handlers -------------------------------------------------------


def _cmd_quantity(args) -> int:
    module, function, flags = QUANTITIES[args.command]
    value = getattr(module, function)(*(getattr(args, flag) for flag in flags))
    _emit(_poly_output(value, args.format), args.out)
    return PASS


def _cmd_coxeter(args) -> int:
    # I2 takes --m; every other family takes --n or, if exceptional, nothing.
    flag, other = ("m", "n") if args.type == "I2" else ("n", "m")
    if getattr(args, other) is not None:
        raise ValueError(f"--type {args.type} takes no --{other}")
    value = _coxeter(args.type, getattr(args, flag), args.fuss_k)
    _emit(_poly_output(value, args.format), args.out)
    return PASS


def _cmd_enumerate(args) -> int:
    shape = _parse_shape(args.shape)
    count = shapes_tilings.count_tilings(shape)
    if count > MAX_ENUMERATED_TILINGS:
        raise ValueError(f"{count} tilings; enumerate lists at most {MAX_ENUMERATED_TILINGS}")
    tilings = shapes_tilings.enumerate_tilings(shape)
    token_rows = ([shapes_tilings.tile_tokens(tiles) for tiles in t.rows] for t in tilings)
    with _output(args.out) as fh:
        if args.format == "json":
            # Streamed, in the bytes json.dumps gives the whole document.
            fh.write(f'{{"count": {count}, "tilings": [')
            for i, rows in enumerate(token_rows):
                fh.write((", " if i else "") + json.dumps(rows))
            fh.write("]}\n")
        else:
            for rows in token_rows:
                fh.write((" ".join("".join(row) for row in rows) or "(empty)") + "\n")
            fh.write(f"count: {count}\n")
    return PASS


def _cmd_partition(args) -> int:
    variant = _parse_variant(args)
    if (cells := variant.longest_row()) > MAX_PARTITION_ROW:
        raise ValueError(f"the longest row has {cells} cells; partition folds rows of at most {MAX_PARTITION_ROW}")
    report = shapes_tilings.verify_block_partition(variant)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict()), args.out)
    else:
        lines = [
            f"variant: {variant}",
            f"tilings: {report.tiling_count}",
            f"blocks: {report.block_count}",
            f"sum of partial weights: {report.partial_sum.pretty()}",
            f"expected: {report.expected_total.pretty()}",
        ]
        lines += [f"FAIL: {f}" for f in report.failures]
        lines.append("ok" if report.ok else "FAILED")
        _emit("\n".join(lines), args.out)
    return PASS if report.ok else VERIFY_FAIL


def _cmd_render(args) -> int:
    if args.input:
        data = _read_json_input(args.input)
        obj = (
            shapes_tilings.PartialTiling.from_json_dict(data)
            if isinstance(data, dict) and "path" in data
            else shapes_tilings.Tiling.from_json_dict(data)
        )
    else:
        obj = _parse_shape(args.shape)
    text = render.svg_diagram(obj) if args.format == "svg" else render.ascii_diagram(obj)
    _emit(text, args.out)
    return PASS


def _cmd_apply(args) -> int:
    extended = involution.ExtendedTiling.from_json_dict(_read_json_input(args.input))
    result, trace = involution.iota_trace(extended)
    if args.format == "json":
        _emit(json.dumps({"trace": list(trace), "result": result.to_json_dict()}), args.out)
    else:
        lines = [f"cases: {','.join(trace) or '(identity)'}"]
        lines.append(render.ascii_diagram(result.partial))
        for i, strip in enumerate(result.strips, start=1):
            lines.append(f"T{i}: {' '.join(shapes_tilings.tile_tokens(strip)) or '(empty)'}")
        _emit("\n".join(lines), args.out)
    return PASS


def _verify_involution_types(args) -> int:
    missing = [f"--{flag}" for flag in "nkr" if getattr(args, flag) is None]
    if 0 < len(missing) < 3:
        raise ValueError(f"one involution type needs --n, --k and --r; missing {', '.join(missing)}")
    if not missing and args.max_n is not None:
        raise ValueError("--max-n bounds the sweep over every type; give it without --n, --k and --r")
    largest = _bound(args, "max_n", 5) if missing else args.n
    if largest > levels.MAX_LEVEL_N:
        raise ValueError(f"n = {largest}; the involution check proves levels up to n = {levels.MAX_LEVEL_N}")
    types = _types(largest) if missing else [(args.n, args.k, args.r)]
    reports = [involution.verify_involution(*t) for t in types]
    if args.format == "json":
        _emit(json.dumps([r.to_json_dict() for r in reports]), args.out)
    else:
        lines = []
        for r in reports:
            lines.append(f"involution ({r.n},{r.k},{r.r}): {'pass' if r.ok else 'FAIL'} [{r.class_size} objects]")
            lines += [f"  {f}" for f in r.failures]
        _emit("\n".join(lines), args.out)
    return PASS if all(r.ok for r in reports) else VERIFY_FAIL


def _cmd_verify(args) -> int:
    if args.verbose and args.format == "json":
        raise ValueError("--format json takes no --verbose")
    bounds, checks = VERIFICATIONS[args.action]
    results = list(checks(**{flag: _bound(args, flag, default) for flag, default in bounds.items()}))
    failures = [label for label, passed in results if not passed]
    if args.format == "json":
        _emit(json.dumps({"checked": len(results), "failures": failures}), args.out)
    else:
        lines = [f"{label}: {'pass' if passed else 'FAIL'}" for label, passed in results] if args.verbose else []
        lines.append(f"{args.action}: {len(results) - len(failures)}/{len(results)} pass")
        _emit("\n".join(lines), args.out)
    return PASS if not failures else VERIFY_FAIL


def _cmd_findings(args) -> int:
    sweep, flag, default = FINDINGS[args.action]
    findings = getattr(coxcat, sweep)(_bound(args, flag, default))
    with _output(args.out) as fh:  # JSON lines: no findings, no bytes
        fh.writelines(f.to_json_line() + "\n" for f in findings)
    return PASS if all(f.status == "pass" for f in findings) else VERIFY_FAIL


def _cmd_analyze(args) -> int:
    _emit(_analysis_output(analysis.analyze(_named_quantity(args.expr)), args.format), args.out)
    return PASS


@_all_digits()
def _analysis_output(report: analysis.CoeffReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json_dict())
    if fmt == "csv":
        return report.to_csv()
    return "\n".join([
        f"weight: {report.weight}",
        f"coeffs: {', '.join(str(c) for c in report.coeffs)}",
        f"unimodal: {report.unimodal}",
        f"log-concave: {report.log_concave}",
        f"real-rooted: {report.real_rooted}",
    ])


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucaskit",
        description="Exact Lucas analogues of binomials and Catalan-family numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(p, func, formats=()):
        """Finish a leaf action: ``--format`` over ``formats`` (the first is the default), ``--out``."""
        if formats:
            p.add_argument("--format", default=formats[0], choices=formats)
        p.add_argument("--out", default=None, help="write output to this file")
        p.set_defaults(func=func)

    def actions(command: str):
        return sub.add_parser(command).add_subparsers(dest="action", required=True)

    def involution_types(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--max-n", type=int, default=None, dest="max_n")
        leaf(p, _verify_involution_types, REPORT_FORMATS)

    for name, (_, _, flags) in QUANTITIES.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, required=True)
        leaf(p, _cmd_quantity, POLY_FORMATS)

    p = sub.add_parser("coxeter")
    p.add_argument("--type", required=True, choices=list(coxcat.FAMILIES))
    p.add_argument("--n", type=int, default=None, help="rank for A, B, D")
    p.add_argument("--m", type=int, default=None, help="parameter for I2")
    p.add_argument("--fuss-k", type=int, default=None, dest="fuss_k")
    leaf(p, _cmd_coxeter, POLY_FORMATS)

    tilings = actions("tilings")
    shape_help = "delta:n | ddelta:n:d | skew:9.7.5/4"
    p = tilings.add_parser("enumerate")
    p.add_argument("--shape", required=True, help=shape_help)
    leaf(p, _cmd_enumerate, REPORT_FORMATS)
    p = tilings.add_parser("partition")
    p.add_argument("--variant", required=True, choices=list(shapes_tilings.VARIANTS))
    for flag in _variant_flags():
        p.add_argument(f"--{flag}", type=int, default=None)
    leaf(p, _cmd_partition, REPORT_FORMATS)
    p = tilings.add_parser("render")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", default=None, help="tiling/partial-tiling JSON file, '-' for stdin")
    source.add_argument("--shape", default=None, help=shape_help)
    leaf(p, _cmd_render, ("pretty", "ascii", "svg"))

    inv = actions("involution")
    p = inv.add_parser("apply")
    p.add_argument("--input", required=True, help="extended-tiling JSON, '-' for stdin")
    leaf(p, _cmd_apply, REPORT_FORMATS)
    involution_types(inv.add_parser("verify"))

    verify = actions("verify")
    for name, (bounds, _) in VERIFICATIONS.items():
        p = verify.add_parser(name)
        for flag in bounds:
            p.add_argument(f"--{flag.replace('_', '-')}", type=int, default=None, dest=flag)
        p.add_argument("--verbose", action="store_true")
        leaf(p, _cmd_verify, REPORT_FORMATS)
    involution_types(verify.add_parser("involution"))

    findings = actions("findings")
    for name, (_, flag, _) in FINDINGS.items():
        p = findings.add_parser(name)
        p.add_argument(f"--{flag.replace('_', '-')}", type=int, default=None, dest=flag)
        leaf(p, _cmd_findings)

    p = sub.add_parser("analyze")
    p.add_argument("--expr", required=True, help="e.g. lucasnomial:6:3 or coxeter:H3")
    leaf(p, _cmd_analyze, POLY_FORMATS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else PASS
    try:
        return args.func(args)
    except (AssertionError, NotDivisible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_FAIL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

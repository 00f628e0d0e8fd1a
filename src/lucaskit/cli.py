"""Command-line surface.

Every subcommand is deterministic: the same argv and input files produce
byte-identical output.  Exit codes, and the exceptions that ``main`` maps to
them (each printed as ``error: ...`` on stderr):

    0  success or verification pass
    1  usage error: bad arguments, ValueError (malformed input documents
       included), KeyError, OSError, json.JSONDecodeError
    2  verification failure or conjecture counterexample: a failed check,
       AssertionError from a theorem guard, NotDivisible from a quotient
       that is not a polynomial
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, coxcat, involution, render, shapes_tilings
from .lucas import (
    d_lucasnomial,
    lucas,
    lucas_divides,
    lucasnomial,
    lucastorial,
    verify_chebyshev_bridge,
    verify_gcd_lemma,
    verify_lucasnomial_recursion,
    verify_symmetry_identity,
)
from .polyring import NotDivisible, Poly2

PASS, USAGE_ERROR, VERIFY_FAIL = 0, 1, 2


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _poly_output(value: Poly2, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(value.to_json_dict())
    if fmt == "csv":
        lines = ["s,t,c"]
        lines += [f"{a},{b},{c}" for (a, b), c in value.terms()]
        return "\n".join(lines)
    return value.pretty()


def _parse_shape(spec: str) -> shapes_tilings.Shape:
    """delta:n | ddelta:n:d | skew:outer.parts[/inner.parts]"""
    kind, _, rest = spec.partition(":")
    if kind == "delta":
        return shapes_tilings.staircase(int(rest))
    if kind == "ddelta":
        n, d = rest.split(":")
        return shapes_tilings.d_staircase(int(n), int(d))
    if kind == "skew":
        outer_part, _, inner_part = rest.partition("/")
        outer = tuple(int(x) for x in outer_part.split(".") if x)
        inner = tuple(int(x) for x in inner_part.split(".") if x)
        return shapes_tilings.Shape(outer, inner)
    raise ValueError(f"unknown shape spec {spec!r} (want delta:n, ddelta:n:d or skew:...)")


def _require(args, *names: str) -> list[int]:
    values = []
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise ValueError(f"--{name} is required here")
        values.append(value)
    return values


def _parse_variant(args) -> shapes_tilings.Variant:
    kind = args.variant
    if kind == "binomial":
        return shapes_tilings.Binomial(*_require(args, "n", "k"))
    if kind == "catalan":
        return shapes_tilings.Catalan(*_require(args, "n"))
    if kind == "fuss":
        return shapes_tilings.FussCatalan(*_require(args, "n", "k"))
    if kind == "ddivisible":
        return shapes_tilings.DDivisible(*_require(args, "n", "k", "d"))
    raise ValueError("--variant is required for partition (binomial|catalan|fuss|ddivisible)")


def _coxeter_type(args) -> coxcat.CoxeterType:
    family = args.type
    if family in ("A", "B", "D"):
        if args.n is None:
            raise ValueError(f"--type {family} needs --n")
        return coxcat.CoxeterType(family, args.n)
    if family == "I2":
        if args.m is None:
            raise ValueError("--type I2 needs --m")
        return coxcat.CoxeterType("I2", args.m)
    return coxcat.CoxeterType(family)


def _read_json_input(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _named_quantity(expr: str) -> Poly2:
    """Mini grammar for analyze: name:arg[:arg...]."""
    parts = expr.split(":")
    name, args = parts[0], parts[1:]
    if name == "lucas":
        return lucas(int(args[0]))
    if name == "lucastorial":
        return lucastorial(int(args[0]))
    if name == "lucasnomial":
        return lucasnomial(int(args[0]), int(args[1]))
    if name == "dlucasnomial":
        return d_lucasnomial(int(args[0]), int(args[1]), int(args[2]))
    if name == "catalan":
        return coxcat.lucas_catalan(int(args[0]))
    if name == "fuss":
        return coxcat.fuss_catalan(int(args[0]), int(args[1]))
    if name == "rational":
        return coxcat.rational_catalan(int(args[0]), int(args[1]))
    if name == "narayana":
        return coxcat.narayana(int(args[0]), int(args[1]))
    if name == "coxeter":
        family = args[0]
        if family in coxcat.EXCEPTIONAL_DEGREES:
            w = coxcat.CoxeterType(family)
            rest = args[1:]
        else:
            w = coxcat.CoxeterType(family, int(args[1]))
            rest = args[2:]
        if rest:
            return coxcat.coxeter_fuss_catalan(w, int(rest[0]))
        return coxcat.coxeter_catalan(w)
    raise ValueError(f"unknown quantity {expr!r}")


# -- subcommand handlers -------------------------------------------------------


def _cmd_poly(args) -> int:
    name = args.command
    if name == "lucas":
        value = lucas(args.n)
    elif name == "lucastorial":
        value = lucastorial(args.n)
    elif name == "lucasnomial":
        value = lucasnomial(args.n, args.k)
    elif name == "dlucasnomial":
        value = d_lucasnomial(args.n, args.k, args.d)
    elif name == "catalan":
        value = coxcat.lucas_catalan(args.n)
    elif name == "fuss":
        value = coxcat.fuss_catalan(args.n, args.k)
    elif name == "rational":
        value = coxcat.rational_catalan(args.a, args.b)
    elif name == "narayana":
        value = coxcat.narayana(args.n, args.k)
    elif name == "coxeter":
        w = _coxeter_type(args)
        value = coxcat.coxeter_fuss_catalan(w, args.fuss_k) if args.fuss_k else coxcat.coxeter_catalan(w)
    else:
        raise ValueError(name)
    _emit(_poly_output(value, args.format), args.out)
    return PASS


def _cmd_tilings(args) -> int:
    if args.action == "enumerate":
        if not args.shape:
            raise ValueError("enumerate needs --shape")
        shape = _parse_shape(args.shape)
        tilings = list(shapes_tilings.enumerate_tilings(shape))
        if args.format == "json":
            _emit(json.dumps({"count": len(tilings), "tilings": [t.to_json_dict()["rows"] for t in tilings]}), args.out)
        else:
            lines = [" ".join("".join(row) for row in t.to_json_dict()["rows"]) or "(empty)" for t in tilings]
            lines.append(f"count: {len(tilings)}")
            _emit("\n".join(lines), args.out)
        return PASS
    if args.action == "partition":
        variant = _parse_variant(args)
        if args.shape and _parse_shape(args.shape) != variant.shape():
            raise ValueError("--shape disagrees with the variant's shape")
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
    if args.action == "render":
        if not args.input and not args.shape:
            raise ValueError("render needs --input or --shape")
        if args.input:
            data = _read_json_input(args.input)
            obj = (
                shapes_tilings.PartialTiling.from_json_dict(data)
                if "path" in data
                else shapes_tilings.Tiling.from_json_dict(data)
            )
        else:
            obj = _parse_shape(args.shape)
        text = render.svg_diagram(obj) if args.format == "svg" else render.ascii_diagram(obj)
        _emit(text, args.out)
        return PASS
    raise ValueError(args.action)


def _cmd_involution(args) -> int:
    if args.action == "apply":
        if not args.input:
            raise ValueError("apply needs --input (a file path or '-')")
        data = _read_json_input(args.input)
        extended = involution.ExtendedTiling.from_json_dict(data)
        result, trace = involution.iota_trace(extended)
        if args.format == "json":
            _emit(json.dumps({"trace": list(trace), "result": result.to_json_dict()}), args.out)
        else:
            lines = [f"cases: {','.join(trace) or '(identity)'}"]
            lines.append(render.ascii_diagram(result.partial))
            for i, strip in enumerate(result.strips, start=1):
                tokens = " ".join("M" if t == 1 else "D" for t in strip) or "(empty)"
                lines.append(f"T{i}: {tokens}")
            _emit("\n".join(lines), args.out)
        return PASS
    if args.action == "verify":
        return _verify_involution_types(args)
    raise ValueError(args.action)


def _verify_involution_types(args) -> int:
    if args.n is not None and args.k is not None and args.r is not None:
        types = [(args.n, args.k, args.r)]
    else:
        max_n = args.max_n or 5
        types = [
            (n, k, r)
            for n in range(max_n + 1)
            for k in range(n + 1)
            for r in range(k + 1)
        ]
    reports = [involution.verify_involution(*t) for t in types]
    lines = []
    ok = True
    for report in reports:
        status = "pass" if report.ok else "FAIL"
        lines.append(
            f"involution ({report.n},{report.k},{report.r}): {status}"
            f" [{report.class_size} objects]"
        )
        lines += [f"  {f}" for f in report.failures]
        ok = ok and report.ok
    if args.format == "json":
        _emit(json.dumps([r.to_json_dict() for r in reports]), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return PASS if ok else VERIFY_FAIL


def _cmd_verify(args) -> int:
    what = args.what
    checks: list[tuple[str, bool]] = []
    if what == "recursion":
        n_max = args.max_n or 12
        checks = [
            (f"recursion n={n} k={k}", verify_lucasnomial_recursion(n, k))
            for n in range(2, n_max + 1)
            for k in range(1, n)
        ]
    elif what == "symmetry":
        n_max = args.max_n or 10
        checks = [
            (f"symmetry n={n} k={k} r={r}", verify_symmetry_identity(n, k, r))
            for n in range(n_max + 1)
            for k in range(n + 1)
            for r in range(k + 1)
        ]
    elif what == "catalan-id":
        n_max = args.max_n or 12
        checks = [(f"catalan identity n={n}", coxcat.verify_catalan_identity(n)) for n in range(2, n_max + 1)]
    elif what == "fuss-id":
        n_max, k_max = args.max_n or 6, args.max_k or 3
        checks = [
            (f"fuss identity n={n} k={k}", coxcat.verify_fuss_identity(n, k))
            for n in range(2, n_max + 1)
            for k in range(1, k_max + 1)
        ]
    elif what == "catD":
        n_max = args.max_n or 6
        checks = [(f"Cat D_{n}", coxcat.verify_catD(n)) for n in range(3, n_max + 1)]
    elif what == "genCatD":
        bound, n_max = args.max_d or 6, args.max_n or 4
        for d in range(1, bound + 1):
            for m in range(2, bound // d + 1):
                for k in range(1, m):
                    for l in range(1, k * d):
                        for n in range(1, n_max + 1):
                            if coxcat.genCatD_in_range(l, k, m, d, n):
                                ok = coxcat.verify_genCatD(l, k, m, d, n)
                                checks.append((f"genCatD l={l} k={k} m={m} d={d} n={n}", ok))
    elif what == "hoggatt-long":
        bound = args.max_n or 20
        for m in range(1, bound + 1):
            for n in range(1, bound + 1):
                quotient = lucas_divides(m, n)  # raises on a violation
                present = quotient is not None
                checks.append((f"{{{m}}} | {{{n}}}: {present}", present == (n % m == 0)))
    elif what == "gcd-lemma":
        bound = args.max_n or 12
        checks = [
            (f"gcd lemma m={m} n={n}", verify_gcd_lemma(m, n))
            for m in range(1, bound + 1)
            for n in range(1, bound + 1)
        ]
    elif what == "cheby":
        bound = args.max_n or 30
        checks = [(f"chebyshev bridge n={n}", verify_chebyshev_bridge(n)) for n in range(1, bound + 1)]
    elif what == "involution":
        return _verify_involution_types(args)
    else:
        raise ValueError(f"unknown verification {what!r}")
    failures = [name for name, ok in checks if not ok]
    if args.format == "json":
        _emit(json.dumps({"checked": len(checks), "failures": failures}), args.out)
    else:
        lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in checks] if args.verbose else []
        lines.append(f"{what}: {len(checks) - len(failures)}/{len(checks)} pass")
        _emit("\n".join(lines), args.out)
    return PASS if not failures else VERIFY_FAIL


def _cmd_findings(args) -> int:
    if args.conjecture == "narayana":
        findings = coxcat.narayana_findings(args.max_n or 40)
    elif args.conjecture == "rational":
        findings = coxcat.rational_catalan_findings(args.max_ab or 12)
    elif args.conjecture == "exceptional-fuss":
        findings = coxcat.exceptional_fuss_findings(args.max_k or 3)
    else:
        raise ValueError(args.conjecture)
    _emit("\n".join(f.to_json_line() for f in findings), args.out)
    return PASS if all(f.status == "pass" for f in findings) else VERIFY_FAIL


def _cmd_analyze(args) -> int:
    report = analysis.analyze(_named_quantity(args.expr))
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict()), args.out)
    elif args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        lines = [
            f"weight: {report.weight}",
            f"coeffs: {', '.join(str(c) for c in report.coeffs)}",
            f"unimodal: {report.unimodal}",
            f"log-concave: {report.log_concave}",
            f"real-rooted: {report.real_rooted}",
        ]
        _emit("\n".join(lines), args.out)
    return PASS


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucaskit",
        description="Exact Lucas analogues of binomials and Catalan-family numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", default="pretty", choices=["pretty", "json", "csv", "svg", "ascii"])
        p.add_argument("--out", default=None, help="write output to this file")

    for name, flags in [
        ("lucas", ["n"]),
        ("lucastorial", ["n"]),
        ("lucasnomial", ["n", "k"]),
        ("dlucasnomial", ["n", "k", "d"]),
        ("catalan", ["n"]),
        ("fuss", ["n", "k"]),
        ("narayana", ["n", "k"]),
        ("rational", ["a", "b"]),
    ]:
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, required=True)
        common(p)
        p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("coxeter")
    p.add_argument("--type", required=True, choices=list(coxcat.FAMILIES))
    p.add_argument("--n", type=int, default=None, help="rank for A, B, D")
    p.add_argument("--m", type=int, default=None, help="parameter for I2")
    p.add_argument("--fuss-k", type=int, default=None, dest="fuss_k")
    common(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("tilings")
    p.add_argument("action", choices=["enumerate", "partition", "render"])
    p.add_argument("--shape", default=None, help="delta:n | ddelta:n:d | skew:9.7.5/4")
    p.add_argument("--variant", default=None, choices=["binomial", "catalan", "fuss", "ddivisible"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--input", default=None, help="tiling/partial-tiling JSON file, '-' for stdin")
    common(p)
    p.set_defaults(func=_cmd_tilings)

    p = sub.add_parser("involution")
    p.add_argument("action", choices=["apply", "verify"])
    p.add_argument("--input", default=None, help="extended-tiling JSON, '-' for stdin")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    common(p)
    p.set_defaults(func=_cmd_involution)

    p = sub.add_parser("verify")
    p.add_argument(
        "what",
        choices=[
            "recursion", "symmetry", "catalan-id", "fuss-id", "catD", "genCatD",
            "hoggatt-long", "gcd-lemma", "cheby", "involution",
        ],
    )
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.add_argument("--max-d", type=int, default=None, dest="max_d")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("findings")
    p.add_argument("conjecture", choices=["narayana", "rational", "exceptional-fuss"])
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--max-ab", type=int, default=None, dest="max_ab")
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    common(p)
    p.set_defaults(func=_cmd_findings)

    p = sub.add_parser("analyze")
    p.add_argument("--expr", required=True, help="e.g. lucasnomial:6:3 or coxeter:H3")
    common(p)
    p.set_defaults(func=_cmd_analyze)

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

"""lucaskit's benchmark: one workload, measured in fresh processes.

    python3 bench/run.py --workload quotients --seed 1 --seconds 30 --trace 0

Every pass is a fresh interpreter (``worker.py``), because every CLI
invocation pays cold ``lru_cache``s; inside a pass, items share caches the way
a findings sweep does.  A pass issues the workload's whole fixed pool from one
thread in a closed loop, then checks every result against independent oracles
and pinned digests.  Each pass issues the items in another order of the seed,
since the order decides which items find their caches filled.

The machine's other tenants slow a pass by up to half for minutes at a time,
more than any bound a regression check could use.  So the item timings are
measured against a yardstick that slows the same way: ``reference/lucaskit``,
a copy of lucaskit as it was when this benchmark was defined, never edited.
A paired pass loads both copies and issues every item to each, back to back,
alternating which goes first; the item figures are checkout time over
reference time, so 1.0 means as fast as the reference and the load cancels.

``--trace 0`` runs one plain pass (the checkout alone), then paired passes
while the next one is predicted to end within ``--seconds``, and reports the
end-to-end metrics:

    setup_s          process start until the first item is issued (import,
                     item generation, set-up), checkout alone; median over the
                     plain pass and at least eight set-up-only passes, three
                     after each paired pass and the rest at the end
    rel_items_per_s  items/s of the checkout over items/s of the reference
    rel_item_mid     checkout over reference time of the typical items: the
                     middle half, ranked by the product of both times
    rel_item_tail    the same for the items at and beyond the tail percentile,
                     the highest with at least ten items of a pass beyond it
    peak_rss_mb      ru_maxrss of the plain pass

The summary line also gives the plain pass's own ``items_per_s``,
``item_p50_ms`` and ``item_tail_ms``, which move with the machine's load.

``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics of ``PER_LAYER``, medians over the traced passes; the first traced
pass's spans go to ``bench/out/spans-<workload>.tsv``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a readable
summary that also gives ``failed_ratio``.  The exit code is 1 when an item
failed and 2 when a pass could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("quotients", "partitions", "involution", "diagnostics")
LAYERS = ("polyring", "lucas", "coxcat", "shapes_tilings", "involution", "analysis")
MIN_SETUPS = 9  # set-up samples per run; set-up-only passes make up the shortfall
PASS_TIMEOUT_S = 120


# (metric, unit, better) for every per-layer metric a traced run reports.
PER_LAYER = [
    ("polyring.mul.calls", "count", "lower"),
    ("polyring.mul.self_s", "s", "lower"),
    ("polyring.mul.coeff_products", "count", "lower"),
    ("polyring.exact_div.calls", "count", "lower"),
    ("polyring.exact_div.self_s", "s", "lower"),
    ("polyring.exact_div.coeff_products", "count", "lower"),
    ("polyring.exact_div.not_divisible", "count", "lower"),
    ("polyring.max_coeff_bits", "bits", "lower"),
    ("polyring.real_rooted.calls", "count", "lower"),
    ("polyring.real_rooted.self_s", "s", "lower"),
    ("polyring.poly1_gcd.self_s", "s", "lower"),
    ("polyring.count_real_roots.self_s", "s", "lower"),
    ("lucas.lucastorial.misses", "count", "lower"),
    ("lucas.lucastorial.cached", "count", "lower"),
    ("lucas.lucasnomial.calls", "count", "lower"),
    ("lucas.lucasnomial.hit_ratio", "ratio", "higher"),
    ("lucas.lucasnomial.self_s", "s", "lower"),
    ("lucas.d_lucasnomial.self_s", "s", "lower"),
    ("lucas.lucas_divides.calls", "count", "lower"),
    ("lucas.lucas_divides.self_s", "s", "lower"),
    ("coxcat.quotient.calls", "count", "lower"),
    ("coxcat.quotient.hit_ratio", "ratio", "higher"),
    ("coxcat.quotient.self_s", "s", "lower"),
    ("shapes_tilings.block_partition.calls", "count", "lower"),
    ("shapes_tilings.block_partition.self_s", "s", "lower"),
    ("shapes_tilings.tilings_covered", "count", "lower"),
    ("shapes_tilings.blocks_found", "count", "lower"),
    ("shapes_tilings.blocks_per_tiling", "ratio", "lower"),
    ("shapes_tilings.tilings_per_s", "1/s", "higher"),
    ("shapes_tilings.verify_block_partition.self_s", "s", "lower"),
    ("shapes_tilings.partial_from_tiling.calls", "count", "lower"),
    ("shapes_tilings.partial_from_tiling.self_s", "s", "lower"),
    ("shapes_tilings.partial_from_fixed.calls", "count", "lower"),
    ("shapes_tilings.partial_from_fixed.self_s", "s", "lower"),
    ("shapes_tilings.enumerate_partials.calls", "count", "lower"),
    ("shapes_tilings.enumerate_partials.self_s", "s", "lower"),
    ("involution.verify.calls", "count", "lower"),
    ("involution.verify.self_s", "s", "lower"),
    ("involution.objects", "count", "lower"),
    ("involution.objects_per_s", "1/s", "higher"),
    ("involution.iota.calls", "count", "lower"),
    ("involution.iota.self_s", "s", "lower"),
    ("involution.iota.levels", "count", "lower"),
    ("involution.enumerate_extended.self_s", "s", "lower"),
    ("involution.weight.calls", "count", "lower"),
    ("involution.weight.self_s", "s", "lower"),
    ("involution.malformed", "count", "lower"),
    ("analysis.analyze.calls", "count", "lower"),
    ("analysis.analyze.self_s", "s", "lower"),
    ("analysis.max_degree", "count", "lower"),
] + [(f"layer.{layer}.self_share", "ratio", "lower") for layer in LAYERS] + [
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

# Per-layer metrics that are exact counts or ratios of counts: for a fixed
# seed they repeat exactly.
COUNT_METRICS = {name for name, unit, _ in PER_LAYER if unit in ("count", "bits") or name.endswith("hit_ratio")
                 or name == "shapes_tilings.blocks_per_tiling"}


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, order: int, mode: str, spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--order", str(order),
           "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["first_issue"] - spawned
    out["wall_s"] = time.monotonic() - spawned
    return out


def schedule(workload: str, seed: int, seconds: float, lead: tuple[str, ...], cycle: tuple[str, ...],
             spans_out: Path | None):
    """Run the passes of ``lead``, then cycle through ``cycle`` while the next pass is predicted to fit."""
    start = time.monotonic()
    passes: dict[str, list[dict]] = {mode: [] for mode in lead + cycle}

    def mode_at(turn: int) -> str:
        return lead[turn] if turn < len(lead) else cycle[(turn - len(lead)) % len(cycle)]

    turn = 0
    while True:
        mode = mode_at(turn)
        order = len(passes[mode])
        out = run_pass(workload, seed, order, mode, spans_out if mode == "traced" and not order else None)
        passes[mode].append(out)
        turn += 1
        nxt = passes[mode_at(turn)]
        if turn >= len(lead) + len(cycle) and nxt:
            predicted = statistics.mean(p["wall_s"] for p in nxt)
            if time.monotonic() - start + predicted > seconds:
                return passes


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: the value with pct percent of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n items beyond it."""
    return (100 * (n - 10)) // n


def raw_figures(p: dict) -> dict:
    """The plain pass's own items_per_s, item_p50_ms and item_tail_ms, for the summary line."""
    pct = tail_percentile(p["attempted"])
    return {"items_per_s": (p["attempted"] / p["loop_s"], "1/s"),
            "item_p50_ms": (statistics.median(p["latencies"]) * 1e3, "ms"),
            "item_tail_ms": (percentile(p["latencies"], pct) * 1e3, "ms")}


def paired_ratio(pairs: list[tuple[float, float]], low: float, high: float) -> float:
    """Checkout time over reference time, summed over the items ranked from
    ``low`` to ``high`` (shares of the items) by the product of their two
    times, which ranks both copies alike."""
    ranked = sorted(pairs, key=lambda pair: pair[0] * pair[1])
    band = ranked[int(low * len(ranked)):int(high * len(ranked))]
    return sum(mine for mine, _ in band) / sum(ref for _, ref in band)


def end_to_end(plain: list[dict], paired: list[dict], setups: list[dict]) -> dict:
    """The end-to-end metrics; the item figures relative to the reference.

    A paired pass issues every item to the reference copy and to the
    checkout's lucaskit back to back, so both see the same load from the
    machine's other tenants, and the ratio of their times cancels it.  The
    ratios pool the items of every paired pass of the run: all of them for
    ``rel_items_per_s``, the middle half for ``rel_item_mid`` and those at
    and beyond the tail percentile for ``rel_item_tail``.
    """
    tail = tail_percentile(paired[0]["attempted"]) / 100
    pairs = [pair for p in paired for pair in zip(p["latencies"], p["ref_latencies"])]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "rel_items_per_s": (1 / paired_ratio(pairs, 0, 1), "ratio"),
        "rel_item_mid": (paired_ratio(pairs, 0.25, 0.75), "ratio"),
        "rel_item_tail": (paired_ratio(pairs, tail, 1), "ratio"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] / 1024 for p in plain), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name, unit, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        values = [p["layers"][name] for p in traced]
        if name in COUNT_METRICS:
            if any(v != values[0] for v in values):
                print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
            out[name] = (values[0], unit)
        else:
            out[name] = (statistics.median(values), unit)
    traced_ips = statistics.median(p["attempted"] / p["loop_s"] for p in traced)
    plain_ips = statistics.median(p["attempted"] / p["loop_s"] for p in plain)
    out["trace.items_per_s"] = (traced_ips, "1/s")
    out["trace.untraced_items_per_s"] = (plain_ips, "1/s")
    out["trace.overhead_pct"] = (100 * (plain_ips - traced_ips) / plain_ips, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lucaskit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running pass before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "lucaskit" / "__init__.py").is_file():
        print(f"no lucaskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spans_out = None
    if args.trace:
        spans_out = BENCH / "out" / f"spans-{args.workload}.tsv"
        spans_out.parent.mkdir(exist_ok=True)
    # Set-up-only passes between the paired ones spread setup_s's samples over the run.
    lead, cycle = ((), ("plain", "traced")) if args.trace else (("plain",), ("paired", "setup", "setup", "setup"))
    try:
        passes = schedule(args.workload, args.seed, args.seconds, lead, cycle, spans_out)
        setups = passes["plain"] + passes.get("setup", [])
        if not args.trace:
            while len(setups) < MIN_SETUPS:
                setups.append(run_pass(args.workload, args.seed, len(setups), "setup"))
    except PassFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 2

    every = [p for mode, runs in passes.items() if mode != "setup" for p in runs]
    attempted = sum(p["attempted"] for p in every)
    failures = [f for p in every for f in p["failed"]]
    for item_id, problem in failures[:20]:
        print(f"FAILED {item_id}: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(passes["plain"], passes["traced"])
    else:
        metrics = end_to_end(passes["plain"], passes["paired"], setups)
    per_pass = passes["plain"][0]["attempted"]
    shown = {**raw_figures(passes["plain"][0]), **metrics} if not args.trace else metrics
    summary = " ".join(f"{name}={value:.6g} {unit}" for name, (value, unit) in shown.items()
                       if not args.trace or name.startswith("trace."))
    print(f"{args.workload} seed={args.seed} passes={ {m: len(r) for m, r in passes.items()} } "
          f"items/pass={per_pass} tail=p{tail_percentile(per_pass)} "
          f"latency samples={len(passes['plain']) * per_pass} setup samples={len(setups)}: {summary} "
          f"failed_ratio={len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

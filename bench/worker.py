"""One pass of a workload in a fresh interpreter; ``run.py`` starts it.

The pass imports lucaskit from the checkout's ``src``, builds the workload's
items in one of the orders the seed gives, does the workload's set-up, then
issues every item once, one at a time, each after the previous one returned.
A paired pass (``--mode paired``) also loads the frozen copy in
``reference/`` and issues every item to both copies, back to back.  After the
timed loop it checks every result of the checkout's copy and prints one JSON
object:

    first_issue   time.monotonic() when the first item was issued
    loop_s        wall time of the item loop (paired: of both copies)
    latencies     per-item wall times, in issue order
    ref_latencies the reference copy's, likewise (--mode paired only)
    attempted     items issued
    failed        [item id, problem] for items that raised or failed a check
    rss_kb        ru_maxrss after the loop
    layers        per-layer metrics (--mode traced only)

    python3 bench/worker.py --workload quotients --seed 1 --order 0 --mode plain
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# lucaskit as it was when this benchmark was defined, never edited: paired
# passes time it alongside the checkout's copy, as a yardstick that the
# machine's load slows the same way.
REFERENCE = BENCH / "reference"


def import_lucaskit(src: Path = ROOT / "src"):
    """Import lucaskit from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import lucaskit

    if Path(lucaskit.__file__).resolve().parent != src / "lucaskit":
        raise ImportError(f"lucaskit came from {lucaskit.__file__}, not from {src}")
    return lucaskit


def ordered_items(workload, seed: int, order: int):
    """The pool in the order numbered ``order`` among those the seed gives."""
    items = workload.pool()
    random.Random(f"order:{seed}:{order}").shuffle(items)
    return items


def load_workloads(src: Path):
    """``workloads`` bound to the lucaskit under ``src``.

    A lucaskit imported before is dropped from ``sys.modules`` first but stays
    alive in the ``workloads`` module bound to it, so two copies can run side
    by side.
    """
    for module in [m for m in sys.modules if m.split(".")[0] in ("lucaskit", "workloads")]:
        del sys.modules[module]
    import_lucaskit(src)
    import workloads

    sys.path.remove(str(src))
    return workloads


def timed(workload, item, ctx, latencies: list):
    start = time.perf_counter()
    try:
        result = workload.call(item, ctx)
    except Exception as exc:  # a raising item counts as failed; the pass goes on
        result = exc
    latencies.append(time.perf_counter() - start)
    return result


def run_pass(name: str, seed: int, order: int, mode: str, spans_out: str | None = None) -> dict:
    if mode == "paired":
        reference = load_workloads(REFERENCE).WORKLOADS[name]
        ref_items = ordered_items(reference, seed, order)
        ref_ctx = reference.prepare(ref_items)
    workloads = load_workloads(ROOT / "src")
    import tracing

    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name]
    items = ordered_items(workload, seed, order)
    ctx = workload.prepare(items)
    first_issue = time.monotonic()
    if mode == "setup":
        return {"first_issue": first_issue}

    results, latencies, ref_latencies = [], [], []
    loop_start = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        if mode != "paired":
            results.append(timed(workload, item, ctx, latencies))
        elif index % 2:  # which copy goes first alternates
            results.append(timed(workload, item, ctx, latencies))
            timed(reference, ref_items[index], ref_ctx, ref_latencies)
        else:
            timed(reference, ref_items[index], ref_ctx, ref_latencies)
            results.append(timed(workload, item, ctx, latencies))
    loop_s = time.perf_counter() - loop_start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    pins = workloads.load_pins()[name]
    points = workloads.eval_points(seed)
    failed = []
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            failed.append([item.id, f"raised {result!r}"])
            continue
        try:
            problems = workload.check(item, result, ctx, points, pins)
        except Exception as exc:  # a checker crash is a failed check, not a lost pass
            problems = [f"check raised {exc!r}"]
        if problems:
            failed.append([item.id, "; ".join(problems)])

    out = {"first_issue": first_issue, "loop_s": loop_s, "latencies": latencies, "attempted": len(items),
           "failed": failed, "rss_kb": rss_kb}
    if mode == "paired":
        out["ref_latencies"] = ref_latencies
    if tracer is not None:
        tracer.item = -1
        out["layers"] = tracer.metrics(loop_s)
        if spans_out:
            tracer.write_spans(spans_out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--order", type=int, default=0, help="which of the seed's item orders to use")
    parser.add_argument("--mode", choices=("plain", "traced", "setup", "paired"), default="plain")
    parser.add_argument("--spans-out", help="file for the traced pass's spans")
    args = parser.parse_args(argv)
    out = run_pass(args.workload, args.seed, args.order, args.mode, args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that a tiny pool of every workload passes its checks, that a
deliberately corrupted result is counted as failed (so the checkers are not
vacuous), that a fixed seed repeats every per-layer count of a traced pass,
that BENCHMARK.json names exactly the metrics and workloads the code reports,
that the reference copy of lucaskit is the one the benchmark was defined
with, and that the benchmark refuses to run where the library's sources are
absent.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import run
from worker import REFERENCE, ROOT, import_lucaskit

# Digest of reference/lucaskit: the yardstick of every paired pass must never change.
REFERENCE_SHA256 = "7f610f84e267cd863084d34ae3c776486bb1db062141ddfd9133c634db61f0c1"
TINY = {"quotients": 80, "partitions": 20, "involution": 15, "diagnostics": 12}


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def tiny_pools_pass_and_corruption_fails(workloads) -> None:
    pins = workloads.load_pins()
    points = workloads.eval_points(7)
    for name, workload in workloads.WORKLOADS.items():
        items = workload.pool()[: TINY[name]]
        ctx = workload.prepare(items)
        results = [workload.call(item, ctx) for item in items]
        for item, result in zip(items, results):
            problems = workload.check(item, result, ctx, points, pins[name])
            expect(not problems, f"{name} {item.id}: {problems}")
        # The last tiny item has a nontrivial result in every pool.
        item, bad = items[-1], workload.corrupt(results[-1])
        expect(workload.check_value(item, bad, workload.to_json(bad), ctx, points) != [],
               f"{name}: the oracle accepted a corrupted result of {item.id}")
        expect(workload.check(item, bad, ctx, points, pins[name]) != [],
               f"{name}: a corrupted result of {item.id} was not counted as failed")
        print(f"PASS {name}: {len(items)} tiny items pass, a corrupted {item.id} fails")


def fixed_seed_repeats_counts() -> dict:
    """Traced passes of a seed's two orders; returns the first pass's per-layer metrics."""
    first, second = (run.run_pass("quotients", 11, order, "traced")["layers"] for order in range(2))
    for name in run.COUNT_METRICS:
        expect(first[name] == second[name], f"{name}: {first[name]} then {second[name]} for one seed")
    print(f"PASS seed: {len(run.COUNT_METRICS)} per-layer counts repeat for a fixed seed")
    return first


def benchmark_json_matches_code(layers: dict) -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    sample = {"attempted": 10, "loop_s": 1.0, "latencies": [0.001] * 10, "ref_latencies": [0.001] * 10,
              "rss_kb": 1024, "setup_s": 0.1}
    expect([m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([sample], [sample], [sample])),
           "end-to-end names")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER, "per-layer metrics")
    expect(set(run.per_layer([sample], [dict(sample, layers=layers)])) == {n for n, _, _ in run.PER_LAYER},
           "a traced run reports other metrics than PER_LAYER")
    print("PASS BENCHMARK.json names the workloads and metrics the code reports")


def reference_is_frozen() -> None:
    digest = hashlib.sha256()
    for path in sorted(REFERENCE.rglob("*.py")):
        digest.update(path.relative_to(REFERENCE).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    expect(digest.hexdigest() == REFERENCE_SHA256, f"{REFERENCE} was edited")
    print("PASS the reference copy of lucaskit is unchanged")


def refuses_without_sources() -> None:
    bare = run.BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "quotients", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without the library's sources")
    print("PASS exits nonzero, printing no result, without the library's sources")


def main() -> int:
    import_lucaskit()
    import workloads

    try:
        tiny_pools_pass_and_corruption_fails(workloads)
        benchmark_json_matches_code(fixed_seed_repeats_counts())
        reference_is_frozen()
        refuses_without_sources()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

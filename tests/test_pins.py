"""The benchmark's pinned digests, checked in the test suite.

``bench/pins.json`` holds a digest of every result of each benchmark pool.
The ``quotients`` and ``diagnostics`` pools run every polyring kernel the
quotients and the analysis read, so a kernel change that alters one of
their results fails here, in seconds, and not only in the benchmark.
"""

import pytest

from oracles import bench_workloads


@pytest.mark.parametrize("name", ["quotients", "diagnostics"])
def test_every_item_matches_its_pin(name):
    workloads = bench_workloads()
    workload = workloads.WORKLOADS[name]
    pins = workloads.load_pins()[name]
    items = workload.pool()
    ctx = workload.prepare(items)
    points = workloads.eval_points(0)
    problems = {}
    for item in items:
        found = workload.check(item, workload.call(item, ctx), ctx, points, pins)
        if found:
            problems[item.id] = found
    assert len(items) == len(pins["digests"])
    assert not problems, dict(list(problems.items())[:5])

"""Regenerate pins.json: run every workload's pool once, in canonical order,
and record a digest of each result (and each partition's block count).

Run it only at a commit whose outputs are trusted; later commits must
reproduce these pins exactly.

    python3 bench/pin.py
"""

from __future__ import annotations

import json
import sys

from worker import import_lucaskit


def main() -> int:
    import_lucaskit()
    import workloads

    pins = {}
    for name, workload in workloads.WORKLOADS.items():
        items = workload.pool()
        ctx = workload.prepare(items)
        results = [workload.call(item, ctx) for item in items]
        points = workloads.eval_points(0)
        problems = [(item.id, p) for item, res in zip(items, results)
                    for p in workload.check_value(item, res, workload.to_json(res), ctx, points)]
        if problems:
            print(f"{name}: results fail their checks, not pinning: {problems[:5]}", file=sys.stderr)
            return 1
        pins[name] = workloads.make_pins(workload, items, results)
        print(f"{name}: pinned {len(items)} items", file=sys.stderr)
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

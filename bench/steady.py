"""Measure the run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed, one run at a time, and for each
end-to-end metric reports the median and the spread (Q3 - Q1) / median
over the runs, with quartiles from ``statistics.quantiles(values, n=4)``.
The result is merged into ``bench/spread.json``, which every benchmark
result quotes in its provenance block; the bounds in ``BENCHMARK.json``
are set from these spreads.

    python3 bench/steady.py --runs 10 --workload structured --workload generic
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    spread_file = BENCH / "spread.json"
    recorded = json.loads(spread_file.read_text()) if spread_file.is_file() else {}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {"runs": args.runs, "seeds": [seeds[0], seeds[-1]], "seconds": args.seconds}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "spread": round(spread, 5)}
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"{workload:10s} {name:18s} median {med:12.4f}  spread {spread:7.4f}  "
                  f"bound {bounds[name]}  {'ok' if ok else 'WIDE'}", flush=True)
        recorded[workload] = summary
        spread_file.write_text(json.dumps(recorded, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

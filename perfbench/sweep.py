"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --out sweep.json
    python3 perfbench/sweep.py --compare before.json after.json

The first form runs ``run.py --trace 0`` once per (seed, workload) over every
workload of BENCHMARK.json at its ``run_seconds``, seed-major, so the
workloads interleave and host drift hits all of them alike.  Each result is
stored with the host line run.py printed (cores, library versions, load
average before and after).  It then prints, per workload and metric, the
median and the quartile distance as a share of the median, next to the
metric's bound in BENCHMARK.json.  The second form compares the medians of
two such files, metric by metric, against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Raw wall medians and reference kernel time from run.py's host line, whose
# spreads are reported next to those of the host-normalized metrics.
RAW_TIMES = ("setup_wall_s", "run_wall_s", "reference_s")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _bounds(spec: dict) -> dict:
    metrics = spec["end_to_end"] + spec["per_layer"]
    return {m["name"]: (m.get("bound"), m["better"]) for m in metrics}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall_s = time.monotonic() - began
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "exit_code": proc.returncode,
            "wall_s": wall_s, "host": host, "result": result}


def values(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        if not rec["result"]:
            continue
        for name, metric in rec["result"]["metrics"].items():
            if metric["value"] is not None:
                out.setdefault((rec["workload"], name), []).append(metric["value"])
        for name in RAW_TIMES:
            if rec["host"].get(name) is not None:
                out.setdefault((rec["workload"], "host." + name), []).append(rec["host"][name])
    return out


def spread(xs: list[float]) -> float:
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    median = statistics.median(xs)
    return (q3 - q1) / abs(median) if median else float("inf")


def report(records: list[dict]) -> None:
    bounds = _bounds(_spec())
    bad = [r for r in records if not r["result"] or not r["result"]["correct"]]
    wall = sum(r.get("wall_s", 0.0) for r in records)
    print(f"{len(records)} runs in {wall:.0f} s, {len(bad)} failed or incorrect")
    for (workload, name), xs in sorted(values(records).items()):
        bound = bounds.get(name, (None, None))[0]
        note = "" if bound is None else f" bound {bound:.2f}" + (
            " ok" if spread(xs) <= bound / 3 else " WIDE")
        print(f"{workload:13s} {name:34s} n={len(xs):2d} median {statistics.median(xs):.6g} "
              f"spread {spread(xs):.4f}{note}")


def compare(before: list[dict], after: list[dict]) -> None:
    bounds = _bounds(_spec())
    a, b = values(before), values(after)
    for key in sorted(a.keys() & b.keys()):
        bound, better = bounds.get(key[1], (None, None))
        if bound is None:
            continue
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = (mb - ma) / abs(ma) if ma else 0.0
        worse = change if better == "lower" else -change
        verdict = "WORSE" if worse > bound else "ok"
        print(f"{key[0]:13s} {key[1]:20s} {ma:.6g} -> {mb:.6g} ({change:+.2%}, bound {bound:.0%}) "
              f"{verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="write the records here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()

    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                loaded.append(json.load(handle))
        compare(*loaded)
        return 0
    spec = _spec()
    records = []
    for seed in _seeds(args.seeds):
        for workload in spec["workloads"]:
            records.append(run_once(workload["name"], seed, spec["run_seconds"]))
            print(json.dumps(records[-1]), file=sys.stderr, flush=True)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    json.dump(records, handle, indent=1)
    report(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())

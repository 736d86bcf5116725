"""fedlora benchmark: ``fedlora run`` end to end on one workload.

    python3 perfbench/run.py --workload two_site --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  Every measurement is one fresh,
single-threaded child process (perfbench/child.py) running the CLI's
``run`` command on the workload's config; children run one at a time.  The
workload seed picks the config (workloads.py) and the program's master
seeds.  Children cycle through the master seeds until ``--seconds`` is used
up, and every seed runs at least once, with at least one seed repeated so
its outputs can be compared byte for byte.  A child's timing counts only if
its outputs pass the checks in checks.py.

``--trace 0`` prints the end-to-end metrics (medians over children; the F1
metrics average over the master seeds).  ``setup_s`` and ``run_s`` are
host-normalized.  Every child times child.py's fixed reference kernel right
after set-up, and a measured child times it again right after the run.  A
child's set-up time is divided by its first reading and its run time by
the mean of its two, both times REFERENCE_S, and the metrics are the
medians of these over all children: ``setup_s`` over the measured children
and the set-up-only children started after each of them, ``run_s`` over
the measured children.  On the 2-core test host the wall time of one
workload drifted by up to 60% within minutes, more than any bound can
hold, and the reference kernel drifted with it.  The raw wall medians are
printed on the ``host`` line.

``--trace 1`` alternates untraced and traced children of the same seed and
prints the per-layer metrics of spans.py (medians over traced children,
raw seconds) plus the tracing overhead, from host-normalized run times.

Progress and host details go to stderr and a ``host`` line; the last line
of stdout is the result JSON.  Exits 2 without a result when the checkout
has no fedlora sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = (os.path.join("src", "fedlora", "cli.py"), workloads.TWO_SITE)

# About the reference kernel's time on the 2-core x86-64 test host when it
# is quiet, so that normalized seconds read about as wall seconds there.
REFERENCE_S = 0.2

# Stop starting children after this many seconds, and kill one still
# running at the hard limit: a run must end within 180 s.
START_LIMIT_S = 140.0
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "wire_bytes": "B",
    "f1_strict_mean": "f1",
    "f1_lenient_mean": "f1",
    "ok_frac": "frac",
}
TRACE_UNITS = {"trace.overhead_frac": "frac"}


@dataclass
class Child:
    """One child process and what it measured."""

    seed: int
    traced: bool
    setup_only: bool = False
    problems: list[str] = field(default_factory=list)
    setup_s: float | None = None  # wall seconds
    run_s: float | None = None
    peak_rss_mb: float | None = None
    out_dir: str = ""
    spans_path: str = ""
    report: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    def __init__(self, workload: workloads.Workload, work_dir: str, started: float):
        self.workload = workload
        self.work_dir = work_dir
        self.started = started
        self.count = 0
        self.first_digests: dict[int, dict] = {}  # master seed -> digests of its first good run
        src = os.path.join(ROOT, "src")
        inherited = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + os.pathsep + inherited if inherited else src,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def spawn(self, seed: int, traced: bool = False, setup_only: bool = False) -> Child:
        self.count += 1
        tag = os.path.join(self.work_dir, f"child{self.count:03d}")
        child = Child(seed, traced, setup_only, out_dir=tag + "-out")
        report_path = tag + ".report.json"
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--config", self.workload.config_path, "--out-dir", child.out_dir,
            "--seed", str(seed), "--report", report_path,
        ]
        if traced:
            child.spans_path = tag + ".spans.json"
            cmd += ["--spans", child.spans_path]
        if setup_only:
            cmd.append("--setup-only")
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        with open(tag + ".log", "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                exit_code = proc.wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                child.problems.append("killed at the time limit")
                return child
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if not os.path.exists(report_path):
            child.problems.append(f"exit code {exit_code}, no report")
            return child
        with open(report_path, encoding="utf-8") as handle:
            child.report = json.load(handle)
        child.setup_s = child.report["setup_done"] - spawned
        if setup_only:
            if exit_code != 0:
                child.problems.append(f"exit code {exit_code}")
            return child
        child.problems = checks.check_run(
            exit_code, child.out_dir, self.workload.expected_rows,
            self.workload.bytes_per_param, child.report.get("layout", {}),
        )
        if child.ok:
            self._check_repeat(child)
        if child.ok:
            child.run_s = child.report["run_end"] - child.report["run_start"]
            child.peak_rss_mb = child.report["peak_rss_kb"] / 1024.0
        return child

    def _check_repeat(self, child: Child) -> None:
        got = checks.digests(child.out_dir)
        want = self.first_digests.setdefault(child.seed, got)
        differ = sorted(name for name in got if got[name] != want[name])
        if differ:
            child.problems.append(f"{differ} differ from the first run of seed {child.seed}")

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _normalized_setup(child: Child) -> float:
    return child.setup_s * REFERENCE_S / child.report["reference_s"][0]


def _normalized_run(child: Child) -> float:
    return child.run_s * REFERENCE_S / statistics.fmean(child.report["reference_s"])


def measure_end_to_end(bench: Bench, seconds: float, host: dict) -> tuple[list[Child], dict]:
    seeds = bench.workload.master_seeds
    children: list[Child] = []
    durations: list[float] = []
    i = 0
    while True:
        began = time.monotonic()
        children.append(bench.spawn(seeds[i % len(seeds)]))
        _progress(children[-1])
        # one more set-up sample, so that setup_s has samples spread over the run
        children.append(bench.spawn(seeds[0], setup_only=True))
        durations.append(time.monotonic() - began)
        i += 1
        if bench.elapsed() > START_LIMIT_S:
            break
        if i > len(seeds) and bench.elapsed() + statistics.median(durations) > seconds:
            break
    good = [c for c in children if c.ok]
    runs = [c for c in good if not c.setup_only]
    first_good = {}
    for c in runs:
        first_good.setdefault(c.seed, c)
    f1 = [checks.f1_means(c.out_dir) for c in first_good.values()]
    host["setup_samples"] = len(good)
    host["setup_wall_s"] = _median([c.setup_s for c in good])
    host["run_wall_s"] = _median([c.run_s for c in runs])
    host["reference_s"] = _median([r for c in good for r in c.report["reference_s"]])
    metrics = {
        "setup_s": _median([_normalized_setup(c) for c in good]),
        "run_s": _median([_normalized_run(c) for c in runs]),
        "peak_rss_mb": _median([c.peak_rss_mb for c in runs]),
        "wire_bytes": _median([checks.wire_bytes(c.out_dir) for c in first_good.values()]),
        "f1_strict_mean": statistics.fmean(m["strict"] for m in f1) if f1 else None,
        "f1_lenient_mean": statistics.fmean(m["lenient"] for m in f1) if f1 else None,
    }
    metrics["ok_frac"] = len(good) / len(children)
    return children, metrics


def measure_layers(bench: Bench, seconds: float) -> tuple[list[Child], dict]:
    seeds = bench.workload.master_seeds
    children: list[Child] = []
    pair_s: list[float] = []
    i = 0
    while True:
        began = time.monotonic()
        children.append(bench.spawn(seeds[i % len(seeds)]))
        children.append(bench.spawn(seeds[i % len(seeds)], traced=True))
        pair_s.append(time.monotonic() - began)
        i += 1
        _progress(children[-1])
        if bench.elapsed() > START_LIMIT_S:
            break
        if bench.elapsed() + statistics.median(pair_s) > seconds:
            break
    traces = []
    for c in children:
        if c.traced and c.ok:
            with open(c.spans_path, encoding="utf-8") as handle:
                traces.append(spans.Trace(json.load(handle)))
    metrics = spans.median_layers(traces)
    plain = _median([_normalized_run(c) for c in children if c.ok and not c.traced])
    traced = _median([_normalized_run(c) for c in children if c.ok and c.traced])
    metrics["trace.overhead_frac"] = traced / plain - 1.0 if plain and traced else None
    return children, metrics


def _progress(child: Child) -> None:
    status = "ok" if child.ok else "; ".join(child.problems)
    print(f"seed {child.seed} traced={int(child.traced)} setup_s={child.setup_s} "
          f"run_s={child.run_s} reference_s={child.report.get('reference_s')}: {status}",
          file=sys.stderr, flush=True)


def host_info(bench: Bench) -> dict:
    versions = bench.spawn(bench.workload.master_seeds[0], setup_only=True).report.get(
        "versions", {}
    )
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        **versions,
        "loadavg_before": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a fedlora checkout: missing {missing} under {ROOT}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    work_dir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workload = workloads.make_workload(args.workload, args.seed, ROOT, work_dir)
        bench = Bench(workload, work_dir, started)
        host = host_info(bench)  # also warms the page and bytecode caches; its times are dropped
        if args.trace:
            children, values = measure_layers(bench, args.seconds)
            units = {name: unit for name, (unit, _, _) in spans.PER_LAYER.items()}
            units.update(TRACE_UNITS)
        else:
            children, values = measure_end_to_end(bench, args.seconds, host)
            units = END_TO_END_UNITS
        attempted = len(children)
        failed = sum(1 for c in children if not c.ok)
        host["loadavg_after"] = list(os.getloadavg())
        host["children"] = attempted
        print("host " + json.dumps(host, sort_keys=True))
        metrics = {}
        for name, unit in units.items():
            metrics[name] = {"value": values.get(name), "unit": unit}
            if values.get(name) is None:
                metrics[name]["missing"] = True
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

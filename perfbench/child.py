"""One measured ``fedlora run``, in a fresh process started by run.py.

    python3 perfbench/child.py --config C --out-dir O --seed S --report R
                               [--spans P] [--setup-only]

Set-up is ``import fedlora`` plus ``load_config``; then the CLI's ``run``
command is called in-process.  The report R (JSON) holds monotonic clock
readings at the end of set-up and around the run, the CLI's exit code,
this process's peak RSS, the parameter counts and serialized sizes of the
configured model's adapter layout, which the output checker compares
against ``comm.csv`` and the transcript, and the times of a fixed
reference kernel run right after set-up and right after the run, from
which run.py reads the host's speed.
With ``--spans``, every layer is wrapped before set-up (see spans.py) and
the spans are written to P when the run ends.  ``--setup-only`` stops after
set-up and the first reference kernel, and reports library versions.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy


def reference_kernel(examples: int = 3000, resamples: int = 1500) -> float:
    """Seconds for a fixed stand-in for the program's inner loops.

    First, per-token embedding lookup, two small matmuls, softmax and their
    gradients, one example at a time, as in training and forward passes.
    Then bootstrap-style resampling of span tuples and pure-Python
    matching, as in scoring.  The mix of small BLAS calls and interpreter
    work follows the program's, so host slowdowns hit both alike.  It never
    calls the program, so a change to the program leaves it alone.
    """
    rng = numpy.random.default_rng(0)
    emb = rng.normal(size=(60, 64))
    w = rng.normal(size=(64, 64)) / 8
    h = rng.normal(size=(64, 9)) / 8
    tokens = [rng.integers(0, 60, size=n) for n in rng.integers(6, 13, size=examples)]
    tags = [rng.integers(0, 9, size=len(t)) for t in tokens]
    dw = numpy.zeros_like(w)
    dh = numpy.zeros_like(h)
    docs = [[(int(s), int(s) + int(n), int(t)) for s, n, t in rng.integers(0, 9, size=(4, 3))]
            for _ in range(1000)]
    start = time.perf_counter()
    for tok, tag in zip(tokens, tags):
        x = emb[tok]
        u = x @ w
        z = numpy.maximum(u, 0.0)
        logits = z @ h
        p = numpy.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[numpy.arange(len(tag)), tag] -= 1.0
        dh += z.T @ p
        dw += x.T @ ((p @ h.T) * (u > 0))
    for _ in range(resamples):
        sample = [docs[i] for i in rng.integers(0, len(docs), size=40)]
        hits = 0
        for gold in sample:
            pred = set(gold[1:])
            hits += sum(1 for span in gold if span in pred or (span[0], span[1], 0) in pred)
        dh[0, 0] += hits
    return time.perf_counter() - start


def _versions() -> dict:
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _layout(config) -> dict:
    from fedlora.lora import serialized_a_size, serialized_size
    from fedlora.model import Backbone

    adapters = Backbone.build(config.model).init_adapters(0)
    return {
        "params": adapters.param_count(),
        "a_params": adapters.a_param_count(),
        "full": serialized_size(adapters),
        "a_only": serialized_a_size(adapters),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import fedlora  # noqa: F401
    import fedlora.cli
    import fedlora.config

    recorder = None
    if args.spans:
        import spans

        recorder = spans.Recorder()
        spans.instrument(recorder)
    config = fedlora.config.load_config(args.config)
    report = {"setup_done": time.monotonic(), "reference_s": [reference_kernel()]}
    exit_code = 0
    if args.setup_only:
        report["versions"] = _versions()
    else:
        argv = ["run", "--config", args.config, "--out-dir", args.out_dir,
                "--seeds", str(args.seed)]
        report["run_start"] = time.monotonic()
        exit_code = fedlora.cli.main(argv)
        report["run_end"] = time.monotonic()
        report["reference_s"].append(reference_kernel())
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["layout"] = _layout(config)
        if recorder is not None:
            recorder.dump(args.spans)
    report["exit_code"] = exit_code
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for one ``fedlora run``; a run's timing counts only if they pass.

Checked: exit code 0; ``results.csv`` has the expected row count and every
F1 in [0, 1]; every ``comm.csv`` row counts the parameters of the model's
adapter layout and has ``bytes == params * bytes_per_param``; every
transcript upload and download moved exactly the parameter count and the
serialized size of that layout.  For ``share_a`` the layout is the A
factors only.  Byte-identity across repeats of one seed is checked by the
caller with :func:`digests`.
No digest is pinned: numeric changes may legitimately change the bits, and
the F1 metrics guard quality instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics

OUTPUTS = ("results.csv", "transcript.json", "comm.csv")


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _check_results(out_dir: str, expected_rows: int) -> list[str]:
    rows = _read_csv(os.path.join(out_dir, "results.csv"))
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"results.csv: {len(rows)} rows, expected {expected_rows}")
    for i, row in enumerate(rows):
        f1 = float(row["f1"])
        if not (math.isfinite(f1) and 0.0 <= f1 <= 1.0):
            problems.append(f"results.csv row {i}: f1 {row['f1']} outside [0, 1]")
    return problems


def _expected(layout: dict, strategy: str) -> tuple[int, int]:
    """(params, bytes) that one transfer of ``strategy`` must move."""
    if strategy == "share_a":
        return layout["a_params"], layout["a_only"]
    return layout["params"], layout["full"]


def _check_comm(out_dir: str, bytes_per_param: int, layout: dict) -> list[str]:
    problems = []
    for i, row in enumerate(_read_csv(os.path.join(out_dir, "comm.csv"))):
        params = _expected(layout, row["strategy"])[0]
        if int(row["params"]) != params:
            problems.append(f"comm.csv row {i}: params {row['params']}, expected {params}")
        if int(row["bytes"]) != int(row["params"]) * bytes_per_param:
            problems.append(
                f"comm.csv row {i}: bytes {row['bytes']} != params {row['params']} "
                f"x {bytes_per_param}"
            )
    return problems


def _check_transcript(out_dir: str, layout: dict) -> list[str]:
    with open(os.path.join(out_dir, "transcript.json"), encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    problems = []
    for run in runs:
        expected = _expected(layout, run["strategy"])
        for entry in run["rounds"]:
            for direction in ("uploads", "downloads"):
                for client, volume in entry[direction].items():
                    got = (volume["params"], volume["bytes"])
                    if got != expected:
                        problems.append(
                            f"transcript {run['strategy']} round {entry['round']} "
                            f"{direction} {client}: (params, bytes) {got}, "
                            f"expected {expected}"
                        )
    return problems


def check_run(exit_code: int, out_dir: str, expected_rows: int, bytes_per_param: int,
              layout: dict) -> list[str]:
    """Every problem found with one run's outputs; empty when the run is good.

    ``layout`` holds the model's adapter ``params`` and ``a_params`` counts and
    their serialized sizes ``full`` and ``a_only``, as child.py reports them.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [name for name in OUTPUTS if not os.path.exists(os.path.join(out_dir, name))]
    if missing:
        return [f"missing outputs {missing}"]
    try:
        return (
            _check_results(out_dir, expected_rows)
            + _check_comm(out_dir, bytes_per_param, layout)
            + _check_transcript(out_dir, layout)
        )
    except (KeyError, ValueError, TypeError) as err:
        return [f"malformed output: {err!r}"]


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in OUTPUTS:
        with open(os.path.join(out_dir, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def f1_means(out_dir: str) -> dict[str, float]:
    """Mean F1 of the results.csv rows of each scheme."""
    rows = _read_csv(os.path.join(out_dir, "results.csv"))
    return {
        scheme: statistics.fmean(float(r["f1"]) for r in rows if r["scheme"] == scheme)
        for scheme in ("strict", "lenient")
    }


def wire_bytes(out_dir: str) -> int:
    """Upload plus download payload bytes over every transcript round."""
    with open(os.path.join(out_dir, "transcript.json"), encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    return sum(
        volume["bytes"]
        for run in runs
        for entry in run["rounds"]
        for direction in ("uploads", "downloads")
        for volume in entry[direction].values()
    )

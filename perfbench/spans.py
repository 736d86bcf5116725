"""Span recorder for the traced run, and the per-layer metrics read from it.

The recorder wraps public names of the program where their callers look
them up (for example ``fedlora.federation.local_update``, which the round
loop calls), so nothing inside ``src/`` changes.  Each call of a wrapped
name becomes a span ``[id, parent id, name, start, end]``; the parent is
the innermost enclosing span.  Some wrapped names only add to counters
(examples, rows, rounds) and record no span.  Spans stay in memory and are
written out once, when the run ends.

The recorder assumes one thread: the benchmark never passes ``--threads``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

# A span is [id, parent id or -1, name, start, end] with monotonic seconds.
ID, PARENT, NAME, START, END = range(5)


class Recorder:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.calls: dict[str, int] = {}  # recorded calls per span and per counter
        self.unpatched: list[str] = []
        self._stack: list[int] = []
        self._seen_sets: dict[int, object] = {}

    def wrap(self, fn, span: str | None, counts: dict | None = None):
        """``fn`` recording a span named ``span`` (if given) and adding each
        ``counts[name](bound arguments, result)`` to counter ``name``.

        A measure that fails (say, a parameter was renamed) leaves its
        counter unrecorded, so it reads as missing; the call itself goes on.
        """
        counts = counts or {}
        signature = inspect.signature(fn) if counts else None
        for name in [span, *counts]:
            if name is not None:
                self.calls.setdefault(name, 0)
        for name in counts:
            self.counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = None
            if span is not None:
                self.calls[span] += 1
                record = [len(self.spans), self._stack[-1] if self._stack else -1, span, 0.0, 0.0]
                self.spans.append(record)
                self._stack.append(record[ID])
                record[START] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                if record is not None:
                    record[END] = self.clock()
                    self._stack.pop()
            if counts:
                bound = signature.bind(*args, **kwargs).arguments
                for name, measure in counts.items():
                    try:
                        self.counters[name] += measure(bound, result)
                    except (KeyError, TypeError, AttributeError):
                        continue
                    self.calls[name] += 1
            return result

        return wrapper

    def patch(self, target: str, attr: str, span: str | None, counts: dict | None = None):
        """Replace ``target.attr`` (a module or ``module:Class``) by a wrapper.

        A name that no longer exists is remembered as unpatched, so the
        metrics that depend on it read as missing rather than as zero.
        """
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.unpatched.append(f"{target}.{attr}")
            return
        setattr(owner, attr, self.wrap(fn, span, counts))

    def first_seen(self, obj) -> int:
        """1 the first time ``obj`` is passed, else 0 (objects are kept alive,
        so an id is never reused)."""
        if id(obj) in self._seen_sets:
            return 0
        self._seen_sets[id(obj)] = obj
        return 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": self.counters,
                    "calls": self.calls,
                    "unpatched": self.unpatched,
                },
                handle,
            )


def _length(bound, result) -> int:
    return len(result)


def _one(bound, result) -> int:
    return 1


def _example_grads(bound, result) -> int:
    return len(bound["dataset"]) * bound["sgd"].epochs


def instrument(recorder: Recorder) -> None:
    """Wrap the public functions of every layer, where their callers import them."""
    distinct = {"lora.distinct_sets": lambda bound, result: recorder.first_seen(bound["adapters"])}
    examples = {"datasim.examples": _length}
    table = [
        ("fedlora.cli", "main", "cli.main", None),
        ("fedlora.config", "load_config", "config.load_config", None),
        ("fedlora.cli", "load_config", "config.load_config", None),
        ("fedlora.cli", "generate_site", "datasim.generate_site", examples),
        ("fedlora.evaluate", "generate_site", "datasim.generate_site", examples),
        ("fedlora.cli", "make_validation_set", "datasim.make_validation_set", examples),
        ("fedlora.cli", "run_federation", "federation.run_federation", None),
        ("fedlora.federation", "sample_clients", None, {"federation.rounds": _one}),
        ("fedlora.federation", "local_update", "model.local_update",
         {"model.example_grads": _example_grads}),
        ("fedlora.federation", "validation_loss", "aggregation.validation_loss", None),
        ("fedlora.aggregation", "loss", None,
         {"model.loss_examples": lambda bound, result: len(bound["batch"])}),
        ("fedlora.federation", "aggregate", "aggregation.aggregate", None),
        ("fedlora.federation", "serialize_adapters", "lora.serialize_adapters", distinct),
        ("fedlora.lora", "serialize_adapters", "lora.serialize_adapters", distinct),
        ("fedlora.lora:AdapterSet", "checksum", "lora.checksum", None),
        ("fedlora.cli", "evaluate_result", "evaluate.evaluate_result", None),
        ("fedlora.evaluate", "evaluate_model", None,
         {"evaluate.docs": lambda bound, result: len(bound["test"])}),
        ("fedlora.evaluate", "forward", "model.forward", None),
        ("fedlora.evaluate", "span_counts", "metrics.matching", None),
        ("fedlora.evaluate", "relation_counts", "metrics.matching", None),
        ("fedlora.evaluate", "bootstrap_metric_ci", "metrics.bootstrap", None),
        ("fedlora.cli", "entries_from_transcripts", "comm.entries_from_transcripts",
         {"comm.ledger_rows": _length}),
    ]
    for target, attr, span, counts in table:
        recorder.patch(target, attr, span, counts)


# ---------------------------------------------------------------------------
# Reading a trace.
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Trace:
    """One run's spans and counters, as written by :meth:`Recorder.dump`."""

    def __init__(self, data: dict):
        self.counters = data["counters"]
        self.calls = data["calls"]
        self._by_name: dict[str, list[list]] = {}
        self._children: dict[int, list[tuple[float, float]]] = {}
        for span in data["spans"]:
            self._by_name.setdefault(span[NAME], []).append(span)
            self._children.setdefault(span[PARENT], []).append((span[START], span[END]))

    def count(self, name: str) -> int:
        return len(self._by_name.get(name, []))

    def total(self, name: str) -> float:
        return sum(span[END] - span[START] for span in self._by_name.get(name, []))

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus the part their child spans cover."""
        return sum(
            span[END] - span[START]
            - covered(self._children.get(span[ID], []), span[START], span[END])
            for span in self._by_name.get(name, [])
        )

    def recorded(self, name: str) -> bool:
        return self.calls.get(name, 0) > 0


# name -> (unit, wrapped names it needs, value from a Trace)
PER_LAYER = {
    "model.local_update_s": ("s", ["model.local_update"],
                             lambda t: t.total("model.local_update")),
    "model.local_update_calls": ("count", ["model.local_update"],
                                 lambda t: t.count("model.local_update")),
    "model.example_grads": ("count", ["model.example_grads"],
                            lambda t: t.counters["model.example_grads"]),
    "model.us_per_example_grad": ("us", ["model.local_update", "model.example_grads"],
                                  lambda t: 1e6 * t.total("model.local_update")
                                  / t.counters["model.example_grads"]),
    "aggregation.validation_loss_s": ("s", ["aggregation.validation_loss"],
                                      lambda t: t.total("aggregation.validation_loss")),
    "aggregation.validation_loss_calls": ("count", ["aggregation.validation_loss"],
                                          lambda t: t.count("aggregation.validation_loss")),
    "model.loss_examples": ("count", ["model.loss_examples"],
                            lambda t: t.counters["model.loss_examples"]),
    "federation.run_s": ("s", ["federation.run_federation"],
                         lambda t: t.total("federation.run_federation")),
    "federation.self_s": ("s", ["federation.run_federation"],
                          lambda t: t.self_time("federation.run_federation")),
    "federation.rounds": ("count", ["federation.rounds"],
                          lambda t: t.counters["federation.rounds"]),
    "aggregation.aggregate_s": ("s", ["aggregation.aggregate"],
                                lambda t: t.total("aggregation.aggregate")),
    "aggregation.aggregate_calls": ("count", ["aggregation.aggregate"],
                                    lambda t: t.count("aggregation.aggregate")),
    "lora.serialize_s": ("s", ["lora.serialize_adapters"],
                         lambda t: t.total("lora.serialize_adapters")),
    "lora.serialize_calls": ("count", ["lora.serialize_adapters"],
                             lambda t: t.count("lora.serialize_adapters")),
    "lora.checksum_calls": ("count", ["lora.checksum"], lambda t: t.count("lora.checksum")),
    "lora.serializations_per_set": ("ratio", ["lora.serialize_adapters", "lora.distinct_sets"],
                                    lambda t: t.count("lora.serialize_adapters")
                                    / t.counters["lora.distinct_sets"]),
    "model.forward_s": ("s", ["model.forward"], lambda t: t.total("model.forward")),
    "model.forward_calls": ("count", ["model.forward"], lambda t: t.count("model.forward")),
    "evaluate.forwards_per_doc": ("ratio", ["model.forward", "evaluate.docs"],
                                  lambda t: t.count("model.forward")
                                  / t.counters["evaluate.docs"]),
    "evaluate.result_s": ("s", ["evaluate.evaluate_result"],
                          lambda t: t.total("evaluate.evaluate_result")),
    "evaluate.self_s": ("s", ["evaluate.evaluate_result"],
                        lambda t: t.self_time("evaluate.evaluate_result")),
    "evaluate.docs": ("count", ["evaluate.docs"], lambda t: t.counters["evaluate.docs"]),
    "metrics.matching_s": ("s", ["metrics.matching"], lambda t: t.total("metrics.matching")),
    "metrics.matching_calls": ("count", ["metrics.matching"],
                               lambda t: t.count("metrics.matching")),
    "metrics.bootstrap_s": ("s", ["metrics.bootstrap"], lambda t: t.total("metrics.bootstrap")),
    "metrics.bootstrap_calls": ("count", ["metrics.bootstrap"],
                                lambda t: t.count("metrics.bootstrap")),
    "datasim.generate_s": ("s", ["datasim.generate_site", "datasim.make_validation_set"],
                           lambda t: t.total("datasim.generate_site")
                           + t.total("datasim.make_validation_set")),
    "datasim.examples": ("count", ["datasim.examples"],
                         lambda t: t.counters["datasim.examples"]),
    "config.load_s": ("s", ["config.load_config"], lambda t: t.total("config.load_config")),
    "comm.ledger_s": ("s", ["comm.entries_from_transcripts"],
                      lambda t: t.total("comm.entries_from_transcripts")),
    "comm.ledger_rows": ("count", ["comm.ledger_rows"],
                         lambda t: t.counters["comm.ledger_rows"]),
    "cli.self_s": ("s", ["cli.main"], lambda t: t.self_time("cli.main")),
}


def layer_values(trace: Trace) -> dict[str, float | None]:
    """Every per-layer metric of one traced run; None where a name it needs
    recorded no call (missing, not zero)."""
    return {
        name: value(trace) if all(trace.recorded(need) for need in needs) else None
        for name, (_, needs, value) in PER_LAYER.items()
    }


def median_layers(traces: list[Trace]) -> dict[str, float | None]:
    """Per-layer medians over several traced runs of one workload."""
    per_run = [layer_values(trace) for trace in traces]
    out = {}
    for name in PER_LAYER:
        values = [run[name] for run in per_run]
        out[name] = None if not values or None in values else statistics.median(values)
    return out

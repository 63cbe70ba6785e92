"""Span tracing installed from outside the program, for the traced run only.

`install` wraps public functions of equimine's modules by replacing module
(or class) attributes, so every call made through the module attribute opens
a span. Nothing under src/ knows about it. A function that is missing (renamed
or removed by a later change) is skipped and simply reports 0 calls.

Spans are kept in memory as (name, start, end, parent index). At the end of
each op `Tracer.finish_op` folds them into per-op layer figures and clears
them, so memory stays bounded however many ops a run holds; the per-op
figures are written out when the run ends.
"""

import importlib
import os
import time
from contextlib import contextmanager

# Layer -> [(module attribute path, span name)]. Span names are the per-layer
# metric stems; several functions may feed one stem.
TRACED = {
    "pipeline": [("run_pipeline", "pipeline.run"), ("load_run_config", "pipeline.load_config")],
    "io": [
        ("load_pairwise_csv", "io.load"), ("load_decision_csv", "io.load"),
        ("load_indicator_table", "io.load"), ("load_gdp_csv", "io.load"),
        ("load_scenario", "io.load"), ("load_train_config", "io.load"),
        ("write_json_report", "io.write"), ("write_csv", "io.write"),
    ],
    "mcda": [("consistency", "mcda.consistency"), ("derive_weights", "mcda.weights")],
    "equity": [
        ("IndicatorVector.__post_init__", "equity.vector"), ("country_score", "equity.score"),
        ("global_equity_index", "equity.index"),
    ],
    "topsis": [("rank_alternatives", "topsis.rank")],
    "mining": [("MiningCurveParams.__post_init__", "mining.curve"), ("income", "mining.income")],
    "allocation": [("allocate", "allocation.allocate")],
    "stats": [("pearson", "stats.pearson"), ("t_test", "stats.t_test")],
    "sensnet": [
        ("sensitivity_sweep", "sensnet.sweep"), ("train", "sensnet.train"),
        ("input_sensitivities", "sensnet.input_grad"),
        ("perturbation_sweep", "sensnet.perturb"),
    ],
}

# Inclusive seconds per op for these stems, reported as "<stem>_s".
TIMED_STEMS = (
    "cli.import", "pipeline.run", "io.load", "io.write", "mcda.consistency", "mcda.weights",
    "equity.vector", "equity.score", "equity.index", "topsis.rank", "mining.curve", "mining.income",
    "allocation.allocate", "stats.pearson", "stats.t_test", "sensnet.sweep",
    "sensnet.train", "sensnet.input_grad", "sensnet.perturb",
)
# Call counts per op for these stems, reported as "<stem>_calls".
COUNTED_STEMS = ("equity.score", "stats.t_test")
# Self time (own span minus its children) for these stems, as "<layer>.self_s".
SELF_STEMS = {"cli.main": "cli.self_s", "pipeline.run": "pipeline.self_s"}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self.bytes_written = 0

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def finish_op(self, op_seconds: float) -> dict:
        """Fold this op's spans into layer figures, then forget the spans."""
        figures = fold(self.spans, op_seconds)
        figures["io.bytes_written"] = self.bytes_written
        self.spans, self.bytes_written = [], 0
        return figures


def fold(spans, op_seconds: float) -> dict:
    """Per-op layer figures from one op's spans.

    A stem's time is the inclusive time of its outermost calls: a call nested
    inside another call of the same stem is not counted twice. Self time is a
    span's duration minus the durations of its direct children, which run
    inside it one after another. `bench.unattributed_s` is the op time no
    top-level span covers.
    """
    figures = {f"{stem}_s": 0.0 for stem in TIMED_STEMS}
    figures.update({f"{stem}_calls": 0 for stem in COUNTED_STEMS})
    figures.update({metric: 0.0 for metric in SELF_STEMS.values()})
    child_time = [0.0] * len(spans)
    covered = 0.0
    for name, start, end, parent in spans:
        duration = end - start
        if parent >= 0:
            child_time[parent] += duration
        else:
            covered += duration
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        if name in COUNTED_STEMS:
            figures[f"{name}_calls"] += 1
        if name in SELF_STEMS:
            figures[SELF_STEMS[name]] += duration - child_time[i]
        if f"{name}_s" in figures and not _inside_same(spans, parent, name):
            figures[f"{name}_s"] += duration
    figures["bench.unattributed_s"] = op_seconds - covered
    return figures


def _inside_same(spans, parent, name) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _wrap(tracer, fn, name):
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if name == "io.write":
            path = args[0] if args else kwargs["path"]
            tracer.bytes_written += os.path.getsize(path)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list:
    """Wrap every traced function that exists; returns an undo list."""
    undo = []
    for layer, entries in TRACED.items():
        module = importlib.import_module(f"equimine.{layer}")
        for path, name in entries:
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                continue
            setattr(owner, attr, _wrap(tracer, fn, name))
            undo.append((owner, attr, fn))
    return undo


def uninstall(undo: list):
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)

"""In-memory span tracer and the wrappers that attach it to the sqst layers.

A span is (name, start, end, parent, item, attrs).  Spans are appended to a
list while a traced pass runs and are written out only when the run ends.
The wrappers replace the module and class attributes that sqst resolves at
call time, so calls from one sqst module into another are caught without any
change to sqst itself.  With the tracer off, a wrapper costs one attribute
test per call.

Two spans of the same name may nest (``sample_record`` calls
``OutcomeDistribution.sample_cells``); a layer's call count counts only the
outermost one, and its busy time is the sum of self times, which never counts
an interval twice.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# Layers whose calls, self time and counts become per-layer metrics.
LAYERS = (
    "mub.build",
    "mub.fingerprint",
    "measurement.born",
    "measurement.sample",
    "measurement.record_write",
    "measurement.record_read",
    "estimator.fold",
    "estimator.counts",
    "tomography.assemble",
    "tomography.project",
)
CLI_COMMANDS = ("simulate", "estimate", "tomography")


class Tracer:
    """Collects spans while ``on``; ``item`` tags every span opened meanwhile."""

    def __init__(self):
        self.spans: list[dict] = []
        self.on = False
        self.item = None
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "item": self.item, "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; returns (span, result)."""
        span = self.open(name)
        try:
            return span, fn(*args, **kwargs)
        finally:
            self.close(span)

    def timed(self, name: str, fn, *args, **kwargs):
        """Run fn; returns (seconds, result), recording a span only while on."""
        if self.on:
            span, out = self.call(name, fn, *args, **kwargs)
            return span["end"] - span["start"], out
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        return time.perf_counter() - start, out

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by a child process under the span at index parent."""
        base = len(self.spans)
        for s in spans:
            s = dict(s, item=self.spans[parent]["item"])
            s["parent"] = parent if s["parent"] is None else base + s["parent"]
            self.spans.append(s)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer):
    """Wrap the sqst layer entry points; returns a function that restores them."""
    from sqst import estimator, measurement, mub, tomography

    restore = []

    def wrap(owner, attr, name, attrs=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return orig(*args, **kwargs)
            span, out = tracer.call(name, orig, *args, **kwargs)
            if attrs is not None:
                span["attrs"].update(attrs(args, out))
            return out

        setattr(owner, attr, wrapper)
        restore.append((owner, attr, orig))

    wrap(mub, "build_mub", "mub.build")
    wrap(mub.MubFamily, "fingerprint", "mub.fingerprint",
         lambda a, out: {"family": f"{os.getpid()}:{id(a[0])}"})
    wrap(measurement, "outcome_distribution", "measurement.born",
         lambda a, out: {"cells": int(out.probs.size)})
    wrap(measurement.AliasTable, "__init__", "measurement.born")
    wrap(measurement, "sample_record", "measurement.sample")
    wrap(measurement.OutcomeDistribution, "sample_cells", "measurement.sample",
         lambda a, out: {"copies": int(out.size)})
    wrap(measurement, "write_record", "measurement.record_write",
         lambda a, out: {"bytes": os.path.getsize(a[1])})
    wrap(measurement, "read_record", "measurement.record_read",
         lambda a, out: {"bytes": os.path.getsize(a[0])})
    for fn in ("estimate_element", "estimate_diagonal", "eta_table"):
        wrap(estimator, fn, "estimator.fold")
    wrap(mub, "eta_table", "estimator.fold")
    for owner in (estimator, tomography):
        wrap(owner, "outcome_counts", "estimator.counts",
             lambda a, out: {"record": f"{os.getpid()}:{tracer.item}:{id(a[0])}"})
    wrap(tomography, "assemble_linear_estimate", "tomography.assemble")
    wrap(tomography, "project_psd_maxnorm", "tomography.project",
         lambda a, out: {"sweeps": int(out.iterations),
                            "already_valid": int(out.iterations == 0)})

    def uninstall():
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)

    return uninstall


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".recounts_per_record", ".calls_per_family")):
        return "ratio"
    return "count"


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer counts and busy (self) times, keyed by metric name."""
    own = self_times(spans)
    busy = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(int)
    keys = defaultdict(set)
    dur = defaultdict(float)
    for s, t in zip(spans, own):
        name = s["name"]
        busy[name] += t
        dur[name] += s["end"] - s["start"]
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
        if parent != name:
            calls[name] += 1
        for key, value in s["attrs"].items():
            if isinstance(value, str):
                keys[(name, key)].add(value)
            else:
                sums[(name, key)] += value

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]

    def ratio(a, b):
        return a / b if b else 0.0

    out["mub.fingerprint.calls_per_family"] = ratio(
        calls["mub.fingerprint"], len(keys[("mub.fingerprint", "family")]))
    out["measurement.born.cells"] = sums[("measurement.born", "cells")]
    copies = sums[("measurement.sample", "copies")]
    out["measurement.sample.copies"] = copies
    out["measurement.sample.copies_per_s"] = ratio(copies, busy["measurement.sample"])
    for io in ("record_write", "record_read"):
        out[f"measurement.{io}.bytes"] = sums[(f"measurement.{io}", "bytes")]
    out["estimator.counts.recounts_per_record"] = ratio(
        calls["estimator.counts"], len(keys[("estimator.counts", "record")]))
    out["tomography.project.sweeps"] = sums[("tomography.project", "sweeps")]
    out["tomography.project.already_valid_frac"] = ratio(
        sums[("tomography.project", "already_valid")], calls["tomography.project"])

    commands = [f"cli.{c}" for c in CLI_COMMANDS]
    out["cli.startup_s"] = sum(busy[c] for c in commands)
    for c in commands:
        out[f"{c}.wall_s"] = dur[c]
    out["cli.self_s"] = sum(busy[n] for n in ("cli.main", "cli.fig2_trial",
                                              "cli.reproduce_fig2"))
    out["bench.glue_s"] = sum(t for name, t in busy.items() if name.startswith("bench."))
    out["bench.traced_pass_s"] = sum(s["end"] - s["start"] for s in spans
                                     if s["parent"] is None)
    return out

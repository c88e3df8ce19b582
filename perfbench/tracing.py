"""Spans around the program's public calls, recorded from the benchmark's side.

``install`` replaces selected public functions of the ``deepesn`` modules with
wrappers that time each call into a :class:`Recorder`; the program's own
source is not touched.  A span holds its name, process id, start and end
(``time.perf_counter``, which is system-wide on Linux, so forked workers share
the parent's clock) and the id of the span that was open when it started.

The search pool forks its workers, and a forked worker inherits the wrappers
and the recorder.  A worker cannot hand spans back through the pool, so at
the end of each trial it appends its spans to a spool file named after its
process id, and the parent reads the spool when it takes the spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# (module, function, span name) of every traced call.  Each function is also
# replaced wherever another deepesn module imported it by name.
TRACED = (
    ("deepesn.datasets", "generate_narma10", "datasets.generate"),
    ("deepesn.datasets", "generate_mackey_glass", "datasets.generate"),
    ("deepesn.topology", "spectral_radius", "topology.spectral_radius"),
    ("deepesn.topology", "operator_norm", "topology.operator_norm"),
    ("deepesn.topology", "make_sparse_recurrent", "topology.make_sparse_recurrent"),
    ("deepesn.reservoir", "build_reservoir", "reservoir.build"),
    ("deepesn.reservoir", "run", "reservoir.run"),
    ("deepesn.readout", "train_pseudo_inverse", "readout.fit"),
    ("deepesn.readout", "mse", "readout.mse"),
    ("deepesn.experiment", "evaluate_trial", "experiment.trial"),
    ("deepesn.experiment", "run_benchmark_suite", "experiment.suite"),
)

# The span after which a forked worker spools what it recorded.
_WORKER_FLUSH_SPAN = "experiment.trial"


def _run_layer_steps(args, kwargs) -> int:
    reservoir = args[0] if args else kwargs["reservoir"]
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    return len(inputs) * reservoir.num_layers


# Extra counts kept on a span, computed from the call's arguments.
_ATTRIBUTES = {"reservoir.run": ("layer_steps", _run_layer_steps)}


class Recorder:
    """In-memory spans of one benchmark process and of the workers it forks."""

    def __init__(self, spool_dir: Path):
        self.pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spans: list[dict] = []
        self._open: list[tuple[int, int]] = []
        self._next_id = 0

    def begin(self, name: str) -> dict:
        self._next_id += 1
        span = {
            "name": name,
            "pid": os.getpid(),
            "id": self._next_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self._open.append((span["pid"], span["id"]))
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()
        self.spans.append(span)
        if span["name"] == _WORKER_FLUSH_SPAN and span["pid"] != self.pid:
            self._spool()

    def _spool(self) -> None:
        pid = os.getpid()
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        with open(self.spool_dir / f"{pid}.jsonl", "a", encoding="ascii") as handle:
            for span in mine:
                handle.write(json.dumps(span) + "\n")

    def collect_spool(self) -> None:
        """Move the spans that forked workers spooled into this recorder."""
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            with open(path, encoding="ascii") as handle:
                for line in handle:
                    span = json.loads(line)
                    span["parent"] = tuple(span["parent"]) if span["parent"] else None
                    self.spans.append(span)
            path.unlink()

    def take(self) -> list[dict]:
        """Every span recorded so far, spooled ones included; the recorder is emptied."""
        self.collect_spool()
        spans, self.spans = self.spans, []
        return spans


def _wrap(recorder: Recorder, func, name: str):
    attribute = _ATTRIBUTES.get(name)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = recorder.begin(name)
        if attribute is not None:
            span[attribute[0]] = attribute[1](args, kwargs)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.end(span)

    return traced


def install(recorder: Recorder):
    """Trace every function in ``TRACED``; returns a callable that restores the originals."""
    replaced = []
    modules = [m for n, m in list(sys.modules.items()) if n == "deepesn" or n.startswith("deepesn.")]
    for module_name, attr, span_name in TRACED:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(recorder, original, span_name)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                replaced.append((module, attr, original))

    def uninstall():
        for module, attr, original in replaced:
            setattr(module, attr, original)

    return uninstall


def self_seconds(spans: list[dict], name: str) -> float:
    """Total time of the spans called ``name`` minus the time of their direct children."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            key = tuple(span["parent"])
            children[key] = children.get(key, 0.0) + span["end"] - span["start"]
    return sum(
        span["end"] - span["start"] - children.get((span["pid"], span["id"]), 0.0)
        for span in spans
        if span["name"] == name
    )

"""Host-time spans recorded from outside the program.

The traced run wraps the public entry points of each layer of ``repro``
(see :data:`TARGETS`) in a shim that records one span per call: layer,
function, start, end, parent span and run id.  Spans stay in memory and are
written out once, after the measurement.  Nothing inside ``src/`` is
touched; :func:`install` swaps attributes on the program's classes and
modules and the returned callable puts the originals back.

A span's self time is its duration minus the time its direct child spans
cover.  The benchmark opens a root span around each set-up and each run, so
the self times of all spans under one root sum exactly to that root's
duration; the root's own self time is the part no shim attributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (layer, module, attribute path, count extractor).  The extractor maps the
#: call's return value to a work count kept on the span; ``None`` keeps none.
TARGETS = (
    ("workloads", "repro.workloads.mixer", "synthesize_mix", lambda r: len(r.requests)),
    ("workloads", "repro.workloads.adversarial", "build_scenario", lambda r: len(r.requests)),
    ("core.features", "repro.core.features", "features_of_mix", None),
    ("core.labeler", "repro.core.labeler", "sweep_strategies", len),
    ("ssd.fastmodel", "repro.ssd.fastmodel", "FastLatencyModel.run", lambda r: r.requests),
    ("core.allocator", "repro.core.allocator", "ChannelAllocator.allocate", None),
    ("core.allocator", "repro.core.allocator", "verified_allocate", None),
    ("core.allocator", "repro.core.allocator", "ChannelAllocator.prediction_health", None),
    ("core.keeper", "repro.core.keeper", "SSDKeeper.run_adaptive", None),
    ("core.online", "repro.core.online", "RetrainGovernor.attempt", None),
    ("core.drift", "repro.core.drift", "DriftDetector.update", len),
    ("nn", "repro.nn.training", "Trainer.fit", lambda r: len(r.loss)),
    ("ssd.simulator", "repro.ssd.simulator", "SSDSimulator.run", None),
    ("ssd.simulator", "repro.ssd.simulator", "SSDSimulator.prepare", None),
    ("ssd.simulator", "repro.ssd.simulator", "SSDSimulator.collect", None),
    ("ssd.engine", "repro.ssd.engine", "EventLoop.run", None),
    ("ssd.controller", "repro.ssd.controller", "FTLController.place_write", None),
    ("ssd.ftl.page_alloc", "repro.ssd.ftl.page_alloc", "DynamicPagePlacer.place", None),
    ("ssd.ftl.gc", "repro.ssd.ftl.gc", "GarbageCollector.collect", None),
    ("ssd.faults", "repro.ssd.faults", "FaultInjector.read_outcome", None),
    ("ssd.faults", "repro.ssd.faults", "FaultInjector.program_fails", None),
    ("ssd.faults", "repro.ssd.faults", "FaultInjector.erase_fails", None),
)

# Span record layout (a list, so the shim can fill in the end and count).
FIELDS = ("layer", "func", "start_s", "end_s", "parent", "run", "count")
LAYER, FUNC, START, END, PARENT, RUN, COUNT = range(len(FIELDS))


class SpanRecorder:
    """In-memory span store with a parent stack (single-threaded program)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: label stamped on every span opened from now on
        self.run_id = ""

    def begin(self, layer: str, func: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [layer, func, 0.0, 0.0, parent, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write_jsonl(self, path) -> None:
        """One JSON array per line, after a header line naming the fields.

        A span's id is its line number after the header.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(FIELDS) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _shim(recorder: SpanRecorder, layer: str, func: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.begin(layer, func)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if count is not None:
            span[COUNT] = count(result)
        return result

    return traced


def install(recorder: SpanRecorder):
    """Wrap every :data:`TARGETS` entry; returns a callable that restores them.

    A module-level function is also re-bound in every loaded ``repro``
    module that imported it by name, so calls through those bindings are
    traced too.  A missing target raises: the benchmark must not silently
    lose a layer.
    """
    undo = []
    for layer, module_name, path, count in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        traced = _shim(recorder, layer, path, original, count)
        if owner_name:
            setattr(owner, attr, traced)
            undo.append((owner, attr, original))
            continue
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(attr) is original):
                setattr(mod, attr, traced)
                undo.append((mod, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore

"""Spans recorded from outside the library, by wrapping its entry points.

``install`` replaces the public functions of each mcde module, and the
``forward``/``backward`` methods of every layer class and of
``Network``, with wrappers that record one span per call: a name, a
start and end time in nanoseconds, and the index of the enclosing span.
Module attributes that were imported by name elsewhere in the package
(``derive_seed`` inside ``mcde.nn.network``, ``train`` inside
``mcde.bench``, ...) are replaced too, and so are module-level dict
entries that hold them (``mcde.bench._METRIC_FNS``), so every call site
is seen.

Spans are kept in flat in-memory arrays and written out only when a run
ends.  The library is single-threaded per process, so one span stack per
process suffices.  A process forked from a traced one (the fold workers
of ``crossval``) starts with an empty store and writes its spans to
``flush_dir`` after every fold it runs.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (module, attribute, span name); each attribute is a function.
FUNCTIONS = (
    ("mcde.seeding", "derive_seed", "seeding.derive_seed"),
    ("mcde.color", "recovery_error", "color.recovery_error"),
    ("mcde.color", "reproduction_error", "color.reproduction_error"),
    ("mcde.baselines", "grey_world", "baselines.grey_world"),
    ("mcde.baselines", "shades_of_grey", "baselines.shades_of_grey"),
    ("mcde.datagen", "gen_scene", "datagen.gen_scene"),
    ("mcde.datagen", "save", "datagen.save"),
    ("mcde.datagen", "load", "datagen.load"),
    ("mcde.nn.training", "train", "nn.training.train"),
    ("mcde.nn.io", "save_network", "nn.io.save_network"),
    ("mcde.nn.io", "load_network", "nn.io.load_network"),
    ("mcde.mc", "mc_estimate", "mc.mc_estimate"),
    ("mcde.fusion", "ensemble_estimates", "fusion.ensemble_estimates"),
    ("mcde.fusion", "fuse", "fusion.fuse"),
    ("mcde.fusion", "mcde", "fusion.mcde"),
    ("mcde.bench", "stats", "bench.stats"),
    ("mcde.bench", "crossval", "bench.crossval"),
    ("mcde.bench", "write_report", "bench.write_report"),
    ("mcde.bench", "band_shift_scenario", "bench.band_shift_scenario"),
    # The body of one cross-validation fold, run in a worker process.
    ("mcde.bench", "_run_fold", "bench.fold"),
)

FOLD_SPAN = "bench.fold"


class Tracer:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self, flush_dir=None):
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._flushes = 0
        self._clear()
        os.register_at_fork(after_in_child=self._start_child)

    def _clear(self) -> None:
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _start_child(self) -> None:
        self._flushes = 0
        self._clear()

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_index(name)
        flush = name == FOLD_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(perf_counter_ns())
            self.end.append(0)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self._stack.pop()
                if flush and len(self._stack) == 1 and self.flush_dir is not None:
                    self.flush()

        return traced

    def flush(self) -> None:
        """Write the spans recorded so far to ``flush_dir`` and forget them."""
        self._flushes += 1
        self.dump(self.flush_dir / f"spans-{os.getpid()}-{self._flushes}.npz")
        self._clear()

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )

    def arrays(self, first: int = 0) -> dict:
        """Spans from index ``first`` on, as numpy arrays."""
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32)[first:].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64)[first:] - first,
            "start": np.frombuffer(self.start, dtype=np.int64)[first:].copy(),
            "end": np.frombuffer(self.end, dtype=np.int64)[first:].copy(),
        }


def load_spans(path) -> dict:
    with np.load(path) as data:
        return {
            "names": json.loads(str(data["names"])),
            "name_id": data["name_id"],
            "parent": data["parent"],
            "start": data["start"],
            "end": data["end"],
        }


def _layer_classes():
    import mcde.nn.layers as layers

    return [
        getattr(layers, name)
        for name in layers.__all__
        if isinstance(getattr(layers, name), type) and hasattr(getattr(layers, name), "kind")
    ]


def install(tracer: Tracer):
    """Wrap every traced entry point; returns a function that undoes it."""
    import mcde.bench  # noqa: F401  (loads every module that is patched)
    import mcde.cli  # noqa: F401
    from mcde.nn.network import Network

    undo = []

    def patch(owner, attr, value):
        undo.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_entry(table, key, value):
        undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    packages = [m for name, m in sys.modules.items() if name == "mcde" or name.startswith("mcde.")]
    for module_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(span, original)
        for module in packages:
            for key, value in list(vars(module).items()):
                if value is original:
                    patch(module, key, wrapped)
                elif isinstance(value, dict):
                    for entry, held in list(value.items()):
                        if held is original:
                            patch_entry(value, entry, wrapped)
    for cls in _layer_classes():
        patch(cls, "forward", tracer.wrap(f"nn.layers.{cls.kind}.fwd", cls.forward))
        patch(cls, "backward", tracer.wrap(f"nn.layers.{cls.kind}.bwd", cls.backward))
    patch(Network, "forward", tracer.wrap("nn.network.forward", Network.forward))
    patch(Network, "backward", tracer.wrap("nn.network.backward", Network.backward))

    def uninstall():
        for restore, owner, attr, value in reversed(undo):
            restore(owner, attr, value)

    return uninstall


class Totals:
    """Per span name: call count, total time and self time, in ns.

    A span's self time is its duration minus that of its direct
    children.  Single durations are kept for ``FOLD_SPAN`` only.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, int] = {}
        self.self_time: dict[str, int] = {}
        self.fold_ns: list[int] = []

    def add(self, spans: dict) -> None:
        name_id, parent = spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
        child = np.zeros(duration.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        for nid, name in enumerate(spans["names"]):
            sel = name_id == nid
            n = int(sel.sum())
            if n == 0:
                continue
            self.calls[name] = self.calls.get(name, 0) + n
            self.total[name] = self.total.get(name, 0) + int(duration[sel].sum())
            self.self_time[name] = self.self_time.get(name, 0) + int(own[sel].sum())
            if name == FOLD_SPAN:
                self.fold_ns.extend(duration[sel].tolist())

    def mean(self, name: str, scale: float) -> float:
        calls = self.calls.get(name, 0)
        return self.total.get(name, 0) / calls / scale if calls else 0.0

    def self_mean(self, name: str, scale: float) -> float:
        calls = self.calls.get(name, 0)
        return self.self_time.get(name, 0) / calls / scale if calls else 0.0


def root_time_ns(spans: dict) -> int:
    """Time covered by top-level spans (they never overlap in one process)."""
    roots = spans["parent"] < 0
    return int((spans["end"][roots] - spans["start"][roots]).sum())

"""In-memory span tracing of the program's public functions.

`Tracer.install` replaces each traced function with a wrapper that records
a span (name, parent span, start, end) and restores the originals on
`uninstall`.  A function that other modules import by name has one binding
per importing module, so every binding in the `gaze6d` modules that is the
original object gets the wrapper; methods are wrapped on their class.
Spans are kept in compact arrays and written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (span name, module, attribute path, kind, rows hook)
# rows hooks count the work a call did: the rows of a batch or of a dataset
TARGETS = [
    ("camera.backproject", "camera", "backproject", "function", None),
    ("easy_norm.norm_rotation", "easy_norm", "norm_rotation", "function", None),
    ("easy_norm.to_matrix", "easy_norm", "to_matrix", "function", None),
    # every construction runs the orthonormality and determinant check
    ("easy_norm.Rotation3", "easy_norm", "Rotation3.__post_init__", "method", None),
    ("pogz.pogz_from_ray", "pogz", "pogz_from_ray", "function", None),
    ("pogz.pogz_to_pog", "pogz", "pogz_to_pog", "function", None),
    ("pogz.pog_to_pogz", "pogz", "pog_to_pogz", "function", None),
    ("pogz.RigidTransform.inverse", "pogz", "RigidTransform.inverse", "property", None),
    ("calibration.derive_calibration_label", "calibration", "derive_calibration_label", "function", None),
    ("calibration.write_calibration_set", "calibration", "write_calibration_set", "function", None),
    ("synth.sample_frame", "synth", "sample_frame", "function", None),
    ("synth.generate_dataset", "synth", "generate_dataset", "function", None),
    ("synth.load_dataset", "synth", "load_dataset", "function", lambda args, out: len(out)),
    ("synth.calibration_view", "synth", "calibration_view", "function", None),
    ("model.Batch.from_samples", "model", "Batch.from_samples", "classmethod", None),
    ("model.backward", "model", "backward", "function", lambda args, out: len(args[1])),
    ("model.Adam.step", "model", "Adam.step", "method", None),
    ("model.train", "model", "train", "function", None),
    ("model.fine_tune", "model", "fine_tune", "function", None),
    ("model.forward", "model", "forward", "function", None),
    ("model.predict_6dof", "model", "predict_6dof", "function", None),
    ("model.save_params", "model", "save_params", "function", None),
    ("model.load_params", "model", "load_params", "function", None),
    ("metrics.evaluate", "metrics", "evaluate", "function", None),
]


class Tracer:
    """Records nested spans of traced calls in one thread.

    A tracer made with enabled=False records nothing, so the same code
    runs traced and untraced.
    """

    def __init__(self, enabled: bool = True):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.rows: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._paused = 0 if enabled else 1

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, name_id: int) -> int:
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def _end(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named `name`."""
        if self._paused:
            yield
            return
        i = self._begin(self._name_id(name))
        try:
            yield
        finally:
            self._end(i)

    @contextmanager
    def paused(self):
        """Run the enclosed block untraced, e.g. the benchmark's own checks."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, name: str, fn, rows=None):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            i = self._begin(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(i)
            if rows is not None:
                self.rows[name] += rows(args, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every TARGETS entry of `package` (the imported gaze6d)."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for name, module_name, path, kind, rows in TARGETS:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            if kind == "function":
                original = getattr(module, path)
                traced = self.wrap(name, original, rows)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, traced)
                continue
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if kind == "method":
                self._patch(cls, attr, self.wrap(name, raw, rows))
            elif kind == "classmethod":
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__, rows)))
            else:  # property
                self._patch(cls, attr, property(self.wrap(name, raw.fget, rows)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """name -> {"calls", "self_s", "total_s"} over every recorded span, plus
        "rows" for the functions with a rows hook."""
        selfs = self_times(self.parents, self.starts, self.ends)
        out: dict[str, dict] = {}
        for i, name_id in enumerate(self.name_ids):
            entry = out.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += selfs[i] * 1e-9
            entry["total_s"] += (self.ends[i] - self.starts[i]) * 1e-9
        for name, n in self.rows.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})["rows"] = n
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        pid, cid = self._ids[parent_name], self._ids[child_name]
        return sum(1 for i, n in enumerate(self.name_ids)
                   if n == cid and self.parents[i] >= 0 and self.name_ids[self.parents[i]] == pid)

    def write(self, path) -> None:
        """Write every span as compact JSON: names, then [name, parent, start_ns, end_ns] rows."""
        with open(path, "w") as f:
            f.write('{"names": ' + json.dumps(self.names) + ', "spans": [')
            for i in range(len(self.starts)):
                sep = "," if i else ""
                f.write(f"{sep}[{self.name_ids[i]},{self.parents[i]},{self.starts[i]},{self.ends[i]}]")
            f.write("]}\n")


def self_times(parents, starts, ends) -> list:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are given as parallel sequences; parents[i] is the index of span
    i's parent, or -1.  Children may overlap each other; the union of their
    intervals, clipped to the parent, is what gets subtracted.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered, reach = 0, lo
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out

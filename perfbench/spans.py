"""In-memory span recorder for the benchmark's traced runs.

A traced run replaces public functions of the plaplab modules with thin
wrappers that open a span around the original call. Each span records its
name, start, end, parent span and run id (the pass and operation that
caused it). Spans stay in memory until the run ends and are then written
out as JSON lines.

Functions are wrapped at every name their callers resolve them through:
`probe` binds `sup_oscillation`, `corrected_cylinder` and
`rescale_outside` by name at import, `solver` binds `anisotropic_norm`,
and so on, so patching only the defining module would miss those calls.
Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (module, attribute or Class.method, span name, note kind)
TARGETS = (
    ("plaplab.solver", "solve", "solver.solve", "solve"),
    ("plaplab.probe", "solve", "solver.solve", "solve"),
    ("plaplab.solver", "make_source", "solver.make_source", None),
    ("plaplab.solver", "reference_solutions", "solver.reference_solutions", None),
    ("plaplab.grids", "sup_oscillation", "grids.sup_oscillation", None),
    ("plaplab.probe", "sup_oscillation", "grids.sup_oscillation", None),
    ("plaplab.grids", "Region.space_mask", "grids.space_mask", None),
    ("plaplab.grids", "anisotropic_norm", "grids.anisotropic_norm", None),
    ("plaplab.solver", "anisotropic_norm", "grids.anisotropic_norm", None),
    ("plaplab.cylinders", "anisotropic_norm", "grids.anisotropic_norm", None),
    ("plaplab.grids", "GridFunction.gradient_at", "grids.gradient_at", None),
    ("plaplab.grids", "GridFunction.value_at", "grids.value_at", None),
    ("plaplab.grids", "write_binary", "grids.write_binary", "file_bytes"),
    ("plaplab.grids", "read_binary", "grids.read_binary", None),
    ("plaplab.cylinders", "corrected_cylinder", "cylinders.corrected_cylinder", None),
    ("plaplab.probe", "corrected_cylinder", "cylinders.corrected_cylinder", None),
    ("plaplab.cylinders", "rescale_outside", "cylinders.rescale_outside", None),
    ("plaplab.probe", "rescale_outside", "cylinders.rescale_outside", None),
    ("plaplab.cylinders", "critical_zone", "cylinders.critical_zone", None),
    ("plaplab.cli", "critical_zone", "cylinders.critical_zone", None),
    ("plaplab.probe", "oscillation_profile", "probe.oscillation_profile", None),
    ("plaplab.probe", "fit_exponent", "probe.fit_exponent", "fit"),
    ("plaplab.probe", "check_dyadic_bound", "probe.check_dyadic_bound", None),
    ("plaplab.probe", "check_pointwise_c1alpha", "probe.check_pointwise_c1alpha", "pointwise"),
    ("plaplab.exponents", "sharp_exponents", "exponents.sharp_exponents", None),
    ("plaplab.probe", "sharp_exponents", "exponents.sharp_exponents", None),
    ("plaplab.cylinders", "sharp_exponents", "exponents.sharp_exponents", None),
    ("plaplab.exponents", "admissible_region", "exponents.admissible_region", None),
)


def _note(kind, args, kwargs, result) -> dict:
    if kind == "solve":
        grid, config = args[0], args[1]
        steps = grid.num_times - 1
        return {"n": grid.n, "p": config.p, "steps": steps,
                "node_steps": grid.nodes_per_axis ** grid.n * steps}
    if kind == "file_bytes":
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    if kind == "fit":
        return {"usable": result is not None}
    if kind == "pointwise":
        return {"critical": bool(result.critical)}
    return {}


class SpanRecorder:
    """Collects spans in memory; `install` wraps the TARGETS, `uninstall`
    restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id, attrs]
        self.run_id = ""
        self._stack = []
        self._patches = []

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.run_id, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, kind):
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = recorder.open(name)
            try:
                result = original(*args, **kwargs)
                if kind is not None:
                    rec[5] = _note(kind, args, kwargs, result)
                return result
            finally:
                recorder.close(rec)

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, kind))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, run_id, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id, **attrs}) + "\n")


def layer_totals(spans: list, run_prefix: str) -> dict:
    """Calls, total time and self time per span name, over the spans whose
    run id starts with `run_prefix`.

    A span's self time is its duration minus the time its direct children
    cover. Returns {name: {"calls", "total_s", "self_s", "notes"}}, where
    notes lists the attributes recorded on each call.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, run_id, _attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _parent, run_id, attrs) in enumerate(spans):
        if not run_id.startswith(run_prefix):
            continue
        agg = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - child_time[i]
        if attrs:
            agg["notes"].append(attrs)
    return totals

"""Spans around calls into roitomo's modules, recorded from the benchmark side.

The traced run rebinds public functions at the module attribute their callers
look up, records one span per call (name, start, end, parent, run id) in
memory, and restores every attribute when it ends.  Untraced runs never touch
the modules.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order (single thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, perf_counter(), parent=parent, run=self.run_id)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()

    def wrap(self, fn, name, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as sp:
                out = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(sp, out, args)
                return out

        return traced

    @contextmanager
    def installed(self, targets):
        """Rebind every target to a traced wrapper; restore all on exit.

        A target is ``(owner, attr, span name, annotate, copies)``; ``copies``
        are other modules that imported the same function by name, rebound
        only where they still hold that very function.
        """
        saved = []
        try:
            for owner, attr, name, annotate, copies in targets:
                original = getattr(owner, attr)
                wrapper = self.wrap(original, name, annotate)
                for holder in (owner, *copies):
                    if getattr(holder, attr, None) is original:
                        saved.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def children(self) -> dict:
        kids: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                kids.setdefault(sp.parent, []).append(sp)
        return kids

    def self_time(self, sp: Span, kids: dict) -> float:
        return sp.duration - sum(c.duration for c in kids.get(sp.id, ()))

    def dump(self) -> list:
        return [asdict(sp) for sp in self.spans]


# ---------------------------------------------------------------------------
# what gets wrapped


def _csr_pair_bytes(matrix) -> int:
    """Computed bytes of a CSR matrix plus its CSR transpose (same dtypes)."""
    per_entry = matrix.data.itemsize + matrix.indices.itemsize
    rows, cols = matrix.shape
    return 2 * matrix.nnz * per_entry + (rows + cols + 2) * matrix.indptr.itemsize


def _note_matrix(sp, out, args):
    sp.attrs["nnz"] = int(out.nnz)
    sp.attrs["bytes"] = _csr_pair_bytes(out)


def _note_solve(sp, out, args):
    report = out[1]
    sp.attrs["iterations"] = int(report.iterations)
    sp.attrs["converged"] = bool(report.converged)


def _note_file(sp, out, args):
    sp.attrs["bytes"] = os.path.getsize(args[0])


def _cli_name(argv, *rest, **kw):
    return f"cli.{argv[0]}"


def targets():
    """Every public function the traced run wraps, by the module callers use."""
    from roitomo import (
        cli, diffops, fileio, fraclap, lines, phantoms, project, solver,
        xray_scalar, xray_vector,
    )

    def t(owner, attr, name, annotate=None, copies=()):
        return owner, attr, name, annotate, copies

    return [
        t(lines, "make_lineset", "lines.make_lineset"),
        t(lines, "filter_roi", "lines.filter_roi", copies=(solver,)),
        t(phantoms, "sample_phantom", "phantoms.sample_phantom"),
        t(project, "assemble_matrix", "project.assemble_matrix", _note_matrix),
        t(project, "forward_many", "project.forward_many"),
        t(project, "xray_backproject_values", "project.xray_backproject_values"),
        # a cached forward_many/back-projection goes through these methods,
        # so a call without such a child took the streamed path
        t(project.Projector, "forward", "project.Projector.forward"),
        t(project.Projector, "backproject", "project.Projector.backproject"),
        t(diffops, "apply_fd_normal", "diffops.apply_fd_normal"),
        t(solver, "solve_scalar_partial", "solver.solve", _note_solve),
        t(solver, "solve_vector_partial", "solver.solve", _note_solve),
        t(solver, "null_space_probe", "solver.null_space_probe"),
        t(xray_scalar, "xray_forward", "xray_scalar.xray_forward"),
        t(xray_scalar, "xray_backproject", "xray_scalar.xray_backproject"),
        t(xray_scalar, "normal_scalar_conv", "xray_scalar.normal_scalar_conv"),
        t(xray_vector, "xray_vector_forward", "xray_vector.xray_vector_forward"),
        t(xray_vector, "xray_vector_backproject", "xray_vector.xray_vector_backproject"),
        t(xray_vector, "solenoidal_decompose", "xray_vector.solenoidal_decompose",
          copies=(solver,)),
        t(xray_vector, "reconstruct_full_solenoidal", "xray_vector.reconstruct_full_solenoidal"),
        t(fraclap, "ramp_filter_offsets", "fraclap.ramp_filter_offsets", copies=(xray_vector,)),
        t(fraclap, "backproject_pointwise", "fraclap.backproject_pointwise",
          copies=(xray_vector,)),
        t(fraclap, "calibrate_constants", "fraclap.calibrate_constants"),
        t(fraclap, "reconstruct_full_scalar", "fraclap.reconstruct_full_scalar"),
        t(fileio, "write_sinogram", "fileio.write_sinogram", _note_file),
        t(fileio, "write_lineset", "fileio.write_lineset", _note_file),
        t(fileio, "read_sinogram", "fileio.read_sinogram", _note_file),
        t(cli, "main", _cli_name),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "lines.make_lineset_ms": "ms",
    "lines.filter_roi_ms": "ms",
    "lines.kept_lines": "count",
    "phantoms.sample_ms": "ms",
    "project.assemblies": "count",
    "project.assemble_s": "s",
    "project.nnz": "count",
    "project.matrix_mb": "MB",
    "project.forward_ms": "ms",
    "project.backproject_ms": "ms",
    "project.stream_forward_s": "s",
    "project.stream_backproject_s": "s",
    "diffops.fd_normal_ms": "ms",
    "diffops.fd_normal_calls": "count",
    "solver.iterations": "count",
    "solver.converged": "count",
    "solver.self_s": "s",
    "solver.iter_ms": "ms",
    "solver.probe_s": "s",
    "xray_vector.forward_ms": "ms",
    "xray_vector.decompose_ms": "ms",
    "fraclap.ramp_ms": "ms",
    "fraclap.pointwise_bp_ms": "ms",
    "fraclap.calibrate_s": "s",
    "fileio.write_ms": "ms",
    "fileio.read_ms": "ms",
    "fileio.bytes": "bytes",
    "cli.forward_s": "s",
    "cli.reconstruct_s": "s",
    "xray_scalar.normal_conv_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def per_layer(tracer: Tracer, kept_lines: int, direct_ms: dict, overhead_s: float) -> dict:
    """Per-layer values from the spans of one traced set-up plus one cycle.

    ``direct_ms`` holds the untraced cached-apply times (forward, backproject),
    measured on the workload's own line set.
    """
    kids = tracer.children()
    by_name: dict[str, list[Span]] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)

    def spans(*names):
        return [sp for n in names for sp in by_name.get(n, ())]

    def total(*names):
        return sum((sp.duration for sp in spans(*names)), 0.0)

    def mean(*names):
        found = spans(*names)
        return total(*names) / len(found) if found else 0.0

    def streamed(name, via):
        return sum((
            sp.duration for sp in spans(name)
            if not any(c.name == via for c in kids.get(sp.id, ()))
        ), 0.0)

    assemblies = spans("project.assemble_matrix")
    largest = max(assemblies, key=lambda sp: sp.attrs["nnz"], default=None)
    solves = spans("solver.solve")
    iterations = sum(sp.attrs["iterations"] for sp in solves)
    solver_self = sum(tracer.self_time(sp, kids) for sp in solves)
    return {
        "lines.make_lineset_ms": 1e3 * total("lines.make_lineset"),
        "lines.filter_roi_ms": 1e3 * total("lines.filter_roi"),
        "lines.kept_lines": kept_lines,
        "phantoms.sample_ms": 1e3 * total("phantoms.sample_phantom"),
        "project.assemblies": len(assemblies),
        "project.assemble_s": mean("project.assemble_matrix"),
        "project.nnz": largest.attrs["nnz"] if largest else 0,
        "project.matrix_mb": largest.attrs["bytes"] / 2**20 if largest else 0.0,
        "project.forward_ms": direct_ms.get("forward", 0.0),
        "project.backproject_ms": direct_ms.get("backproject", 0.0),
        "project.stream_forward_s": streamed("project.forward_many", "project.Projector.forward"),
        "project.stream_backproject_s": streamed(
            "project.xray_backproject_values", "project.Projector.backproject"
        ),
        "diffops.fd_normal_ms": 1e3 * mean("diffops.apply_fd_normal"),
        "diffops.fd_normal_calls": len(spans("diffops.apply_fd_normal")),
        "solver.iterations": iterations,
        "solver.converged": sum(sp.attrs["converged"] for sp in solves),
        "solver.self_s": solver_self,
        "solver.iter_ms": 1e3 * solver_self / iterations if iterations else 0.0,
        "solver.probe_s": total("solver.null_space_probe"),
        "xray_vector.forward_ms": 1e3 * mean("xray_vector.xray_vector_forward"),
        "xray_vector.decompose_ms": 1e3 * mean("xray_vector.solenoidal_decompose"),
        "fraclap.ramp_ms": 1e3 * mean("fraclap.ramp_filter_offsets"),
        "fraclap.pointwise_bp_ms": 1e3 * mean("fraclap.backproject_pointwise"),
        "fraclap.calibrate_s": mean("fraclap.calibrate_constants"),
        "fileio.write_ms": 1e3 * total("fileio.write_sinogram", "fileio.write_lineset"),
        "fileio.read_ms": 1e3 * total("fileio.read_sinogram"),
        "fileio.bytes": sum(
            sp.attrs["bytes"]
            for sp in spans("fileio.write_sinogram", "fileio.write_lineset", "fileio.read_sinogram")
        ),
        "cli.forward_s": total("cli.forward"),
        "cli.reconstruct_s": total("cli.reconstruct"),
        "xray_scalar.normal_conv_ms": 1e3 * total("xray_scalar.normal_scalar_conv"),
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": overhead_s,
    }


def solve_accounting(tracer: Tracer) -> dict | None:
    """Split the solves' wall time into assembly, prior, split and solver self time."""
    kids = tracer.children()
    solves = [sp for sp in tracer.spans if sp.name == "solver.solve"]
    if not solves:
        return None
    parts = {"solve_s": sum(sp.duration for sp in solves), "self_s": 0.0}
    for sp in solves:
        parts["self_s"] += tracer.self_time(sp, kids)
        for child in kids.get(sp.id, ()):
            key = child.name + "_s"
            parts[key] = parts.get(key, 0.0) + child.duration
    return parts

"""In-memory spans around the calls chemoflux's modules make into each other.

A traced run replaces each name in TRACED, in every chemoflux module that
binds it (the importing modules and the defining one), with a wrapper that
records a span: name, start, end, parent.  The layers are the modules.  The
spans of one operation are kept in memory and reduced to the per-layer
metrics of ``layer_metrics`` when the operation ends.  Nothing inside the
program changes; the wrappers live here and are removed after each traced
operation.
"""
from __future__ import annotations

import functools
import os
import sys
import time
import weakref

# defining module -> names whose calls open a span
TRACED = {
    "tridiag": ("TridiagonalSystem", "solve_tridiagonal"),
    "model": ("State", "make_initial"),
    "stepping": ("integrate", "coupled_imex_step", "step_viscous", "step_limit"),
    "diagnostics": (
        "audit_record",
        "entropy_residual",
        "entropy_monotonicity_check",
        "positivity_floor_check",
    ),
    "convergence": ("run_ladder",),
    "ksbridge": ("hopf_cole", "inverse_hopf_cole", "residual_vs_conservation_form", "rescale_to_normalized"),
    "cli": (
        "main",
        "parse_config",
        "read_ks_trajectory_csv",
        "emit_effective_config",
        "emit_state_csv",
        "emit_diagnostics_csv",
        "emit_report_json",
    ),
}
# ksbridge makes its gradient States through State.__new__ on purpose (no
# validation), so its binding must stay the class itself
KEEP = {("ksbridge", "State")}

CHECKS = ("entropy_residual", "entropy_monotonicity_check", "positivity_floor_check")
WRITERS = ("emit_effective_config", "emit_state_csv", "emit_diagnostics_csv", "emit_report_json")

# name -> unit of every per-layer metric, in the order they are reported
UNITS = {
    "tridiag.solve_calls": "count/op",
    "tridiag.solve_us": "us/call",
    "tridiag.build_us": "us/call",
    "tridiag.rebuilds_per_matrix": "ratio",
    "stepping.steps": "count/op",
    "stepping.explicit_us": "us/step",
    "stepping.driver_us": "us/step",
    "stepping.ns_per_node_step": "ns",
    "model.state_calls": "count/op",
    "model.state_us": "us/call",
    "diagnostics.audit_calls": "count/op",
    "diagnostics.audit_us": "us/call",
    "diagnostics.checks_ms": "ms/op",
    "convergence.ladder_self_ms": "ms/op",
    "convergence.record_mb": "MB",
    "ksbridge.hopf_cole_us": "us/call",
    "ksbridge.inverse_us": "us/call",
    "ksbridge.residual_ms": "ms/call",
    "cli.parse_ms": "ms/op",
    "cli.read_ms": "ms/op",
    "cli.read_mb": "MB/op",
    "cli.write_ms": "ms/op",
    "cli.write_mb": "MB/op",
    "trace.overhead_pct": "%",
}


def _matrix_key(args, kwargs, system):
    # the systems chemoflux builds are constant-coefficient with closure rows,
    # so n, the first two diagonal entries and the two boundary off-diagonals
    # identify (n, lambda, closure)
    n = system.diag.shape[0]
    if n < 2:
        return (n,)
    return (n, float(system.diag[0]), float(system.diag[1]), float(system.upper[0]), float(system.lower[-1]))


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _read_bytes(args, kwargs, out):
    # read_ks_trajectory_csv(path, params)
    return _size(args[0] if args else kwargs.get("path"))


def _written_bytes(args, kwargs, out):
    # emit_*(..., path): the path comes last
    return _size(kwargs.get("path", args[-1] if args else None))


class Tracer:
    """Spans of one operation at a time: (name, start_ns, end_ns, parent, info)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._recorders = []
        self._info = {
            "TridiagonalSystem": _matrix_key,
            "integrate": self._recorder_info,
            "read_ks_trajectory_csv": _read_bytes,
            "emit_effective_config": lambda args, kwargs, text: len(text),
            "emit_state_csv": _written_bytes,
            "emit_diagnostics_csv": _written_bytes,
            "emit_report_json": _written_bytes,
        }

    def _recorder_info(self, args, kwargs, rec):
        """(nodes, bytes of recorded States still alive): the recorders
        integrate returned that the program still references."""
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        self._recorders.append(weakref.ref(rec))
        live = 0
        for ref in self._recorders:
            alive = ref()
            if alive is not None:
                live += sum(s.u.nbytes + s.v.nbytes for s, _ in alive.records)
        return grid.n_nodes, live

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, self._info.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn, updated=())  # fn may be a class: keep its namespace off the wrapper
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, None)
            if info is not None:
                spans[idx] = spans[idx][:4] + (info(args, kwargs, out),)
            return out

        return traced

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "chemoflux" or name.startswith("chemoflux."))
        }
        for layer, names in TRACED.items():
            home = modules.get(f"chemoflux.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for mod_name, mod in modules.items():
                    short = mod_name.rpartition(".")[2]
                    if getattr(mod, name, None) is original and (short, name) not in KEEP:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def take(self):
        """Hand over the finished operation's spans and start afresh."""
        spans = list(self.spans)
        self.spans.clear()
        self._recorders.clear()
        return spans


def layer_metrics(spans):
    """Per-layer metrics of one operation's spans (see UNITS for units)."""
    count, self_ns, total_ns, info = {}, {}, {}, {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, extra) in enumerate(spans):
        count[name] = count.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])
        total_ns[name] = total_ns.get(name, 0) + (end - start)
        if extra is not None:
            info.setdefault(name, []).append((i, extra))

    # steps taken inside each integrate call, for the per node-step figure
    steps_in = {}
    for name, _, _, parent, _ in spans:
        if name != "coupled_imex_step":
            continue
        while parent >= 0 and spans[parent][0] != "integrate":
            parent = spans[parent][3]
        if parent >= 0:
            steps_in[parent] = steps_in.get(parent, 0) + 1
    integrations = info.get("integrate", [])
    node_steps = sum(steps_in.get(i, 0) * nodes for i, (nodes, _) in integrations)
    driver_steps = sum(steps_in.values())

    def n(name):
        return count.get(name, 0)

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def self_sum(names):
        return sum(self_ns.get(x, 0) for x in names)

    def info_sum(names):
        return sum(v for x in names for _, v in info.get(x, []))

    matrices = {key for _, key in info.get("TridiagonalSystem", [])}
    steps = n("coupled_imex_step")
    return {
        "tridiag.solve_calls": n("solve_tridiagonal"),
        "tridiag.solve_us": per(self_ns.get("solve_tridiagonal", 0), n("solve_tridiagonal"), 1e-3),
        "tridiag.build_us": per(self_ns.get("TridiagonalSystem", 0), n("TridiagonalSystem"), 1e-3),
        "tridiag.rebuilds_per_matrix": per(n("TridiagonalSystem"), len(matrices)),
        "stepping.steps": steps,
        "stepping.explicit_us": per(self_ns.get("coupled_imex_step", 0), steps, 1e-3),
        "stepping.driver_us": per(self_ns.get("integrate", 0), driver_steps, 1e-3),
        "stepping.ns_per_node_step": per(total_ns.get("integrate", 0), node_steps),
        "model.state_calls": n("State"),
        "model.state_us": per(self_ns.get("State", 0), n("State"), 1e-3),
        "diagnostics.audit_calls": n("audit_record"),
        "diagnostics.audit_us": per(self_ns.get("audit_record", 0), n("audit_record"), 1e-3),
        "diagnostics.checks_ms": self_sum(CHECKS) * 1e-6,
        "convergence.ladder_self_ms": self_ns.get("run_ladder", 0) * 1e-6,
        "convergence.record_mb": max((live for _, (_, live) in integrations), default=0) / 1e6,
        "ksbridge.hopf_cole_us": per(self_ns.get("hopf_cole", 0), n("hopf_cole"), 1e-3),
        "ksbridge.inverse_us": per(self_ns.get("inverse_hopf_cole", 0), n("inverse_hopf_cole"), 1e-3),
        "ksbridge.residual_ms": per(
            self_ns.get("residual_vs_conservation_form", 0), n("residual_vs_conservation_form"), 1e-6
        ),
        "cli.parse_ms": self_ns.get("parse_config", 0) * 1e-6,
        "cli.read_ms": self_ns.get("read_ks_trajectory_csv", 0) * 1e-6,
        "cli.read_mb": info_sum(("read_ks_trajectory_csv",)) / 1e6,
        "cli.write_ms": self_sum(WRITERS) * 1e-6,
        "cli.write_mb": info_sum(WRITERS) / 1e6,
    }

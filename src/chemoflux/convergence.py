"""Viscosity ladders and grid-refinement studies.

A ladder steps the same initial data with epsilon = 0 (the baseline) and
with each positive epsilon, all on one grid with one shared fixed dt.  The
members advance together as the rows of one (k + 1, n) stack, so each step
makes one kernel call and one FFT solve per field for all of them, and the
sup-in-time L-infinity distances

    err_u(eps) = sup_t max_x |u_eps - u_0|,   err_v(eps) likewise,

are running maxima over the records, so no trajectory is stored.  The
slope of log(err_u + err_v) against log(eps) is then fitted.  Sharing the
grid and dt makes the discretization error largely cancel in the
differences, so the fitted slope isolates the viscosity effect; the
self_convergence guard quantifies the residual discretization error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .diagnostics import DiagnosticsRecord
from .model import FieldError, Grid1D, Kind, ProblemSetup, State, make_initial
from .stepping import LadderError, ProgressError, SolverConfig, _check_stride, _nominal_dt, _run

__all__ = [
    "RungError",
    "ConvergenceReport",
    "SelfConvergenceRow",
    "check_ladder",
    "run_ladder",
    "fit_slope",
    "self_convergence",
    "energy_functional",
]


@dataclass(frozen=True)
class RungError:
    eps: float
    err_u: float
    err_v: float
    err_sum: float
    energy: float


@dataclass(frozen=True)
class ConvergenceReport:
    kind: Kind
    eps_ladder: tuple
    errors: tuple  # of RungError, same order as eps_ladder
    fitted_slope: float
    slope_ci: tuple  # least-squares residual band, not a statistical CI
    grid_meta: dict
    baseline_meta: dict
    errors_monotone: bool


@dataclass(frozen=True)
class SelfConvergenceRow:
    n_coarse: int
    n_fine: int
    dx_coarse: float
    dt_coarse: float
    diff_u: float
    diff_v: float
    diff: float


def fit_slope(points: Sequence) -> tuple:
    """Ordinary least squares on (log eps, log err).

    Returns (slope, intercept, max_abs_residual); deterministic.  All
    abscissae and ordinates must be positive.
    """
    pts = [(float(e), float(r)) for e, r in points]
    if len(pts) < 2:
        raise ValueError("fit_slope needs at least 2 points")
    for e, r in pts:
        if not (e > 0.0 and r > 0.0):
            raise ValueError(f"fit_slope needs positive values, got ({e}, {r})")
    lx = np.log([e for e, _ in pts])
    ly = np.log([r for _, r in pts])
    mx = lx.mean()
    my = ly.mean()
    dx = lx - mx
    den = float(np.dot(dx, dx))
    if den == 0.0:
        raise ValueError("fit_slope abscissae are all identical")
    slope = float(np.dot(dx, ly - my)) / den
    intercept = my - slope * mx
    max_abs_residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return slope, float(intercept), max_abs_residual


def energy_functional(diags: Sequence[DiagnosticsRecord]) -> float:
    """sup-in-t of the squared H2 norms plus the time-integrated dissipation —
    the quantity whose boundedness should be uniform across the ladder."""
    return _energy(
        np.array([d.t for d in diags]),
        np.array([d.h2_u + d.h2_v for d in diags]),
        np.array([d.dissipation_u + d.dissipation_v for d in diags]),
    )


def _energy(times: np.ndarray, h2: np.ndarray, diss: np.ndarray) -> float:
    """energy_functional of one run from its contiguous 1-d series over the
    records: t, h2_u + h2_v and dissipation_u + dissipation_v."""
    integrated = float(np.sum(0.5 * (diss[1:] + diss[:-1]) * (times[1:] - times[:-1])))
    return float(np.max(h2)) + integrated


def check_ladder(eps_ladder: Sequence[float]) -> tuple:
    """The ladder as a tuple of floats: at least 3 values (a slope fit needs
    3), positive and strictly decreasing."""
    eps = tuple(float(e) for e in eps_ladder)
    if len(eps) < 3:
        raise FieldError("eps_ladder", f"a slope fit needs at least 3 ladder values, got {eps}")
    if any(not e > 0.0 for e in eps) or any(not a > b for a, b in zip(eps, eps[1:])):
        raise FieldError(
            "eps_ladder", f"ladder epsilons must be strictly decreasing positive values, got {eps}"
        )
    return eps


def _check_levels(levels):
    if int(levels) != levels or levels < 1:
        raise FieldError("levels", f"levels must be a positive integer, got {levels}")


def _check_rungs_differ(setup: ProblemSetup, initial: State):
    """A ladder fits a rate to its rungs' distances from the baseline, so
    they must be able to differ: t_final > 0, and initial data that are not
    exactly the rest state (0, v_inf), which every member keeps."""
    if setup.t_final == 0.0:
        raise FieldError("t_final", "a ladder needs t_final > 0 to compare its rungs")
    if not initial.u.any() and np.all(initial.v == setup.v_infinity):
        raise FieldError(
            ("amplitude_u", "amplitude_v"),
            f"the initial data are the rest state (0, {setup.v_infinity:g}) "
            "(amplitude_u = amplitude_v = 0?): every rung's error would be exactly 0, "
            "so no rate can be fitted",
        )


def _resolve_shared_dt(initial: State, grid: Grid1D, cfg: SolverConfig, eps_max: float):
    """One fixed dt for every member of a comparison family, from its initial State."""
    if cfg.dt is not None:
        return cfg.dt, f"fixed dt supplied ({cfg.dt:g})"
    dt = _nominal_dt(initial, eps_max, grid, cfg)
    return dt, f"dt = {dt:g} derived once from initial data (cfl = {cfg.cfl:g} at eps = {eps_max:g})"


def run_ladder(
    setup_template: ProblemSetup,
    grid: Grid1D,
    cfg: SolverConfig,
    eps_ladder: Sequence[float],
    stride: int = 10,
) -> ConvergenceReport:
    """Step the epsilon ladder against the shared epsilon = 0 baseline.

    Identical initial data, sampled once, grid, and (fixed) dt for every
    member, all stepped together as the rows of one stack (see the module
    docstring).  setup_template.epsilon is not read: the baseline runs at 0
    and each member at its ladder value.  The member that fails at the
    earliest step, the baseline first on a tie, raises LadderError naming
    its epsilon (0.0 for the baseline); a ProgressError (max_steps run out,
    or a step that cannot move t) is attributed to the baseline.  A ladder
    whose rungs cannot differ from the baseline (t_final = 0, or initial
    data that are exactly the rest state) raises FieldError before any
    step: no rate can be fitted to errors that are all 0.
    """
    eps = check_ladder(eps_ladder)
    _check_stride(stride)
    initial = make_initial(setup_template, grid)
    _check_rungs_differ(setup_template, initial)
    dt, policy = _resolve_shared_dt(initial, grid, cfg, max(eps))
    cfg_run = replace(cfg, dt=dt, cfl=None)
    column = np.array((0.0, *eps))[:, None]
    reps = (column.shape[0], 1)
    stack = State(np.tile(initial.u, reps), np.tile(initial.v, reps), initial.t)
    far_field_ok = True
    err_u = np.zeros(len(eps))
    err_v = np.zeros(len(eps))
    # per record: t, and (k + 1,) rows of h2_u + h2_v and of the dissipation
    times, h2, diss = [], [], []
    try:
        for stack, d in _run(setup_template, grid, cfg_run, stride, stack, column):
            times.append(d.t)
            h2.append(d.h2_u + d.h2_v)
            diss.append(d.dissipation_u + d.dissipation_v)
            err_u = np.maximum(err_u, np.max(np.abs(stack.u[1:] - stack.u[0]), axis=-1))
            err_v = np.maximum(err_v, np.max(np.abs(stack.v[1:] - stack.v[0]), axis=-1))
            far_field_ok = far_field_ok and bool(d.far_field_ok[0])
    except ProgressError as exc:
        raise LadderError(0.0, exc) from exc
    # each member's series made contiguous, so its energy rounds as
    # energy_functional of that member's own run does
    times = np.array(times)
    energies = [
        _energy(times, h, q) for h, q in zip(np.array(h2).T.copy(), np.array(diss).T.copy())
    ]
    rows = [
        RungError(eps=e, err_u=eu, err_v=ev, err_sum=eu + ev, energy=en)
        for e, eu, ev, en in zip(eps, err_u.tolist(), err_v.tolist(), energies[1:])
    ]

    slope, intercept, max_res = fit_slope([(r.eps, r.err_sum) for r in rows])
    span = math.log(max(eps)) - math.log(min(eps))
    band = 2.0 * max_res / span
    monotone = all(b.err_sum <= a.err_sum for a, b in zip(rows, rows[1:]))
    return ConvergenceReport(
        kind=setup_template.kind,
        eps_ladder=eps,
        errors=tuple(rows),
        fitted_slope=slope,
        slope_ci=(slope - band, slope + band),
        grid_meta={
            "n_cells": grid.n_cells,
            "dx": grid.dx,
            "dt": dt,
            "dt_policy": policy,
            "stride": stride,
        },
        baseline_meta={
            "epsilon": 0.0,
            "t_final": setup_template.t_final,
            "n_records": len(times),
            "energy": energies[0],
            "far_field_ok": far_field_ok,
            "description": "limit-system run with identical initial data, grid, and dt",
        },
        errors_monotone=monotone,
    )


def self_convergence(setup: ProblemSetup, grid: Grid1D, cfg: SolverConfig, levels: int):
    """Richardson-style guard: run on grid and its `levels` successive
    factor-2 refinements and compare final states on the shared coarse nodes.

    dt is resolved once on grid and refined by 4 per spatial halving,
    keeping the first-order temporal error proportional to the second-order
    spatial error.  Each level's initial data are sampled once, one level at
    a time.  Returns (slope, table); slope is None when fewer than two
    differences exist or any difference vanishes (e.g. the rest state), in
    which case the order is not applicable.
    """
    _check_levels(levels)
    grids = [Grid1D(grid.x_left, grid.x_right, grid.n_cells * 2**k) for k in range(levels + 1)]
    finals = []
    for k, g in enumerate(grids):
        state = make_initial(setup, g)
        if k == 0:
            dt0, _ = _resolve_shared_dt(state, g, cfg, setup.epsilon)
        cfg_k = replace(cfg, dt=dt0 / 4.0**k, cfl=None)
        # only the final State is compared: a stride past any step count
        # yields just the initial and the final record
        for state, _ in _run(setup, g, cfg_k, 10**9, state):
            pass
        finals.append(state)

    table = []
    for k, (coarse, fine) in enumerate(zip(finals, finals[1:])):
        du = float(np.max(np.abs(coarse.u - fine.u[::2])))
        dv = float(np.max(np.abs(coarse.v - fine.v[::2])))
        table.append(
            SelfConvergenceRow(
                n_coarse=grids[k].n_cells,
                n_fine=grids[k + 1].n_cells,
                dx_coarse=grids[k].dx,
                dt_coarse=dt0 / 4.0**k,
                diff_u=du,
                diff_v=dv,
                diff=max(du, dv),
            )
        )

    slope: Optional[float] = None
    if len(table) >= 2 and all(row.diff > 0.0 for row in table):
        slope, _, _ = fit_slope([(row.dx_coarse, row.diff) for row in table])
    return slope, table

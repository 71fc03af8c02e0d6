"""Discrete norms, entropy audit, conservation and positivity monitors.

Stencils: centered first/second differences at interior nodes; at the two
boundary nodes, first derivatives fall back to the adjacent two-point
difference and second derivatives reuse the first interior three-point
stencil one-sidedly (kept rather than dropped, so integral norms see every
node; reports carry a note to that effect).  Quadrature is trapezoidal
throughout, matching the vertex-centered grids.

Quadrature, stencils and audit_record work along the last axis: a 1-d row
of n nodes, or a stack of such rows (a ladder's (k, n) stack, or several
fields at once), each row coming out bitwise as its own call would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Grid1D, ProblemSetup, State, _entropy_density, entropy_pair

__all__ = [
    "DiagnosticsRecord",
    "EntropyResidualField",
    "NormBundle",
    "FloorReport",
    "trapezoid",
    "norms",
    "audit_record",
    "entropy_residual",
    "positivity_floor_check",
    "entropy_monotonicity_check",
    "H2_BOUNDARY_STENCIL_NOTE",
]

#: recorded in JSON reports so rate comparisons know the boundary treatment
H2_BOUNDARY_STENCIL_NOTE = (
    "H2 norms use one-sided second differences at boundary-adjacent nodes"
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar health indicators of one recorded state; for a (k, n) stack,
    every field but t is a (k,) array, one entry per row.

    h2_u / h2_v are the *squared* discrete H2 norms of u and v - v_inf.
    sup_abs_ux feeds the running max M of the positivity floor alpha*exp(-M t).
    """

    t: float
    entropy_total: float
    dissipation_v: float
    dissipation_u: float
    mass_u: float
    mass_v_excess: float
    min_v: float
    sup_abs_ux: float
    h2_u: float
    h2_v: float


@dataclass(frozen=True)
class NormBundle:
    l2_u: float
    l2_v: float
    linf_u: float
    linf_v: float
    h1_u: float
    h1_v: float
    h2_u: float  # squared
    h2_v: float  # squared


@dataclass(frozen=True)
class EntropyResidualField:
    """Pointwise defect of the entropy balance on three consecutive states.

    residual[i] = (eta_t + q_x - eps*u*u_xx - v_xx*log(v/v_inf)) at interior
    node i+1, with a centered time difference for eta_t and centered space
    stencils evaluated on the middle state.
    """

    residual: np.ndarray
    linf: float
    l2: float


@dataclass(frozen=True)
class FloorReport:
    passed: bool
    worst_margin: float
    worst_time: float
    running_max_ux: float


def trapezoid(values: np.ndarray, dx: float):
    """Trapezoidal quadrature over the full grid along the last axis
    (deterministic summation): a float for one row, an array for a stack,
    each entry bitwise the row's own sum."""
    v = np.asarray(values, dtype=float)
    total = dx * (0.5 * v[..., 0] + v[..., 1:-1].sum(axis=-1) + 0.5 * v[..., -1])
    return float(total) if v.ndim == 1 else total


def _ddx(f: np.ndarray, dx: float) -> np.ndarray:
    g = np.empty_like(f)
    g[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dx)
    g[..., 0] = (f[..., 1] - f[..., 0]) / dx
    g[..., -1] = (f[..., -1] - f[..., -2]) / dx
    return g


def _d2dx(f: np.ndarray, dx: float) -> np.ndarray:
    g = np.empty_like(f)
    dx2 = dx * dx
    g[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / dx2
    g[..., 0] = (f[..., 0] - 2.0 * f[..., 1] + f[..., 2]) / dx2
    g[..., -1] = (f[..., -1] - 2.0 * f[..., -2] + f[..., -3]) / dx2
    return g


def _h2_integrand(f: np.ndarray, fx: np.ndarray, fxx: np.ndarray) -> np.ndarray:
    return f * f + fx * fx + fxx * fxx


def _h2_squared(f: np.ndarray, dx: float):
    return trapezoid(_h2_integrand(f, _ddx(f, dx), _d2dx(f, dx)), dx)


def norms(state: State, grid: Grid1D, v_inf: float) -> NormBundle:
    """Discrete L2/Linf/H1 norms and squared H2 norms; v measured against v_inf."""
    if state.u.shape[0] < 5:
        raise ValueError("norms need at least 5 nodes for second differences")
    dx = grid.dx
    u = state.u
    g = state.v - v_inf
    ux, gx = _ddx(u, dx), _ddx(g, dx)
    return NormBundle(
        l2_u=math.sqrt(trapezoid(u * u, dx)),
        l2_v=math.sqrt(trapezoid(g * g, dx)),
        linf_u=float(np.max(np.abs(u))),
        linf_v=float(np.max(np.abs(g))),
        h1_u=math.sqrt(trapezoid(u * u + ux * ux, dx)),
        h1_v=math.sqrt(trapezoid(g * g + gx * gx, dx)),
        h2_u=_h2_squared(u, dx),
        h2_v=_h2_squared(g, dx),
    )


def audit_record(
    state: State, grid: Grid1D, setup: ProblemSetup, epsilon=None
) -> DiagnosticsRecord:
    """All monitors of one state in one pass.

    With epsilon None the state is one row at setup.epsilon and every field
    is a float.  A (k, 1) epsilon column audits a (k, n) stack, row i at
    epsilon[i]; every field but t is then a (k,) array whose entry i is
    bitwise the 1-d audit of row i.  Each derivative is taken once, and the
    seven integrals are one trapezoid call.

    entropy_total is the trapezoid sum of entropy_pair(...).eta: both take
    eta from model._entropy_density, so the two agree bit-for-bit.
    """
    if np.any(state.v <= 0.0):
        at = np.unravel_index(int(np.argmin(state.v)), state.v.shape)
        raise ValueError(
            f"audit on non-positive v: v[{', '.join(map(str, at))}] = {state.v[at]}"
        )
    dx = grid.dx
    u, v = state.u, state.v
    fields = np.stack((u, v, v - setup.v_infinity))
    ux, vx, gx = _ddx(fields, dx)
    uxx, gxx = _d2dx(fields[::2], dx)
    g = fields[2]
    integrands = np.stack(
        (
            _entropy_density(u, v, setup.v_infinity)[0],
            vx * vx / v,
            ux * ux,
            u,
            g,
            _h2_integrand(u, ux, uxx),
            _h2_integrand(g, gx, gxx),
        )
    )
    totals = trapezoid(integrands, dx)
    min_v, sup_abs_ux = v.min(axis=-1), np.max(np.abs(ux), axis=-1)
    if epsilon is None:
        eps = setup.epsilon
        totals, min_v, sup_abs_ux = totals.tolist(), float(min_v), float(sup_abs_ux)
    else:
        eps = epsilon[:, 0]
    entropy, diss_v, ux2_total, mass_u, mass_v_excess, h2_u, h2_v = totals
    return DiagnosticsRecord(
        t=float(state.t),
        entropy_total=entropy,
        dissipation_v=diss_v,
        dissipation_u=eps * ux2_total,
        mass_u=mass_u,
        mass_v_excess=mass_v_excess,
        min_v=min_v,
        sup_abs_ux=sup_abs_ux,
        h2_u=h2_u,
        h2_v=h2_v,
    )


def entropy_residual(
    prev: State, mid: State, next: State, grid: Grid1D, setup: ProblemSetup
) -> EntropyResidualField:
    """Defect of eta_t + q_x = eps*u*u_xx + v_xx*log(v/v_inf) at interior nodes.

    The three states must be equally spaced in time (centered difference).
    """
    n = mid.u.shape[0]
    if prev.u.shape[0] != n or next.u.shape[0] != n:
        raise ValueError("states live on different grids")
    dt1 = mid.t - prev.t
    dt2 = next.t - mid.t
    if not (dt1 > 0 and dt2 > 0):
        raise ValueError(f"record times must increase, got {prev.t}, {mid.t}, {next.t}")
    if abs(dt2 - dt1) > 1e-12 * max(dt1, dt2, 1.0):
        raise ValueError(
            f"states are not equally spaced in time: gaps {dt1!r} and {dt2!r}"
        )
    dx = grid.dx
    v_inf, eps = setup.v_infinity, setup.epsilon
    eta_prev = entropy_pair(prev.u, prev.v, v_inf, eps).eta
    pair_mid = entropy_pair(mid.u, mid.v, v_inf, eps)
    eta_next = entropy_pair(next.u, next.v, v_inf, eps).eta

    eta_t = (eta_next[1:-1] - eta_prev[1:-1]) / (dt1 + dt2)
    q = pair_mid.q
    q_x = (q[2:] - q[:-2]) / (2.0 * dx)
    u, v = mid.u, mid.v
    u_xx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    v_xx = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
    log_ratio = np.log1p((v[1:-1] - v_inf) / v_inf)
    residual = eta_t + q_x - eps * u[1:-1] * u_xx - v_xx * log_ratio
    return EntropyResidualField(
        residual=residual,
        linf=float(np.max(np.abs(residual))),
        l2=math.sqrt(dx * float(np.dot(residual, residual))),
    )


def positivity_floor_check(
    records: Iterable[DiagnosticsRecord], alpha: float, dx: float = 0.0
) -> FloorReport:
    """Check min_v >= alpha * exp(-M(t) * t) - 10*dx^2 along a trajectory.

    M(t) is the running max of sup_abs_ux over the records seen so far (and
    is therefore stride-dependent).  Pass dx = 0 for the strict floor.
    Failure is reported, never raised; records out of time order raise
    ValueError.
    """
    recs = list(records)
    for a, b in zip(recs, recs[1:]):
        if b.t < a.t:
            raise ValueError(f"records must be ordered in t: t = {b.t!r} follows t = {a.t!r}")
    tol = 10.0 * dx * dx
    running = 0.0
    worst_margin = math.inf
    worst_time = math.nan
    for r in recs:
        running = max(running, r.sup_abs_ux)
        floor = alpha * math.exp(-running * r.t) - tol
        margin = r.min_v - floor
        if margin < worst_margin:
            worst_margin = margin
            worst_time = r.t
    return FloorReport(
        passed=bool(worst_margin >= 0.0),
        worst_margin=float(worst_margin),
        worst_time=float(worst_time),
        running_max_ux=float(running),
    )


def entropy_monotonicity_check(records: Iterable[DiagnosticsRecord], dx: float):
    """Entropy must not increase between consecutive records beyond the
    scheme-consistency slack of 10*dt*dx^2 per step (summed over a record
    gap that is 10*dx^2*(t2 - t1)).  Returns (ok, worst_excess) where
    worst_excess = max over gaps of (S2 - S1 - slack); ok iff it is <= 0."""
    recs = list(records)
    worst = -math.inf
    for a, b in zip(recs, recs[1:]):
        slack = 10.0 * dx * dx * (b.t - a.t)
        worst = max(worst, b.entropy_total - a.entropy_total - slack)
    if worst == -math.inf:
        worst = 0.0
    return worst <= 0.0, float(worst)

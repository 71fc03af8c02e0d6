"""Entropy audit, conservation, positivity and far-field monitors.

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
from typing import Iterable

import numpy as np

from .model import Grid1D, Kind, ProblemSetup, State, _entropy_density, entropy_pair

__all__ = [
    "FAR_FIELD_TOL",
    "DiagnosticsRecord",
    "EntropyResidualField",
    "FloorReport",
    "trapezoid",
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

#: how far u and v - v_inf may stray from 0 in the outer 10% of a
#: truncated line before the far-field monitor trips
FAR_FIELD_TOL = 1e-8


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar health indicators of one recorded state; for a (k, n) stack,
    every field but t is a (k,) array, one entry per row.

    h2_u / h2_v are the *squared* discrete H2 norms of u and v - v_inf.
    sup_abs_ux feeds the running max M of the positivity floor alpha*exp(-M t).
    far_field_ok is the truncated-line monitor: u and v - v_inf are within
    FAR_FIELD_TOL of 0 in the outer 10% of the domain (always True between
    walls).
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
    far_field_ok: bool


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


def _h2_integrand(
    f: np.ndarray, fx: np.ndarray, fxx: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """f*f + fx*fx + fxx*fxx into out, one operation at a time in that order."""
    np.multiply(f, f, out=out)
    out += np.multiply(fx, fx, out=scratch)
    out += np.multiply(fxx, fxx, out=scratch)


def audit_record(
    state: State, grid: Grid1D, setup: ProblemSetup, epsilon=None
) -> DiagnosticsRecord:
    """All monitors of one state in one pass.

    With epsilon None the state is one row at setup.epsilon and every field
    is a float.  A (k, 1) epsilon column audits a (k, n) stack, row i at
    epsilon[i]; every field but t is then a (k,) array whose entry i is
    bitwise the 1-d audit of row i.  Each derivative is taken once, and the
    seven integrals are one trapezoid call; the far-field monitor reads the
    edges of the u and v - v_inf rows.

    entropy_total is the trapezoid sum of entropy_pair(...).eta: both take
    eta from model._entropy_density, so the two agree bit-for-bit.  Nothing
    is re-scanned: a State's own check already guarantees finite entries
    and v > 0.
    """
    dx = grid.dx
    u, v = state.u, state.v
    # u and g = v - v_inf first, so their second differences read
    # contiguous rows
    fields = np.stack((u, v - setup.v_infinity, v))
    ux, gx, vx = _ddx(fields, dx)
    uxx, gxx = _d2dx(fields[:2], dx)
    g = fields[1]
    integrands = np.empty((7,) + u.shape)
    integrands[0] = _entropy_density(u, v, setup.v_infinity)[0]
    np.divide(np.multiply(vx, vx, out=integrands[1]), v, out=integrands[1])
    np.multiply(ux, ux, out=integrands[2])
    integrands[3] = u
    integrands[4] = g
    scratch = np.empty_like(u)
    _h2_integrand(u, ux, uxx, integrands[5], scratch)
    _h2_integrand(g, gx, gxx, integrands[6], scratch)
    totals = trapezoid(integrands, dx)
    min_v, sup_abs_ux = v.min(axis=-1), np.max(np.abs(ux), axis=-1)
    if setup.kind is Kind.IBVP:
        far_field_ok = np.full(min_v.shape, True)
    else:
        edge = max(1, u.shape[-1] // 10)
        rims = np.concatenate((fields[:2, ..., :edge], fields[:2, ..., -edge:]), axis=-1)
        far_field_ok = np.max(np.abs(rims), axis=(0, -1)) <= FAR_FIELD_TOL
    if epsilon is None:
        eps = setup.epsilon
        totals, min_v, sup_abs_ux = totals.tolist(), float(min_v), float(sup_abs_ux)
        far_field_ok = bool(far_field_ok)
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
        far_field_ok=far_field_ok,
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
    # the States are checked, so eta of the outer two is taken unchecked;
    # entropy_pair, for the middle State's flux, computes it the same way
    eta_prev = _entropy_density(prev.u, prev.v, v_inf)[0]
    eta_next = _entropy_density(next.u, next.v, v_inf)[0]
    q = entropy_pair(mid.u, mid.v, v_inf, eps).q

    eta_t = (eta_next[1:-1] - eta_prev[1:-1]) / (dt1 + dt2)
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

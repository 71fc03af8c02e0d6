"""Bridge between chemotaxis variables (c, u) and conservation-law variables.

The gradient substitution v = -(log c)_x turns the chemotaxis system

    c_t = eps * c_xx - alpha_rate * u * c
    u_t = (D * u_x - chi * u * (log c)_x)_x

into a pair of conservation laws for (u, v); after rescaling
t -> alpha_rate * t, x -> sqrt(alpha_rate/chi) * x the coefficients reduce to
D/chi and eps/chi.  This module implements the discrete substitution (exactly
invertible, see below), its inverse, the rescaling factors, and a residual
check that a transformed trajectory actually satisfies the conservation-law
form of the dynamics.

Discretely, hopf_cole works on staggered midpoints,

    m_{i+1/2} = -(log c_{i+1} - log c_i) / dx,

and reports node values as the average of the two adjacent midpoints
(interior) or the second-order one-sided combination (3 m_adjacent -
m_next)/2 at the ends — equivalently the one-sided 3-point derivative
-(-3 f_0 + 4 f_1 - f_2)/(2 dx) applied to f = log c, so every node value is
accurate to O(dx^2).  inverse_hopf_cole recovers the midpoints from the node
values exactly (m_{1/2} = (v_0 + v_1)/2, then m_{i+1/2} = 2 v_i - m_{i-1/2})
and rebuilds c by cumulative products c_{i+1} = c_i * exp(-m_{i+1/2} dx), so
the roundtrip is exact to rounding for arbitrary positive c — not merely to
O(dx^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import FieldError, Grid1D

__all__ = [
    "KSParams",
    "KSState",
    "GradientState",
    "RescaleFactors",
    "ConservationFormResidual",
    "hopf_cole",
    "inverse_hopf_cole",
    "rescale_to_normalized",
    "residual_vs_conservation_form",
]


@dataclass(frozen=True)
class KSParams:
    """Chemotaxis coefficients: cell diffusion D, chemosensitivity chi,
    consumption rate alpha_rate (the linear uptake f(c) = alpha_rate * c),
    and chemical diffusion epsilon."""

    D: float
    chi: float
    alpha_rate: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not self.D > 0.0:
            raise FieldError("D", f"D must be positive, got {self.D}")
        if not self.chi > 0.0:
            raise FieldError("chi", f"chi must be positive, got {self.chi}")
        if not self.alpha_rate > 0.0:
            raise FieldError("alpha_rate", f"alpha_rate must be positive, got {self.alpha_rate}")
        if not self.epsilon >= 0.0:
            raise FieldError("epsilon", f"epsilon must be >= 0, got {self.epsilon}")


@dataclass
class KSState:
    """Chemical concentration c > 0 and cell density u at time t."""

    c: np.ndarray
    u: np.ndarray
    t: float

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.c.ndim != 1 or self.c.shape != self.u.shape:
            raise ValueError("c and u must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.u))):
            raise ValueError("non-finite entries in chemotaxis state")
        if np.any(self.c <= 0.0):
            i = int(np.argmin(self.c))
            raise ValueError(f"c must be strictly positive; c[{i}] = {self.c[i]}")


@dataclass
class GradientState:
    """Conservation-law variables of a chemotaxis state at time t: the density
    u and the gradient v = -(log c)_x.  Unlike model.State, v legitimately
    takes either sign, so nothing is checked here."""

    u: np.ndarray
    v: np.ndarray
    t: float


@dataclass(frozen=True)
class RescaleFactors:
    """Normalized coefficients and the multiplicative factors for x, t, v."""

    D_t: float
    eps_t: float
    space_factor: float
    time_factor: float
    v_factor: float


def hopf_cole(ks: KSState, grid: Grid1D) -> GradientState:
    """Transform (c, u) to conservation-law variables: v is the gradient
    -(log c)_x at the nodes, u carries the density through."""
    c = ks.c
    if c.shape[0] != grid.n_nodes:
        raise ValueError(f"c has {c.shape[0]} nodes, grid has {grid.n_nodes}")
    logc = np.log(c)
    m = -(logc[1:] - logc[:-1]) / grid.dx
    v = np.empty_like(c)
    v[1:-1] = 0.5 * (m[:-1] + m[1:])
    # second-order one-sided closure; see the module docstring
    v[0] = 0.5 * (3.0 * m[0] - m[1])
    v[-1] = 0.5 * (3.0 * m[-1] - m[-2])
    return GradientState(ks.u.copy(), v, float(ks.t))


def inverse_hopf_cole(state: GradientState, grid: Grid1D, c_anchor: float) -> np.ndarray:
    """Rebuild the positive field c from the gradient variable in state.v,
    anchored by c(x_left) = c_anchor.  Exact discrete inverse of hopf_cole."""
    if not c_anchor > 0.0:
        raise ValueError(f"c_anchor must be positive, got {c_anchor}")
    v = np.asarray(state.v, dtype=float)
    if v.shape[0] != grid.n_nodes:
        raise ValueError(f"state has {v.shape[0]} nodes, grid has {grid.n_nodes}")
    # 2 v_0 = 3 m_0 - m_1 and 2 v_1 = m_0 + m_1 sum to 4 m_0, so the first
    # midpoint is recovered exactly; the rest follow from m_i = 2 v_i - m_{i-1},
    # a running sum of alternately signed terms that np.cumsum adds in sequence,
    # rounding each step as the recurrence does (x + (-y) = x - y)
    w = 2.0 * v[:-1]
    w[0] = 0.5 * (v[0] + v[1])
    w[1::2] *= -1.0
    m = np.cumsum(w)
    m[1::2] *= -1.0
    # c_{i+1} = c_i * exp(-m_i dx), multiplied in sequence
    c = np.multiply.accumulate(np.concatenate(([c_anchor], np.exp(-m * grid.dx))))
    if not np.all(np.isfinite(c)):
        raise ValueError("reconstructed c overflowed; gradient data too large")
    return c


def rescale_to_normalized(p: KSParams) -> RescaleFactors:
    """Coefficients and factors of the normalizing change of variables
    t -> alpha_rate*t, x -> sqrt(alpha_rate/chi)*x: the transformed system
    keeps only D/chi and eps/chi.  chi = 1 leaves epsilon unchanged."""
    k = math.sqrt(p.alpha_rate / p.chi)
    return RescaleFactors(
        D_t=p.D / p.chi,
        eps_t=p.epsilon / p.chi,
        space_factor=k,
        time_factor=p.alpha_rate,
        v_factor=k,
    )


@dataclass(frozen=True)
class ConservationFormResidual:
    """Pointwise defects of the transformed dynamics, one row per interior
    time level, one column per node in 2..n-2 (stencils built purely from
    centered-difference data):

      density:   u_t - chi*(u*v)_x - D*u_xx
      gradient:  v_t + (eps*v^2 - alpha_rate*u)_x - eps*v_xx

    l2 norms are RMS-in-time of the per-level spatial l2.
    """

    density_residual: np.ndarray
    gradient_residual: np.ndarray
    l2_density: float
    linf_density: float
    l2_gradient: float
    linf_gradient: float


def residual_vs_conservation_form(
    states: Sequence[GradientState], grid: Grid1D, params: KSParams
) -> ConservationFormResidual:
    """Check a chemotaxis trajectory, transformed by hopf_cole, against the
    conservation-law form of the dynamics with coefficients `params`.

    Needs >= 3 equally spaced states; uses centered differences in time and
    space, interior nodes only.  Each level's density and gradient rows are
    written straight into the two returned (levels - 2, n - 4) arrays, and
    each row's sum of squares and max |.| are taken as it is written, so
    these two are the only full-trajectory arrays the check makes.
    """
    if len(states) < 3:
        raise ValueError(f"need at least 3 states (3 time levels) for centered differences, got {len(states)}")
    times = [s.t for s in states]
    gaps = np.diff(times)
    if not np.all((gaps > 0) & (gaps < np.inf)):
        raise ValueError(f"state times must be finite and increase, got {times}")
    if np.max(np.abs(gaps - gaps[0])) > 1e-12 * max(gaps[0], 1.0):
        raise ValueError(f"states are not equally spaced in time: gaps {gaps}")
    dt = float(gaps[0])
    dx = grid.dx
    eps, alpha, chi, D = params.epsilon, params.alpha_rate, params.chi, params.D

    shape = (len(states) - 2, states[0].u.shape[0] - 4)
    dens = np.empty(shape)
    grad = np.empty(shape)
    sumsq = np.empty((2, shape[0]))
    peak = np.empty((2, shape[0]))
    # rows start at node 2: stencils at nodes 1 and n-1 would touch the
    # one-sided end closure of the transform, whose truncation constant
    # differs from the centered interior and would dominate the norms
    for k, (prev, mid, nxt) in enumerate(zip(states, states[1:], states[2:])):
        u, v = mid.u, mid.v
        u_t = (nxt.u[2:-2] - prev.u[2:-2]) / (2.0 * dt)
        v_t = (nxt.v[2:-2] - prev.v[2:-2]) / (2.0 * dt)
        fu = u * v  # density advective flux (times chi)
        fv = eps * v * v - alpha * u
        fu_x = (fu[3:-1] - fu[1:-3]) / (2.0 * dx)
        fv_x = (fv[3:-1] - fv[1:-3]) / (2.0 * dx)
        u_xx = (u[3:-1] - 2.0 * u[2:-2] + u[1:-3]) / dx**2
        v_xx = (v[3:-1] - 2.0 * v[2:-2] + v[1:-3]) / dx**2
        dens[k] = u_t - chi * fu_x - D * u_xx
        grad[k] = v_t + fv_x - eps * v_xx
        # a row's np.sum(r * r) is bitwise that row of np.sum(rows * rows, axis=1)
        for j, row in enumerate((dens[k], grad[k])):
            sumsq[j, k] = np.sum(row * row)
            peak[j, k] = np.max(np.abs(row))

    def _l2(sq: np.ndarray) -> float:
        per_level = dx * sq
        return math.sqrt(float(np.mean(per_level)))

    return ConservationFormResidual(
        density_residual=dens,
        gradient_residual=grad,
        l2_density=_l2(sumsq[0]),
        linf_density=float(np.max(peak[0])),
        l2_gradient=_l2(sumsq[1]),
        linf_gradient=float(np.max(peak[1])),
    )

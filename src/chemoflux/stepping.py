"""IMEX time stepping for the coupled hyperbolic-parabolic pair.

One step is a Lie splitting:

  1. explicit forward-Euler update with the hyperbolic fluxes in conservative
     central form, (f_{i+1} - f_{i-1}) / (2 dx) — the difference of
     arithmetic-mean midpoint fluxes;
  2. implicit backward-Euler treatment of the diffusion terms, one
     solve of (I - lam*L) x = b per diffusing field.

The stiff v-diffusion (unit coefficient) would force dt = O(dx^2) if explicit;
treating it implicitly leaves only the mild advective CFL constraint
dt = cfl * dx / max(1, sup(|2 eps u| + 1 + |u| + sqrt(v))).

Boundary closures:

  * truncated line: both fields pinned to the far-field constants (0, v_inf)
    at the end nodes, with a monitor in each audit (diagnostics.audit_record)
    checking that the outer 10% of the domain actually stays at the far field;
  * unit interval: u = 0 at both walls (Dirichlet pinning); v gets a
    mirror ghost (v_{-1} = v_1, u_{-1} = -u_1), under which the advective
    divergence at the wall collapses to -(u_1 v_1)/dx and the implicit rows
    become (1 + 2 lam, -2 lam).  With trapezoid weights both substeps then
    telescope exactly, so the discrete excess v-mass is conserved to
    rounding.  The wall value of u_xx is left free (a diagnostic, not an
    enforced condition): prescribing it on top of the Dirichlet data would
    over-determine the discrete system.

Both closures make the implicit matrix a symmetric reflection of a periodic
one on the doubled grid of period N = 2(n - 1): the mirror rows are its even
part, the pinned ends its odd part.  The discrete Fourier transform
diagonalises the periodic matrix with eigenvalues 1 + lam * 2(1 - cos 2 pi k/N),
so each implicit solve is one real FFT pair of the extended right-hand side
(the fast-Poisson idea of Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970).

Shapes: a single run steps (n,) arrays at a float epsilon.  A viscosity
ladder steps its members as the rows of one (k, n) stack, with epsilon a
(k, 1) column whose zero rows (the limit system) come first.  The symbol
depends only on n, so every solve works along the last axis: one transform
pair per field per step serves the whole stack, and the zero rows skip the
u solve.  Each row comes out bitwise as its own (n,) step would, and one
State check over the stack guards every member.

run is the one loop that steps to t_final.  Single runs, viscosity ladders
(convergence.run_ladder) and refinement studies (convergence.self_convergence)
all take their States from it, each State with its audit_record.

The splitting is first order in time.  Refinement studies in this package
therefore tie dt to dx^2 (or share one fixed dt across runs that get
compared), keeping temporal error below the second-order spatial error.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import audit_record
from .model import FieldError, Grid1D, Kind, ProblemSetup, State, _first_fault, make_initial

__all__ = [
    "SolverConfig",
    "PositivityLossError",
    "DivergenceError",
    "ProgressError",
    "LadderError",
    "step",
    "run",
    "coupled_imex_step",
]


class PositivityLossError(RuntimeError):
    """v dropped to <= 0 — dt too large or genuine blow-up.  Aborts rather
    than clips: clipping would silently destroy the entropy balance and the
    floor check."""

    def __init__(self, index: int, t: float):
        self.index = int(index)
        self.t = float(t)
        super().__init__(f"v <= 0 at node {self.index}, t = {self.t:.6g}")


class DivergenceError(RuntimeError):
    def __init__(self, t: float):
        self.t = float(t)
        super().__init__(f"non-finite values appeared at t = {self.t:.6g}")


class ProgressError(RuntimeError):
    """The stepping loop cannot reach t_final: max_steps ran out, or a step
    would leave t unchanged (t + dt == t).  t is where it stopped."""

    def __init__(self, t: float, message: str):
        self.t = float(t)
        super().__init__(message)


class LadderError(RuntimeError):
    """A member of a viscosity ladder failed: eps is its epsilon, cause the
    error its own run would raise."""

    def __init__(self, eps: float, cause: BaseException):
        self.eps = float(eps)
        self.cause = cause
        super().__init__(f"ladder run at epsilon = {eps:g} failed: {cause}")


@dataclass(frozen=True)
class SolverConfig:
    """Time-step policy.  Give dt (fixed) or cfl (derived each step), not both;
    with neither, cfl defaults to 0.4."""

    dt: Optional[float] = None
    cfl: Optional[float] = None
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.dt is not None and self.cfl is not None:
            raise FieldError(("dt", "cfl"), "dt and cfl are mutually exclusive")
        if self.dt is None and self.cfl is None:
            object.__setattr__(self, "cfl", 0.4)
        if self.dt is not None and not self.dt > 0.0:
            raise FieldError("dt", f"dt must be positive, got {self.dt}")
        if self.cfl is not None and not 0.0 < self.cfl <= 1.0:
            raise FieldError("cfl", f"cfl must lie in (0, 1], got {self.cfl}")
        if int(self.max_steps) != self.max_steps or self.max_steps < 1:
            raise FieldError(
                "max_steps", f"max_steps must be a positive integer, got {self.max_steps}"
            )


def _check_stride(stride):
    if int(stride) != stride or stride < 1:
        raise FieldError("stride", f"stride must be a positive integer, got {stride}")


def _nominal_dt(state: State, epsilon, grid: Grid1D, cfg: SolverConfig) -> float:
    """The policy's dt: cfg.dt, or the cfl step of the fastest wave speed.
    epsilon is a float, or for a stack a (k, 1) column, one row per member."""
    if cfg.dt is not None:
        return cfg.dt
    abs_u = np.abs(state.u)
    speed = float(np.max(2.0 * epsilon * abs_u + 1.0 + abs_u + np.sqrt(state.v)))
    return cfg.cfl * grid.dx / max(1.0, speed)


@functools.lru_cache(maxsize=32)
def _laplacian_symbol(n: int) -> np.ndarray:
    """Eigenvalues 2(1 - cos 2 pi k/N), k = 0..N/2, of -L on the periodic grid
    of period N = 2(n - 1).  Depends only on n; lam is applied by the caller,
    so time-step policies that change dt every step still hit the cache."""
    m = 2 * (n - 1)
    symbol = 2.0 * (1.0 - np.cos((2.0 * np.pi / m) * np.arange(m // 2 + 1)))
    symbol.flags.writeable = False
    return symbol


def _diffuse(rhs: np.ndarray, lam, neumann: bool) -> np.ndarray:
    """Backward-Euler diffusion solve (I - lam*L) x = rhs along the last axis,
    with wall closure: Neumann mirror rows (1+2lam, -2lam), or both ends
    pinned to exactly 0.

    rhs is one row (n,) with a float lam, or a (k, n) stack with a float or
    a (k, 1) column of lam, one per row.  The rows are extended to period
    N = 2(n - 1), evenly for the mirror rows and oddly (interior only) for
    the pinned ends, and solved in Fourier space by one transform pair for
    the whole stack; each row comes out bitwise as its own solve would.
    """
    n = rhs.shape[-1]
    ext = np.empty(rhs.shape[:-1] + (2 * (n - 1),))
    ext[..., :n] = rhs
    if neumann:
        ext[..., n:] = rhs[..., -2:0:-1]
    else:
        ext[..., 0] = ext[..., n - 1] = 0.0
        np.negative(rhs[..., -2:0:-1], out=ext[..., n:])
    x = np.fft.irfft(np.fft.rfft(ext) / (1.0 + lam * _laplacian_symbol(n)), ext.shape[-1])
    # copy so recorded states do not keep the doubled buffer alive
    x = x[..., :n].copy()
    if not neumann:
        x[..., 0] = x[..., -1] = 0.0
    return x


def coupled_imex_step(
    u: np.ndarray,
    v: np.ndarray,
    dt: float,
    dx: float,
    epsilon,
    *,
    ibvp: bool,
    v_inf: float,
    alpha: float = 1.0,
    chi: float = 1.0,
    dcoef: float = 1.0,
):
    """Raw one-step kernel (arrays in, arrays out, no validation) for

        u_t + (epsilon*u^2 - alpha*v)_x = epsilon * u_xx
        v_t - chi * (u*v)_x             = dcoef * v_xx

    u and v are (n,) arrays with a float epsilon, or (k, n) stacks with a
    (k, 1) epsilon column, one member per row, whose zero rows come first.
    A stack makes one v solve and at most one u solve, for its viscous rows;
    each row comes out bitwise as the (n,) call on that row would.

    The primary systems use alpha = chi = dcoef = 1; the general coefficients
    exist so pre-normalization parameter sets can be stepped with the exact
    same scheme.
    """
    fu = epsilon * u * u - alpha * v
    fv = -chi * u * v
    r = dt / (2.0 * dx)
    un = np.empty_like(u)
    vn = np.empty_like(v)
    un[..., 1:-1] = u[..., 1:-1] - r * (fu[..., 2:] - fu[..., :-2])
    vn[..., 1:-1] = v[..., 1:-1] - r * (fv[..., 2:] - fv[..., :-2])
    un[..., 0] = un[..., -1] = 0.0
    if ibvp:
        # odd-u/even-v ghost: divergence at the wall reduces to +-fv[1]/dx
        vn[..., 0] = v[..., 0] - (dt / dx) * fv[..., 1]
        vn[..., -1] = v[..., -1] + (dt / dx) * fv[..., -2]
    else:
        vn[..., 0] = vn[..., -1] = v_inf
    # solve in the deviation w = v - v_inf: every matrix row sums to 1, so the
    # shift is exact.  The k = 0 symbol is exactly 1 and a zero rhs transforms
    # to exact zeros, so the rest state stays a bitwise fixed point.
    vn = v_inf + _diffuse(vn - v_inf, dcoef * dt / (dx * dx), neumann=ibvp)
    # epsilon = 0 rows skip the u solve: an FFT round trip with lam = 0 is
    # not bitwise the identity
    if not isinstance(epsilon, np.ndarray):
        if epsilon > 0.0:
            un = _diffuse(un, epsilon * dt / (dx * dx), neumann=False)
    else:
        z = np.count_nonzero(epsilon == 0.0)
        if z < un.shape[0]:
            un[z:] = _diffuse(un[z:], epsilon[z:] * dt / (dx * dx), neumann=False)
    return un, vn


def _advance(
    state: State, setup: ProblemSetup, grid: Grid1D, epsilon, dt: float, t_new: float
) -> State:
    """One IMEX step of length dt, landing at t_new, of a 1-d state at a float
    epsilon or of a (k, n) stack at an epsilon column.  The new State's own
    checks are the step's only scan for non-finite values and v <= 0; a
    failure is reported as divergence or positivity loss at t_new, for a
    stack as the cause of a LadderError at the first failing row's epsilon."""
    # blow-up is detected by value below, so silence overflow warnings here
    with np.errstate(all="ignore"):
        u, v = coupled_imex_step(
            state.u,
            state.v,
            dt,
            grid.dx,
            epsilon,
            ibvp=setup.kind is Kind.IBVP,
            v_inf=setup.v_infinity,
        )
    try:
        return State(u, v, t_new)
    except ValueError:
        row, node = _first_fault(u, v)
        err = DivergenceError(t_new) if node is None else PositivityLossError(node, t_new)
        if u.ndim == 1:
            raise err from None
        raise LadderError(epsilon[row, 0], err) from err


def step(state: State, setup: ProblemSetup, grid: Grid1D, cfg: SolverConfig) -> State:
    """One IMEX step at the policy's dt: of the viscous system for
    setup.epsilon > 0, of the limit system at epsilon = 0 (the u-flux
    degenerates to -v and u undergoes no diffusion)."""
    dt = _nominal_dt(state, setup.epsilon, grid, cfg)
    return _advance(state, setup, grid, setup.epsilon, dt, state.t + dt)


def run(
    setup: ProblemSetup, grid: Grid1D, cfg: SolverConfig, stride: int = 1, epsilon=None
):
    """The one stepping loop: step to t_final (last step clipped to land
    exactly there), yielding the State at t = 0, every `stride` steps and at
    t_final, each with its audit_record, far-field monitor included.

    With epsilon None this is the run of setup.epsilon on 1-d arrays.  An
    epsilon column (k, 1), zero rows first, steps k copies of the initial
    data as one (k, n) stack, row i at epsilon[i], and yields stacked States
    with every row audited.  stride is checked here, before any step.
    Stepper failures propagate with the failing time attached (from a stack,
    as a LadderError naming the failing row's epsilon).  Running out of
    max_steps, or a step whose dt is too small to move t (t + dt == t),
    raises ProgressError before that step is taken.  The generator holds no
    State but the current one, so memory grows with the records only if the
    caller keeps them: list(run(...)) keeps every State, records x 2n x 8
    bytes.
    """
    _check_stride(stride)
    return _run(setup, grid, cfg, stride, epsilon)


def _run(setup: ProblemSetup, grid: Grid1D, cfg: SolverConfig, stride: int, epsilon):
    state = make_initial(setup, grid)
    eps = setup.epsilon if epsilon is None else epsilon
    if epsilon is not None:
        rows = (epsilon.shape[0], 1)
        state = State(np.tile(state.u, rows), np.tile(state.v, rows), state.t)
    yield state, audit_record(state, grid, setup, epsilon)
    t_final = setup.t_final
    steps = 0
    while state.t < t_final:
        if steps >= cfg.max_steps:
            raise ProgressError(
                state.t,
                f"max_steps = {cfg.max_steps} exhausted at t = {state.t:.6g} "
                f"before t_final = {t_final:.6g}",
            )
        dt = _nominal_dt(state, eps, grid, cfg)
        remaining = t_final - state.t
        last = dt >= remaining * (1.0 - 1e-12)
        # the last step lands exactly on t_final instead of accumulating rounding
        dt, t_new = (remaining, t_final) if last else (dt, state.t + dt)
        if not t_new > state.t:
            raise ProgressError(
                state.t, f"a step of dt = {dt:.6g} does not advance t = {state.t!r}"
            )
        state = _advance(state, setup, grid, eps, dt, t_new)
        steps += 1
        if last or steps % stride == 0:
            yield state, audit_record(state, grid, setup, epsilon)

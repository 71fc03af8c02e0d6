"""Problem definitions: grids, states, the entropy pair, initial data.

The two systems this package integrates are the viscous pair

    u_t + (eps*u**2 - v)_x = eps*u_xx
    v_t - (u*v)_x          = v_xx          (eps > 0)

and its eps = 0 limit, in which the u-equation loses both the quadratic
flux term and the diffusion and degenerates to u_t - v_x = 0.  Both live
either on a truncated line [-L, L] with far-field data (u, v) -> (0, v_inf),
or on the unit interval with walls u = 0 and v_x = 0.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BOUNDARY_TOL",
    "FieldError",
    "Kind",
    "Family",
    "Grid1D",
    "State",
    "InitialProfile",
    "ProblemSetup",
    "EntropyValue",
    "entropy_pair",
    "make_initial",
]

#: admissibility tolerance for boundary/far-field values of initial data
BOUNDARY_TOL = 1e-12


class FieldError(ValueError):
    """An invalid input value.  `fields` names the inputs that could be at
    fault, most specific first, so a caller can point at the one it set."""

    def __init__(self, fields, message: str):
        self.fields = (fields,) if isinstance(fields, str) else tuple(fields)
        super().__init__(message)


class Kind(enum.Enum):
    """Which boundary closure the problem uses."""

    CAUCHY_TRUNCATED = "cauchy"
    IBVP = "ibvp"


class Family(enum.Enum):
    GAUSSIAN_BUMP = "gaussian"
    COSINE_PAIR = "cosine"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Grid1D:
    """Uniform vertex-centered grid: n_cells + 1 nodes including both endpoints."""

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self):
        if not self.x_right > self.x_left:
            raise FieldError(
                ("x_left", "x_right"),
                f"x_right must exceed x_left, got [{self.x_left}, {self.x_right}]",
            )
        if int(self.n_cells) != self.n_cells or self.n_cells < 8:
            raise FieldError("n_cells", f"n_cells must be an integer >= 8, got {self.n_cells}")
        # in Python floats, which overflow to inf without a warning
        dx = (float(self.x_right) - float(self.x_left)) / self.n_cells
        if not 0.0 < dx < np.inf:
            raise FieldError(
                ("x_left", "x_right"),
                f"the grid spacing (x_right - x_left) / n_cells must be finite and positive, "
                f"got {dx} on [{self.x_left}, {self.x_right}]",
            )

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def x(self) -> np.ndarray:
        # linspace pins both endpoints exactly
        return np.linspace(self.x_left, self.x_right, self.n_cells + 1)


def _admissible(u: np.ndarray, v: np.ndarray) -> bool:
    """u finite and v finite and strictly positive, for arrays of one shape:
    four reductions, no temporaries, and a nan fails every comparison; a
    zero-size pair, on which min and max would raise, passes."""
    return not u.size or bool(
        -np.inf < u.min() and u.max() < np.inf and v.min() > 0.0 and v.max() < np.inf
    )


def _first_fault(u: np.ndarray, v: np.ndarray):
    """(row, node) of the first row, in order, that holds a non-finite value
    (node None) or a v <= 0 (node: the argmin of v in that row); a 1-d state
    is row 0.  Only for arrays that `_admissible` rejects."""
    u2, v2 = np.atleast_2d(u), np.atleast_2d(v)
    finite = np.isfinite(u2).all(axis=-1) & np.isfinite(v2).all(axis=-1)
    row = int(np.argmax(~finite | (v2 <= 0.0).any(axis=-1)))
    return row, (int(np.argmin(v2[row])) if finite[row] else None)


@dataclass
class State:
    """Solution snapshot at time t.  v must be strictly positive everywhere.

    u and v are 1-d arrays over the grid's nodes, or (k, n) stacks of k such
    rows stepped together (the members of a viscosity ladder); a failed
    check names the first failing row and the node within it."""

    u: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.ndim not in (1, 2) or self.u.shape != self.v.shape:
            raise ValueError("u and v must be 1-d arrays, or (k, n) stacks, of equal shape")
        if not _admissible(self.u, self.v):
            row, node = _first_fault(self.u, self.v)
            stacked = self.v.ndim == 2
            if node is None:
                where = f" in row {row}" if stacked else ""
                raise ValueError(f"state arrays contain non-finite entries{where}")
            at = (row, node) if stacked else (node,)
            raise ValueError(
                f"v must be strictly positive; v[{', '.join(map(str, at))}] = {self.v[at]}"
            )
        if not (np.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"t must be finite and >= 0, got {self.t}")


@dataclass(frozen=True)
class InitialProfile:
    """Initial-data family.  amplitude_* scale the bumps; width is the Gaussian
    length scale (u0 = amplitude_u * exp(-((x-xc)/width)^2)).  Custom profiles
    supply callables evaluated on the grid nodes."""

    family: Family
    amplitude_u: float = 0.3
    amplitude_v: float = 0.3
    width: float = 1.0
    custom_u: Optional[Callable[[np.ndarray], np.ndarray]] = None
    custom_v: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not self.width > 0:
            raise FieldError("width", f"width must be positive, got {self.width}")
        if self.family is Family.CUSTOM and (
            self.custom_u is None or self.custom_v is None
        ):
            raise FieldError(
                ("custom_u", "custom_v"), "custom profiles require custom_u and custom_v callables"
            )


@dataclass(frozen=True)
class ProblemSetup:
    """Everything that defines a run except the grid and the time stepper.

    alpha_floor is the positive lower bound assumed on the initial v; it feeds
    the minimum-principle floor check.  When omitted it defaults to
    v_infinity - |amplitude_v| (custom profiles must set it explicitly).
    """

    kind: Kind
    epsilon: float
    t_final: float
    initial_data: InitialProfile
    v_infinity: float = 1.0
    alpha_floor: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.kind, Kind):
            raise FieldError("kind", f"kind must be a Kind, got {self.kind!r}")
        if not self.epsilon >= 0.0:
            raise FieldError("epsilon", f"epsilon must be >= 0, got {self.epsilon}")
        if not self.v_infinity > 0.0:
            raise FieldError("v_infinity", f"v_infinity must be positive, got {self.v_infinity}")
        if not 0.0 <= self.t_final < np.inf:
            raise FieldError("t_final", f"t_final must be finite and >= 0, got {self.t_final}")
        at_fault = ("alpha_floor",)
        if self.alpha_floor is None:
            if self.initial_data.family is Family.CUSTOM:
                raise FieldError(
                    ("alpha_floor", "family"),
                    "alpha_floor must be given explicitly for custom initial data",
                )
            object.__setattr__(
                self,
                "alpha_floor",
                self.v_infinity - abs(self.initial_data.amplitude_v),
            )
            at_fault = ("alpha_floor", "amplitude_v", "v_infinity")
        if not self.alpha_floor > 0.0:
            raise FieldError(
                at_fault,
                f"alpha_floor must be positive, got {self.alpha_floor} "
                "(is |amplitude_v| >= v_infinity?)",
            )


@dataclass(frozen=True)
class EntropyValue:
    """Entropy density eta >= 0 and its flux q; zero exactly at (0, v_inf)."""

    eta: float | np.ndarray
    q: float | np.ndarray


def entropy_pair(u, v, v_inf: float, epsilon: float) -> EntropyValue:
    """Pointwise entropy density and flux:

        eta = u^2/2 + v*log(v/v_inf) - (v - v_inf)
        q   = -u*v*log(v/v_inf) + (2/3)*eps*u^3

    The v-part is evaluated as v_inf*((1+w)*log1p(w) - w) with
    w = (v - v_inf)/v_inf, which is the same function but stays
    non-negative (and exactly zero at rest) in floating point.

    Accepts scalars or same-shaped arrays, elementwise.
    """
    if not v_inf > 0.0:
        raise ValueError(f"v_inf must be positive, got {v_inf}")
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr <= 0.0):
        raise ValueError(f"v must be strictly positive, got {np.min(v_arr)}")
    eta, log_ratio = _entropy_density(u_arr, v_arr, v_inf)
    q = -u_arr * v_arr * log_ratio + (2.0 / 3.0) * epsilon * u_arr**3
    if np.ndim(u) == 0 and np.ndim(v) == 0:
        return EntropyValue(float(eta), float(q))
    return EntropyValue(eta, q)


def _entropy_density(u: np.ndarray, v: np.ndarray, v_inf: float):
    """entropy_pair's eta on float arrays of any equal shape, unchecked, and
    log(v/v_inf) as log1p(w), which the flux reuses."""
    w = (v - v_inf) / v_inf
    log_ratio = np.log1p(w)
    return 0.5 * u * u + v_inf * ((1.0 + w) * log_ratio - w), log_ratio


def _one_sided_ddx(f: np.ndarray, dx: float, left: bool) -> float:
    """Second-order one-sided first derivative at an endpoint."""
    if left:
        return (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    return (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)


@np.errstate(over="ignore", invalid="ignore")  # overflow is judged by value, as a step's is
def make_initial(setup: ProblemSetup, grid: Grid1D) -> State:
    """Sample the initial profile on the grid, admit it, then check it.

    The State check admits the samples (finite, v > 0; overflow fails it),
    and the compatibility checks run on them: alpha_floor <= min(v0); on a
    truncated line far-field contact at the end nodes (|u0|, |v0 - v_inf|
    <= 1e-12), which are then snapped to the far-field constants; between
    walls the grid [0, 1], u0 = 0 at both (snapped to exactly zero) and a
    vanishing one-sided v0 derivative, up to the stencil's own truncation
    error.  Every rejection is a FieldError."""
    prof = setup.initial_data
    if setup.kind is Kind.IBVP and not (grid.x_left == 0.0 and grid.x_right == 1.0):
        raise FieldError(
            ("x_left", "x_right", "kind"),
            f"unit-interval runs need the grid [0, 1], got [{grid.x_left}, {grid.x_right}]",
        )
    x = grid.x
    # shape: the profile fields that decide the data at the domain ends
    if prof.family is Family.GAUSSIAN_BUMP:
        xc = 0.5 * (grid.x_left + grid.x_right)
        bump = np.exp(-(((x - xc) / prof.width) ** 2))
        u0 = prof.amplitude_u * bump
        v0 = setup.v_infinity + prof.amplitude_v * bump
        shape = ("width", "family")
    elif prof.family is Family.COSINE_PAIR:
        xi = (x - grid.x_left) / (grid.x_right - grid.x_left)
        u0 = prof.amplitude_u * np.sin(np.pi * xi)
        v0 = setup.v_infinity + prof.amplitude_v * np.cos(np.pi * xi)
        shape = ("family",)
    else:
        u0 = np.asarray(prof.custom_u(x), dtype=float)
        v0 = np.asarray(prof.custom_v(x), dtype=float)
        shape = ("custom_u", "custom_v")
        if u0.shape != x.shape or v0.shape != x.shape:
            raise FieldError(shape, "custom profile callables must return arrays shaped like x")
    try:  # astype copies, so the snaps below never write into a caller's array
        state = State(u0.astype(float), v0.astype(float), 0.0)
    except ValueError as exc:
        raise FieldError(("amplitude_v", "v_infinity") + shape, f"initial data: {exc}") from None
    u0, v0 = state.u, state.v
    if setup.alpha_floor - float(v0.min()) > 1e-12:
        raise FieldError(
            ("alpha_floor", "amplitude_v"),
            f"alpha_floor = {setup.alpha_floor} exceeds min(v0) = {v0.min()}",
        )

    if setup.kind is Kind.CAUCHY_TRUNCATED:
        worst = max(
            abs(u0[0]), abs(u0[-1]),
            abs(v0[0] - setup.v_infinity), abs(v0[-1] - setup.v_infinity),
        )
        if worst > BOUNDARY_TOL:
            raise FieldError(
                shape + ("x_left", "x_right"),
                f"initial data do not reach the far field at the domain ends "
                f"(worst deviation {worst:.3e} > {BOUNDARY_TOL:g}); "
                "enlarge the domain or shrink the profile width",
            )
        u0[0] = u0[-1] = 0.0
        v0[0] = v0[-1] = setup.v_infinity
    else:
        if max(abs(u0[0]), abs(u0[-1])) > BOUNDARY_TOL:
            raise FieldError(
                shape + ("amplitude_u",),
                f"wall compatibility violated: u0 ends are ({u0[0]:.3e}, {u0[-1]:.3e})",
            )
        u0[0] = u0[-1] = 0.0
        dx = grid.dx
        scale = max(1.0, float(np.max(np.abs(v0 - setup.v_infinity))))
        dv = (_one_sided_ddx(v0, dx, left=True), _one_sided_ddx(v0, dx, left=False))
        # allow for the stencil's own truncation error -dx^2/3 v''' + O(dx^3),
        # with v''' taken as the one-sided third difference at each wall
        d3 = (
            v0[3] - 3.0 * v0[2] + 3.0 * v0[1] - v0[0],
            v0[-1] - 3.0 * v0[-2] + 3.0 * v0[-3] - v0[-4],
        )
        tol = tuple(10.0 * dx**2 * scale + abs(d) / (3.0 * dx) for d in d3)
        if abs(dv[0]) > tol[0] or abs(dv[1]) > tol[1]:
            raise FieldError(
                shape + ("amplitude_v",),
                f"wall compatibility violated: one-sided v0 derivatives are "
                f"({dv[0]:.3e}, {dv[1]:.3e}), tolerances ({tol[0]:.3e}, {tol[1]:.3e})",
            )
    return state

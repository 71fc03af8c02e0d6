"""Norms, entropy audit, entropy residual, and the positivity floor monitor."""
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemoflux.diagnostics import (
    DiagnosticsRecord,
    entropy_monotonicity_check,
    entropy_residual,
    audit_record,
    norms,
    positivity_floor_check,
    trapezoid,
)
from chemoflux.model import (
    Family,
    Grid1D,
    InitialProfile,
    Kind,
    ProblemSetup,
    State,
    entropy_pair,
)
from chemoflux.stepping import SolverConfig, TrajectoryRecorder, integrate, step


def cosine_setup(epsilon=0.05, t_final=0.5, **kw):
    return ProblemSetup(
        kind=Kind.IBVP,
        epsilon=epsilon,
        t_final=t_final,
        initial_data=InitialProfile(family=Family.COSINE_PAIR),
        **kw,
    )


def synthetic_record(t, entropy=0.0, min_v=1.0, sup_ux=0.0):
    return DiagnosticsRecord(
        t=t,
        entropy_total=entropy,
        dissipation_v=0.0,
        dissipation_u=0.0,
        mass_u=0.0,
        mass_v_excess=0.0,
        min_v=min_v,
        sup_abs_ux=sup_ux,
        h2_u=0.0,
        h2_v=0.0,
    )


# ------------------------------------------------------------------ quadrature


def test_trapezoid_exact_on_linears():
    grid = Grid1D(0.0, 1.0, 64)
    assert trapezoid(np.ones(grid.n_nodes), grid.dx) == 1.0
    assert trapezoid(grid.x, grid.dx) == pytest.approx(0.5, abs=1e-15)
    assert trapezoid(3.0 * grid.x - 1.0, grid.dx) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("n", [9, 65, 257, 2049])
def test_stacked_trapezoid_rows_are_bitwise_the_row_calls(n):
    # 7, 63, 255 and 2047 interior nodes: numpy's pairwise sum takes its
    # short loop, its unrolled block and its recursive split
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((7, 3, n)) * np.exp(rng.uniform(-8.0, 8.0, (7, 3, n)))
    dx = 1.0 / (n - 1)
    totals = trapezoid(stack, dx)
    assert totals.shape == (7, 3)
    for idx in np.ndindex(7, 3):
        row = trapezoid(stack[idx], dx)
        assert type(row) is float
        assert totals[idx] == row
    assert np.array_equal(trapezoid(stack[:, 0], dx), totals[:, 0])


# ----------------------------------------------------------------------- norms


def test_l2_of_full_period_sine_is_sqrt_half():
    grid = Grid1D(0.0, 1.0, 256)
    state = State(np.sin(2.0 * np.pi * grid.x), np.ones(grid.n_nodes), 0.0)
    b = norms(state, grid, 1.0)
    # trapezoid quadrature is spectrally accurate on a full period
    assert b.l2_u == pytest.approx(math.sqrt(0.5), abs=1e-10)


def test_linf_of_parabola_attained_at_midpoint_node():
    grid = Grid1D(0.0, 1.0, 64)
    state = State(grid.x * (1.0 - grid.x), np.ones(grid.n_nodes), 0.0)
    assert norms(state, grid, 1.0).linf_u == 0.25


def test_h1_h2_of_linear_field_closed_form():
    # u = x: ux = 1 at every node (boundary two-point stencils are exact on
    # linears, and all second differences vanish), so
    #   h1_u^2 = h2_u = trapz(x^2 + 1) = 1/3 + dx^2/6 + 1
    grid = Grid1D(0.0, 1.0, 64)
    state = State(grid.x.copy(), np.ones(grid.n_nodes), 0.0)
    b = norms(state, grid, 1.0)
    expected_sq = 4.0 / 3.0 + grid.dx**2 / 6.0
    assert b.h1_u == pytest.approx(math.sqrt(expected_sq), rel=1e-13)
    assert b.h2_u == pytest.approx(expected_sq, rel=1e-13)


def test_norms_of_rest_state_are_zero():
    grid = Grid1D(0.0, 1.0, 32)
    state = State(np.zeros(grid.n_nodes), np.full(grid.n_nodes, 2.5), 0.0)
    b = norms(state, grid, 2.5)
    assert (b.l2_u, b.l2_v, b.linf_u, b.linf_v) == (0.0, 0.0, 0.0, 0.0)
    assert (b.h1_u, b.h1_v, b.h2_u, b.h2_v) == (0.0, 0.0, 0.0, 0.0)


def test_norms_reject_tiny_grids():
    # a 4-node state cannot even be built on a Grid1D (n_cells >= 8), so
    # exercise the norms guard directly with a stub grid
    state = State(np.zeros(4), np.ones(4), 0.0)

    class Stub:
        dx = 0.25

    with pytest.raises(ValueError):
        norms(state, Stub(), 1.0)


@settings(max_examples=40, deadline=None)
@given(
    c=st.one_of(
        st.just(0.0),
        st.floats(0.01, 2.0, allow_nan=False),
        st.floats(-2.0, -0.01, allow_nan=False),
    )
)
def test_property_norms_are_absolutely_homogeneous(c):
    # |c| is kept away from (0, 0.01): constructing v = 1 + c*w quantizes the
    # perturbation at the scale of 1.0, which is an artifact of the test data,
    # not of the norms
    grid = Grid1D(0.0, 1.0, 32)
    u0 = 0.4 * np.sin(2.0 * np.pi * grid.x)
    w0 = 0.2 * np.cos(2.0 * np.pi * grid.x)
    base = norms(State(u0, 1.0 + w0, 0.0), grid, 1.0)
    scaled = norms(State(c * u0, 1.0 + c * w0, 0.0), grid, 1.0)
    a = abs(c)
    for name in ("l2_u", "l2_v", "linf_u", "linf_v", "h1_u", "h1_v"):
        assert getattr(scaled, name) == pytest.approx(
            a * getattr(base, name), rel=1e-9, abs=1e-300
        )
    for name in ("h2_u", "h2_v"):  # squared norms scale quadratically
        assert getattr(scaled, name) == pytest.approx(
            c * c * getattr(base, name), rel=1e-9, abs=1e-300
        )


# ---------------------------------------------------------------- audit_record


def test_audit_masses_on_cosine_data():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup()
    from chemoflux.model import make_initial

    rec = audit_record(make_initial(setup, grid), grid, setup)
    assert abs(rec.mass_v_excess) <= 1e-12  # cos(pi x) integrates to zero
    assert rec.mass_u == pytest.approx(0.6 / math.pi, rel=1e-3)
    assert rec.min_v == 0.7
    assert rec.t == 0.0


def test_audit_entropy_total_matches_direct_recomputation_bitwise():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup()
    from chemoflux.model import make_initial

    state = make_initial(setup, grid)
    rec = audit_record(state, grid, setup)
    eta = entropy_pair(state.u, state.v, setup.v_infinity, setup.epsilon).eta
    assert rec.entropy_total == trapezoid(eta, grid.dx)


def test_audit_dissipation_against_handwritten_stencil_sum():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(epsilon=0.05)
    x = grid.x
    u = 0.1 * np.sin(2.0 * np.pi * x) * x
    v = 1.0 + 0.2 * np.cos(np.pi * x) + 0.05 * x * x
    rec = audit_record(State(u, v, 0.0), grid, setup)

    def deriv(f, i):
        if i == 0:
            return (f[1] - f[0]) / grid.dx
        if i == len(f) - 1:
            return (f[-1] - f[-2]) / grid.dx
        return (f[i + 1] - f[i - 1]) / (2.0 * grid.dx)

    n = grid.n_nodes
    integrand_v = [deriv(v, i) ** 2 / v[i] for i in range(n)]
    integrand_u = [deriv(u, i) ** 2 for i in range(n)]
    oracle_v = grid.dx * (0.5 * integrand_v[0] + sum(integrand_v[1:-1]) + 0.5 * integrand_v[-1])
    oracle_u = 0.05 * grid.dx * (
        0.5 * integrand_u[0] + sum(integrand_u[1:-1]) + 0.5 * integrand_u[-1]
    )
    assert rec.dissipation_v == pytest.approx(oracle_v, rel=1e-13)
    assert rec.dissipation_u == pytest.approx(oracle_u, rel=1e-13)
    assert rec.sup_abs_ux == pytest.approx(max(abs(deriv(u, i)) for i in range(n)), rel=1e-15)


def test_audit_rejects_nonpositive_v():
    grid = Grid1D(0.0, 1.0, 64)
    v = np.ones(grid.n_nodes)
    state = State(np.zeros(grid.n_nodes), v, 0.0)
    state.v[5] = -1.0  # corrupt after construction to hit the audit guard
    with pytest.raises(ValueError, match=r"v\[5\]"):
        audit_record(state, grid, cosine_setup())


def smooth_stack(grid, k, v_inf, seed):
    """k distinct admissible rows: smooth bumps plus node-level noise."""
    rng = np.random.default_rng(seed)
    xi = (grid.x - grid.x_left) / (grid.x_right - grid.x_left)
    a = rng.uniform(-2.0, 2.0, (k, 1))
    b = rng.uniform(-0.6, 0.6, (k, 1))
    noise = 1e-3 * rng.standard_normal((2, k, grid.n_nodes))
    u = a * np.sin(np.pi * xi) * np.exp(-xi) + noise[0]
    v = v_inf * (1.0 + b * np.cos(3.0 * np.pi * xi) + noise[1])
    return u, v


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("kind", [Kind.IBVP, Kind.CAUCHY_TRUNCATED])
def test_stacked_audit_rows_are_bitwise_the_1d_audits(kind, k):
    if kind is Kind.IBVP:
        grid, setup = Grid1D(0.0, 1.0, 256), cosine_setup(epsilon=0.05)
    else:
        grid = Grid1D(-20.0, 20.0, 300)
        setup = ProblemSetup(
            kind=kind,
            epsilon=0.05,
            t_final=1.0,
            initial_data=InitialProfile(family=Family.GAUSSIAN_BUMP),
            v_infinity=2.5,
        )
    column = np.array([0.0, 0.1, 0.05, 0.025, 0.0125][:k])[:, None]
    u, v = smooth_stack(grid, k, setup.v_infinity, seed=k)
    rec = audit_record(State(u, v, 0.375), grid, setup, column)
    assert type(rec.t) is float and rec.t == 0.375
    for i in range(k):
        row = audit_record(
            State(u[i], v[i], 0.375), grid, replace(setup, epsilon=float(column[i, 0]))
        )
        for f in fields(DiagnosticsRecord):
            stacked = getattr(rec, f.name)
            if f.name != "t":
                assert stacked.shape == (k,)
                stacked = stacked[i]
            assert stacked == getattr(row, f.name), f.name
            assert type(getattr(row, f.name)) is float


def test_stacked_audit_names_the_row_and_node_of_nonpositive_v():
    grid = Grid1D(0.0, 1.0, 64)
    u, v = smooth_stack(grid, 3, 1.0, seed=3)
    state = State(u, v, 0.0)
    state.v[2, 9] = -1.0  # corrupt after construction to hit the audit guard
    with pytest.raises(ValueError, match=r"v\[2, 9\]"):
        audit_record(state, grid, cosine_setup(), np.array([[0.0], [0.1], [0.05]]))


# ------------------------------------------------------------ entropy residual


def test_entropy_residual_vanishes_identically_at_rest():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup()
    n = grid.n_nodes
    mk = lambda t: State(np.zeros(n), np.ones(n), t)
    field = entropy_residual(mk(0.0), mk(0.1), mk(0.2), grid, setup)
    assert field.linf == 0.0
    assert field.l2 == 0.0
    assert np.all(field.residual == 0.0)
    assert field.residual.shape == (n - 2,)


def test_entropy_residual_requires_equal_time_spacing():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup()
    n = grid.n_nodes
    mk = lambda t: State(np.zeros(n), np.ones(n), t)
    with pytest.raises(ValueError, match="equally spaced"):
        entropy_residual(mk(0.0), mk(0.1), mk(0.25), grid, setup)
    with pytest.raises(ValueError, match="increase"):
        entropy_residual(mk(0.2), mk(0.1), mk(0.3), grid, setup)
    with pytest.raises(ValueError, match="grids"):
        entropy_residual(
            State(np.zeros(n - 1), np.ones(n - 1), 0.0), mk(0.1), mk(0.2), grid, setup
        )


def test_entropy_residual_is_order_one_on_unrelated_states():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup()
    rng = np.random.default_rng(7)
    n = grid.n_nodes

    def mk(t):
        return State(rng.uniform(-1, 1, n), rng.uniform(0.5, 1.5, n), t)

    field = entropy_residual(mk(0.0), mk(0.01), mk(0.02), grid, setup)
    assert field.linf > 0.1


def test_entropy_residual_refines_at_second_order():
    # halving dx (with dt = dx^2/16) must cut the residual l2 by ~4
    setup = cosine_setup(epsilon=0.05, t_final=0.02)
    l2s, dxs = [], []
    for n_cells in (64, 128, 256):
        grid = Grid1D(0.0, 1.0, n_cells)
        dt = grid.dx**2 / 16.0
        cfg = SolverConfig(dt=dt)
        rec = integrate(setup, grid, cfg, TrajectoryRecorder(stride=10**9))
        s0 = rec.states[-1]
        s1 = step(s0, setup, grid, cfg)
        s2 = step(s1, setup, grid, cfg)
        field = entropy_residual(s0, s1, s2, grid, setup)
        l2s.append(field.l2)
        dxs.append(grid.dx)
    assert l2s[0] > l2s[1] > l2s[2] > 0.0
    assert l2s[0] / l2s[1] >= 3.5
    assert l2s[1] / l2s[2] >= 3.5
    slope, _ = np.polyfit(np.log(dxs), np.log(l2s), 1)
    assert slope >= 1.8


# ------------------------------------------------------------- positivity floor


def test_floor_running_max_semantics():
    recs = [
        synthetic_record(0.0, min_v=1.2, sup_ux=2.0),
        synthetic_record(1.0, min_v=0.2, sup_ux=0.1),
    ]
    report = positivity_floor_check(recs, alpha=1.0)
    # with the running max M = 2 the floor is e^-2 ~ 0.135 and 0.2 clears it;
    # an instantaneous M = 0.1 would demand e^-0.1 ~ 0.905 and fail
    assert report.passed
    assert report.running_max_ux == 2.0
    assert report.worst_margin == pytest.approx(0.2 - math.exp(-2.0), rel=1e-12)
    assert report.worst_time == 1.0


def test_floor_failure_reported_not_raised():
    recs = [
        synthetic_record(0.0, min_v=1.0, sup_ux=0.5),
        synthetic_record(1.0, min_v=0.58, sup_ux=0.5),
    ]
    report = positivity_floor_check(recs, alpha=1.0)
    assert not report.passed
    assert report.worst_margin == pytest.approx(0.58 - math.exp(-0.5), rel=1e-12)
    assert report.worst_time == 1.0
    # the same records clear the floor once the dx^2 consistency slack applies
    relaxed = positivity_floor_check(recs, alpha=1.0, dx=math.sqrt(0.005))
    assert relaxed.passed


def test_floor_rejects_unordered_records():
    # a ValueError, not an assert, so the check also holds under python -O
    recs = [synthetic_record(t) for t in (0.0, 0.5, 0.25, 0.1)]
    with pytest.raises(ValueError, match=r"t = 0\.25 follows t = 0\.5"):
        positivity_floor_check(recs, alpha=1.0)
    equal_times = [synthetic_record(0.0), synthetic_record(0.0)]
    assert positivity_floor_check(equal_times, alpha=1.0).passed


def test_floor_on_rest_trajectory_margin_is_exactly_the_slack():
    grid = Grid1D(0.0, 1.0, 64)
    profile = InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: np.zeros_like(x),
        custom_v=lambda x: np.ones_like(x),
    )
    setup = ProblemSetup(
        kind=Kind.IBVP, epsilon=0.05, t_final=0.05, initial_data=profile, alpha_floor=1.0
    )
    rec = integrate(setup, grid, SolverConfig(dt=0.01))
    report = positivity_floor_check(rec.diagnostics, alpha=setup.alpha_floor, dx=grid.dx)
    assert report.passed
    assert report.running_max_ux == 0.0
    assert report.worst_margin == pytest.approx(10.0 * grid.dx**2, rel=1e-12)


def test_floor_on_cosine_run_worst_margin_at_t0():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(epsilon=0.05, t_final=0.05)
    rec = integrate(setup, grid, SolverConfig(cfl=0.4))
    report = positivity_floor_check(rec.diagnostics, alpha=setup.alpha_floor, dx=grid.dx)
    assert report.passed
    # alpha equals min v0, so at t = 0 the margin is exactly the slack
    assert report.worst_time == 0.0
    assert report.worst_margin == pytest.approx(10.0 * grid.dx**2, rel=1e-12)


# -------------------------------------------------------- entropy monotonicity


def test_monotonicity_check_synthetic():
    dx = 0.1
    ok, worst = entropy_monotonicity_check(
        [synthetic_record(0.0, entropy=1.0), synthetic_record(1.0, entropy=0.9)], dx
    )
    assert ok and worst == pytest.approx(-0.2, rel=1e-12)  # -0.1 drop - 0.1 slack
    ok, worst = entropy_monotonicity_check(
        [synthetic_record(0.0, entropy=1.0), synthetic_record(1.0, entropy=1.2)], dx
    )
    assert not ok and worst == pytest.approx(0.1, rel=1e-12)
    ok, worst = entropy_monotonicity_check([synthetic_record(0.0, entropy=5.0)], dx)
    assert ok and worst == 0.0


def test_monotonicity_on_short_viscous_run():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(epsilon=0.05, t_final=0.05)
    rec = integrate(setup, grid, SolverConfig(cfl=0.4))
    ok, worst = entropy_monotonicity_check(rec.diagnostics, grid.dx)
    assert ok
    assert worst <= 0.0
    entropies = [d.entropy_total for d in rec.diagnostics]
    assert entropies[-1] < entropies[0]

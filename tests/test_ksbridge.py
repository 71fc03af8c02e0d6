"""Gradient substitution, its exact inverse, rescaling, and residual checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemoflux.ksbridge import (
    GradientState,
    KSParams,
    KSState,
    RescaleFactors,
    hopf_cole,
    inverse_hopf_cole,
    rescale_to_normalized,
    residual_vs_conservation_form,
)
from chemoflux.model import Grid1D, State


PARAMS = KSParams(D=1.0, chi=1.0, alpha_rate=1.0, epsilon=0.0)


def ks(c, u=None, t=0.0):
    if u is None:
        u = np.zeros_like(np.asarray(c, dtype=float))
    return KSState(c=c, u=u, t=t)


# ------------------------------------------------------------------ transform


def test_exponential_concentration_gives_unit_gradient():
    grid = Grid1D(0.0, 1.0, 64)
    state = hopf_cole(ks(np.exp(-grid.x)), grid)
    assert np.max(np.abs(state.v - 1.0)) <= 1e-12
    assert state.t == 0.0


def test_constant_concentration_gives_exact_zero_gradient():
    grid = Grid1D(0.0, 1.0, 64)
    state = hopf_cole(ks(np.full(grid.n_nodes, 7.5)), grid)
    assert np.all(state.v == 0.0)


def test_gaussian_concentration_gives_linear_gradient_at_every_node():
    # log c = -x^2/2 is a quadratic, on which both the interior averaging and
    # the one-sided end closure are exact: v must equal x at all nodes
    grid = Grid1D(-2.0, 2.0, 64)
    state = hopf_cole(ks(np.exp(-0.5 * grid.x**2)), grid)
    assert np.max(np.abs(state.v - grid.x)) <= 1e-12


def test_transform_carries_density_through_unchanged():
    grid = Grid1D(0.0, 1.0, 64)
    u = np.sin(grid.x)
    state = hopf_cole(ks(np.exp(-grid.x), u=u, t=0.3), grid)
    np.testing.assert_array_equal(state.u, u)
    assert state.t == 0.3


def test_transform_is_invariant_under_concentration_scaling():
    # v depends on log c only through differences: c -> lambda * c is a no-op
    grid = Grid1D(0.0, 1.0, 64)
    rng = np.random.default_rng(42)
    c = np.exp(rng.uniform(-0.7, 0.7, grid.n_nodes))
    base = hopf_cole(ks(c), grid)
    for lam in (1e-2, 3.0, 1e2):
        scaled = hopf_cole(ks(lam * c), grid)
        assert np.max(np.abs(scaled.v - base.v)) <= 1e-12


def test_transform_validation():
    grid = Grid1D(0.0, 1.0, 64)
    with pytest.raises(ValueError, match="nodes"):
        hopf_cole(ks(np.ones(17)), grid)


# -------------------------------------------------------------------- inverse


def test_inverse_of_zero_gradient_is_the_anchor_constant():
    grid = Grid1D(0.0, 1.0, 64)
    n = grid.n_nodes
    state = State(np.zeros(n), np.ones(n), 0.0)
    state.v = np.zeros(n)  # gradient field, not a density
    c = inverse_hopf_cole(state, grid, c_anchor=3.0)
    assert np.all(c == 3.0)


def test_inverse_of_unit_gradient_is_decaying_exponential():
    grid = Grid1D(0.0, 1.0, 64)
    n = grid.n_nodes
    state = State(np.zeros(n), np.ones(n), 0.0)
    c = inverse_hopf_cole(state, grid, c_anchor=1.0)
    assert np.max(np.abs(c - np.exp(-grid.x)) / np.exp(-grid.x)) <= 5e-12


def test_inverse_validation():
    grid = Grid1D(0.0, 1.0, 64)
    n = grid.n_nodes
    state = State(np.zeros(n), np.ones(n), 0.0)
    with pytest.raises(ValueError, match="positive"):
        inverse_hopf_cole(state, grid, c_anchor=0.0)
    short = State(np.zeros(n - 1), np.ones(n - 1), 0.0)
    with pytest.raises(ValueError, match="nodes"):
        inverse_hopf_cole(short, grid, c_anchor=1.0)
    blow = State(np.zeros(n), np.ones(n), 0.0)
    blow.v = np.full(n, -1e6)  # c grows like exp(1e6 x) and overflows
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="overflow"):
            inverse_hopf_cole(blow, grid, c_anchor=1.0)


def recurrence_inverse(v, dx, c_anchor):
    """Reference inverse: the midpoint recurrence and the product, node by node."""
    m = np.empty(v.size - 1)
    m[0] = 0.5 * (v[0] + v[1])
    for i in range(1, m.size):
        m[i] = 2.0 * v[i] - m[i - 1]
    c = np.empty(v.size)
    c[0] = c_anchor
    step = np.exp(-m * dx)
    for i in range(m.size):
        c[i + 1] = c[i] * step[i]
    return c


@pytest.mark.parametrize("n_nodes", [9, 64, 1025])
def test_inverse_is_bitwise_the_recurrence(n_nodes):
    grid = Grid1D(0.0, 1.0, n_nodes - 1)
    rng = np.random.default_rng(n_nodes)
    for _ in range(40):
        # mixed signs, magnitudes from 1e-3 up to 1e3
        v = rng.uniform(-1.0, 1.0, n_nodes) * 10.0 ** rng.uniform(-3.0, 3.0, n_nodes)
        anchor = float(np.exp(rng.uniform(-3.0, 3.0)))
        c = inverse_hopf_cole(GradientState(np.zeros(n_nodes), v, 0.0), grid, anchor)
        assert np.array_equal(c, recurrence_inverse(v, grid.dx, anchor))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_roundtrip_is_exact_to_rounding(seed):
    grid = Grid1D(0.0, 1.0, 64)
    rng = np.random.default_rng(seed)
    c = np.exp(rng.uniform(-2.0, 2.0, grid.n_nodes))
    state = hopf_cole(ks(c), grid)
    back = inverse_hopf_cole(state, grid, c_anchor=float(c[0]))
    assert np.max(np.abs(back - c) / c) <= 1e-10


# ------------------------------------------------------------------ rescaling


def test_rescale_identity_parameters():
    f = rescale_to_normalized(KSParams(1.0, 1.0, 1.0, 0.1))
    assert f == RescaleFactors(1.0, 0.1, 1.0, 1.0, 1.0)


def test_rescale_pinned_values():
    f = rescale_to_normalized(KSParams(D=2.0, chi=2.0, alpha_rate=4.0, epsilon=1.0))
    assert f.D_t == 1.0
    assert f.eps_t == 0.5
    assert f.space_factor == math.sqrt(2.0)
    assert f.time_factor == 4.0
    assert f.v_factor == math.sqrt(2.0)


def test_rescale_chi_one_leaves_epsilon_alone():
    for eps in (0.0, 0.123, 2.0):
        f = rescale_to_normalized(KSParams(D=3.7, chi=1.0, alpha_rate=2.2, epsilon=eps))
        assert f.eps_t == eps
        assert f.D_t == 3.7


def test_ks_params_validation():
    with pytest.raises(ValueError, match="D"):
        KSParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="chi"):
        KSParams(1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="alpha_rate"):
        KSParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        KSParams(1.0, 1.0, 1.0, -0.5)


def test_ks_state_validation():
    with pytest.raises(ValueError, match=r"c\[2\]"):
        KSState(np.array([1.0, 1.0, 0.0]), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="equal length"):
        KSState(np.ones(4), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="finite"):
        KSState(np.array([1.0, np.inf]), np.zeros(2), 0.0)


# ------------------------------------------------------------------- residual


def transformed(traj, grid):
    return [hopf_cole(s, grid) for s in traj]


def manufactured_trajectory(n_cells, dt, n_levels=5):
    """u = 0 and c solving c_t = eps*c_xx exactly: the gradient field then
    solves the transformed conservation law, so all residual is truncation.
    Returns the transformed states, the grid and the coefficients."""
    grid = Grid1D(0.0, 1.0, n_cells)
    params = KSParams(D=1.3, chi=0.7, alpha_rate=0.9, epsilon=0.5)
    k = math.pi
    traj = []
    for j in range(n_levels):
        t = j * dt
        c = 2.0 + 0.5 * math.exp(-params.epsilon * k * k * t) * np.cos(k * grid.x)
        traj.append(KSState(c, np.zeros(grid.n_nodes), t))
    return transformed(traj, grid), grid, params


def test_residual_zero_for_constant_state():
    grid = Grid1D(0.0, 1.0, 64)
    traj = [ks(np.full(grid.n_nodes, 2.0), t=0.1 * j) for j in range(3)]
    res = residual_vs_conservation_form(transformed(traj, grid), grid, PARAMS)
    assert res.l2_density == 0.0 and res.linf_density == 0.0
    assert res.l2_gradient == 0.0 and res.linf_gradient == 0.0


def test_residual_validation():
    grid = Grid1D(0.0, 1.0, 64)
    c = np.full(grid.n_nodes, 2.0)

    def check(*times):
        return residual_vs_conservation_form(transformed([ks(c, t=t) for t in times], grid), grid, PARAMS)

    with pytest.raises(ValueError, match="3 states"):
        check(0.0, 0.1)
    with pytest.raises(ValueError, match="increase"):
        check(0.2, 0.1, 0.3)
    with pytest.raises(ValueError, match="finite"):
        check(-math.inf, 0.0, math.inf)
    with pytest.raises(ValueError, match="equally spaced"):
        check(0.0, 0.1, 0.3)


def test_residual_refines_at_second_order_on_manufactured_solution():
    coarse = residual_vs_conservation_form(*manufactured_trajectory(64, 0.005))
    fine = residual_vs_conservation_form(*manufactured_trajectory(128, 0.0025))
    # the density equation is satisfied identically (u = 0)
    assert np.all(coarse.density_residual == 0.0)
    assert np.all(fine.density_residual == 0.0)
    # the gradient defect is pure truncation error: halving dx and dt
    # together must cut it by ~4
    assert coarse.l2_gradient == pytest.approx(1.4408e-3, rel=2e-3)
    assert fine.l2_gradient == pytest.approx(3.7842e-4, rel=2e-3)
    assert coarse.l2_gradient / fine.l2_gradient >= 3.5
    assert coarse.gradient_residual.shape == (3, 64 + 1 - 4)


def test_residual_is_order_one_on_unrelated_states():
    grid = Grid1D(0.0, 1.0, 64)
    rng = np.random.default_rng(3)

    def noisy(t):
        return ks(np.exp(rng.uniform(-1.0, 1.0, grid.n_nodes)), t=t)

    traj = [noisy(0.0), noisy(0.01), noisy(0.02)]
    res = residual_vs_conservation_form(transformed(traj, grid), grid, PARAMS)
    assert res.l2_gradient > 0.1


def old_residual_rows(states, grid, params):
    """The oracle for residual_vs_conservation_form, built the plain way:
    row lists, np.array copies of them and one full-size rows * rows."""
    dt, dx = states[1].t - states[0].t, grid.dx
    eps, alpha, chi, D = params.epsilon, params.alpha_rate, params.chi, params.D
    dens_rows, grad_rows = [], []
    for prev, mid, nxt in zip(states, states[1:], states[2:]):
        u, v = mid.u, mid.v
        u_t = (nxt.u[2:-2] - prev.u[2:-2]) / (2.0 * dt)
        v_t = (nxt.v[2:-2] - prev.v[2:-2]) / (2.0 * dt)
        fu = u * v
        fv = eps * v * v - alpha * u
        fu_x = (fu[3:-1] - fu[1:-3]) / (2.0 * dx)
        fv_x = (fv[3:-1] - fv[1:-3]) / (2.0 * dx)
        u_xx = (u[3:-1] - 2.0 * u[2:-2] + u[1:-3]) / dx**2
        v_xx = (v[3:-1] - 2.0 * v[2:-2] + v[1:-3]) / dx**2
        dens_rows.append(u_t - chi * fu_x - D * u_xx)
        grad_rows.append(v_t + fv_x - eps * v_xx)
    dens, grad = np.array(dens_rows), np.array(grad_rows)

    def l2(rows):
        return math.sqrt(float(np.mean(dx * np.sum(rows * rows, axis=1))))

    return dens, grad, (l2(dens), float(np.max(np.abs(dens))), l2(grad), float(np.max(np.abs(grad))))


@pytest.mark.parametrize("n_cells, n_levels, seed", [(16, 3, 0), (64, 7, 1), (512, 12, 2), (1000, 5, 3)])
def test_residual_rows_and_norms_are_bitwise_the_row_list_construction(n_cells, n_levels, seed):
    grid = Grid1D(-1.0, 2.0, n_cells)
    params = KSParams(D=1.3, chi=0.7, alpha_rate=0.9, epsilon=0.25)
    rng = np.random.default_rng(seed)
    traj = [
        KSState(np.exp(rng.uniform(-1.0, 1.0, grid.n_nodes)), rng.normal(size=grid.n_nodes), 0.01 * j)
        for j in range(n_levels)
    ]
    states = transformed(traj, grid)
    res = residual_vs_conservation_form(states, grid, params)
    dens, grad, norms = old_residual_rows(states, grid, params)
    assert np.all(dens != 0.0) and np.all(grad != 0.0)
    for new, old in ((res.density_residual, dens), (res.gradient_residual, grad)):
        assert new.shape == old.shape == (n_levels - 2, n_cells - 3)
        assert new.dtype == old.dtype and new.flags.c_contiguous
        assert new.tobytes() == old.tobytes()
    got = (res.l2_density, res.linf_density, res.l2_gradient, res.linf_gradient)
    assert [x.hex() for x in got] == [x.hex() for x in norms]

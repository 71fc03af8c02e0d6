"""Problem-description types, entropy pair, and initial-data synthesis."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemoflux.model import (
    BOUNDARY_TOL,
    Family,
    FieldError,
    Grid1D,
    InitialProfile,
    Kind,
    ProblemSetup,
    State,
    entropy_pair,
    make_initial,
)


def cosine_setup(kind=Kind.IBVP, epsilon=0.05, t_final=0.5, **kw):
    return ProblemSetup(
        kind=kind,
        epsilon=epsilon,
        t_final=t_final,
        initial_data=InitialProfile(family=Family.COSINE_PAIR),
        **kw,
    )


# --------------------------------------------------------------------- entropy


def test_entropy_pair_frozen_values():
    # eta = u^2/2 + v ln(v/v_inf) - (v - v_inf), q = -u v ln(v/v_inf) + (2/3) eps u^3
    at_rest_kinetic = entropy_pair(1.0, 1.0, 1.0, 0.5)
    assert at_rest_kinetic.eta == pytest.approx(0.5, abs=1e-15)
    assert at_rest_kinetic.q == pytest.approx(1.0 / 3.0, abs=1e-15)

    doubled_v = entropy_pair(0.0, 2.0, 1.0, 0.0)
    assert doubled_v.eta == pytest.approx(0.3862943611198906, abs=1e-15)
    assert doubled_v.q == 0.0


def test_entropy_exactly_zero_at_rest():
    val = entropy_pair(0.0, 1.0, 1.0, 0.05)
    assert val.eta == 0.0
    assert val.q == 0.0
    arr = entropy_pair(np.zeros(5), np.full(5, 2.5), 2.5, 0.0)
    assert np.all(arr.eta == 0.0)
    assert np.all(arr.q == 0.0)


def test_entropy_pair_elementwise_on_arrays():
    u = np.array([0.0, 1.0, -1.0])
    v = np.array([1.0, 2.0, 0.5])
    val = entropy_pair(u, v, 1.0, 0.5)
    for i in range(3):
        single = entropy_pair(float(u[i]), float(v[i]), 1.0, 0.5)
        assert val.eta[i] == pytest.approx(single.eta, rel=1e-15, abs=1e-300)
        assert val.q[i] == pytest.approx(single.q, rel=1e-15, abs=1e-300)


def test_entropy_domain_errors_name_the_value():
    with pytest.raises(ValueError, match="-1"):
        entropy_pair(0.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="0"):
        entropy_pair(0.0, 1.0, 0.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(
    u=st.floats(-50, 50, allow_nan=False),
    w=st.floats(-0.999, 1e3, allow_nan=False),
    v_inf=st.floats(0.01, 100.0, allow_nan=False),
)
def test_property_entropy_nonnegative_zero_iff_rest(u, w, v_inf):
    v = v_inf * (1.0 + w)
    val = entropy_pair(u, v, v_inf, 0.1)
    assert val.eta >= 0.0
    if u == 0.0 and v == v_inf:
        assert val.eta == 0.0


# ---------------------------------------------------------------------- types


def test_grid_basics():
    grid = Grid1D(-20.0, 20.0, 2048)
    assert grid.n_nodes == 2049
    assert grid.dx == pytest.approx(40.0 / 2048, rel=1e-15)
    assert grid.x[0] == -20.0 and grid.x[-1] == 20.0
    assert np.all(np.diff(grid.x) > 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 64)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 4)  # too coarse for the stencils
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 65.5)


def test_state_validation():
    State(np.zeros(9), np.ones(9), 0.0)
    with pytest.raises(ValueError, match=r"v\[3\]"):
        v = np.ones(9)
        v[3] = -2.0
        State(np.zeros(9), v, 0.0)
    with pytest.raises(ValueError):
        State(np.zeros(9), np.ones(8), 0.0)
    with pytest.raises(ValueError):
        State(np.full(9, np.nan), np.ones(9), 0.0)
    with pytest.raises(ValueError):
        State(np.zeros(9), np.ones(9), -0.1)


def test_state_stack_names_the_first_failing_row():
    State(np.zeros((3, 9)), np.ones((3, 9)), 0.0)
    with pytest.raises(ValueError):
        State(np.zeros((3, 9)), np.ones((2, 9)), 0.0)
    with pytest.raises(ValueError):
        State(np.zeros((2, 3, 9)), np.ones((2, 3, 9)), 0.0)
    v = np.ones((3, 9))
    v[2, 1] = -1.0
    v[1, 4] = 0.0
    with pytest.raises(ValueError, match=r"v\[1, 4\]"):
        State(np.zeros((3, 9)), v, 0.0)
    u = np.zeros((3, 9))
    u[0, 5] = np.inf
    with pytest.raises(ValueError, match="non-finite entries in row 0"):
        State(u, v, 0.0)


@pytest.mark.parametrize("field", ["u", "v"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300])
@pytest.mark.parametrize("shape, at", [((9,), (4,)), ((3, 9), (1, 4))])
def test_state_rejects_each_bad_value_alone(field, bad, shape, at):
    u, v = np.zeros(shape), np.ones(shape)
    (u if field == "u" else v)[at] = bad
    if field == "u" and np.isfinite(bad):
        State(u, v, 0.0)  # u may take any finite value
        return
    if np.isfinite(bad):
        match = re.escape(f"v[{', '.join(map(str, at))}] = {bad}")
    else:
        match = "non-finite entries" + (" in row 1" if len(shape) == 2 else "$")
    with pytest.raises(ValueError, match=match):
        State(u, v, 0.0)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 9)])
def test_state_of_zero_size_passes_its_checks(shape):
    assert State(np.zeros(shape), np.zeros(shape), 0.0).u.shape == shape


def test_setup_validation_and_floor_default():
    setup = cosine_setup()
    assert setup.alpha_floor == pytest.approx(0.7, abs=1e-15)
    assert setup.v_infinity == 1.0
    with pytest.raises(ValueError):
        cosine_setup(epsilon=-0.01)
    with pytest.raises(ValueError):
        cosine_setup(t_final=-1.0)
    # a run to t_final = inf would step until max_steps instead of failing here
    for t_final in (math.inf, math.nan):
        with pytest.raises(FieldError, match="t_final") as info:
            cosine_setup(t_final=t_final)
        assert info.value.fields == ("t_final",)
    with pytest.raises(ValueError):
        cosine_setup(v_infinity=0.0)
    with pytest.raises(ValueError):
        cosine_setup(alpha_floor=-0.2)
    # default floor must stay positive: |amplitude_v| >= v_inf is rejected
    with pytest.raises(ValueError):
        ProblemSetup(
            kind=Kind.IBVP,
            epsilon=0.0,
            t_final=1.0,
            initial_data=InitialProfile(family=Family.COSINE_PAIR, amplitude_v=1.5),
        )


def test_custom_profile_requires_explicit_floor():
    profile = InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: np.zeros_like(x),
        custom_v=lambda x: np.ones_like(x),
    )
    with pytest.raises(ValueError):
        ProblemSetup(kind=Kind.IBVP, epsilon=0.0, t_final=1.0, initial_data=profile)
    setup = ProblemSetup(
        kind=Kind.IBVP, epsilon=0.0, t_final=1.0, initial_data=profile, alpha_floor=0.5
    )
    assert setup.alpha_floor == 0.5


def test_custom_profile_requires_both_callables():
    with pytest.raises(ValueError):
        InitialProfile(family=Family.CUSTOM, custom_u=lambda x: x)


def wrong_shape_profile():
    return InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: np.zeros(x.size + 1),
        custom_v=lambda x: np.ones_like(x),
    )


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: InitialProfile(family=Family.GAUSSIAN_BUMP, width=0.0), ("width",)),
        (lambda: InitialProfile(family=Family.GAUSSIAN_BUMP, width=-1.0), ("width",)),
        (lambda: cosine_setup(kind="ibvp"), ("kind",)),
        (
            lambda: make_initial(
                ProblemSetup(
                    kind=Kind.IBVP,
                    epsilon=0.0,
                    t_final=1.0,
                    initial_data=wrong_shape_profile(),
                    alpha_floor=0.5,
                ),
                Grid1D(0.0, 1.0, 64),
            ),
            ("custom_u", "custom_v"),
        ),
        (lambda: Grid1D(-1e308, 1e308, 16), ("x_left", "x_right")),
        (
            lambda: make_initial(
                ProblemSetup(
                    kind=Kind.IBVP,
                    epsilon=0.0,
                    t_final=1.0,
                    initial_data=InitialProfile(family=Family.COSINE_PAIR, amplitude_v=1e307),
                    v_infinity=1.7e308,
                ),
                Grid1D(0.0, 1.0, 16),
            ),
            ("amplitude_v", "v_infinity", "family"),
        ),
    ],
    ids=["width=0", "width<0", "kind-as-str", "custom-shape", "grid-overflow", "v0-overflow"],
)
def test_field_errors_name_their_field(make, fields):
    with pytest.raises(FieldError) as info:
        make()
    assert info.value.fields == fields


# --------------------------------------------------------------- make_initial


def test_cosine_pair_initial_data():
    grid = Grid1D(0.0, 1.0, 64)
    state = make_initial(cosine_setup(), grid)
    xi = (grid.x - 0.0) / 1.0
    np.testing.assert_allclose(state.u[1:-1], 0.3 * np.sin(np.pi * xi[1:-1]), rtol=1e-15)
    np.testing.assert_allclose(state.v, 1.0 + 0.3 * np.cos(np.pi * xi), rtol=1e-15)
    # walls snapped to exact zeros
    assert state.u[0] == 0.0 and state.u[-1] == 0.0
    assert state.t == 0.0
    # default floor equals the exact minimum of v0 (cos(pi) == -1 exactly)
    assert np.min(state.v) == 0.7


def test_gaussian_initial_data_centered():
    grid = Grid1D(-20.0, 20.0, 256)
    setup = ProblemSetup(
        kind=Kind.CAUCHY_TRUNCATED,
        epsilon=0.05,
        t_final=0.5,
        initial_data=InitialProfile(family=Family.GAUSSIAN_BUMP, width=1.0),
    )
    state = make_initial(setup, grid)
    bump = np.exp(-(grid.x**2))
    np.testing.assert_allclose(state.u[1:-1], 0.3 * bump[1:-1], rtol=1e-12)
    np.testing.assert_allclose(state.v[1:-1], 1.0 + 0.3 * bump[1:-1], rtol=1e-12)
    assert state.u[0] == 0.0 and state.u[-1] == 0.0
    assert state.v[0] == 1.0 and state.v[-1] == 1.0
    assert int(np.argmax(state.u)) == grid.n_nodes // 2


def test_gaussian_on_walls_is_incompatible():
    grid = Grid1D(0.0, 1.0, 64)
    setup = ProblemSetup(
        kind=Kind.IBVP,
        epsilon=0.05,
        t_final=0.5,
        initial_data=InitialProfile(family=Family.GAUSSIAN_BUMP),
        alpha_floor=0.5,
    )
    with pytest.raises(ValueError):
        make_initial(setup, grid)


def test_cosine_on_truncated_line_is_incompatible():
    grid = Grid1D(-20.0, 20.0, 256)
    setup = ProblemSetup(
        kind=Kind.CAUCHY_TRUNCATED,
        epsilon=0.05,
        t_final=0.5,
        initial_data=InitialProfile(family=Family.COSINE_PAIR),
    )
    with pytest.raises(ValueError):
        make_initial(setup, grid)


def test_ibvp_requires_unit_interval():
    grid = Grid1D(0.0, 2.0, 64)
    with pytest.raises(ValueError):
        make_initial(cosine_setup(), grid)


def test_floor_above_initial_minimum_rejected():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(alpha_floor=0.9)  # min v0 = 0.7 < 0.9
    with pytest.raises(ValueError):
        make_initial(setup, grid)


def test_custom_positive_v_enforced():
    grid = Grid1D(0.0, 1.0, 64)
    profile = InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: np.zeros_like(x),
        custom_v=lambda x: np.cos(2 * np.pi * x),  # dips negative
    )
    setup = ProblemSetup(
        kind=Kind.IBVP, epsilon=0.0, t_final=1.0, initial_data=profile, alpha_floor=0.1
    )
    with pytest.raises(ValueError):
        make_initial(setup, grid)


def test_initial_data_are_copies_of_the_custom_arrays():
    # the end nodes are snapped in the admitted copies, not in the caller's arrays
    grid = Grid1D(0.0, 1.0, 64)
    u, v = 1e-13 * np.ones(grid.n_nodes), np.ones(grid.n_nodes)
    profile = InitialProfile(family=Family.CUSTOM, custom_u=lambda x: u, custom_v=lambda x: v)
    setup = ProblemSetup(kind=Kind.IBVP, epsilon=0.0, t_final=1.0, initial_data=profile, alpha_floor=1.0)
    state = make_initial(setup, grid)
    assert state.u[0] == state.u[-1] == 0.0
    assert (u == 1e-13).all() and (v == 1.0).all()


def test_boundary_tolerance_is_tight():
    assert BOUNDARY_TOL == 1e-12


def _wall_setup(v0):
    profile = InitialProfile(
        family=Family.CUSTOM, custom_u=lambda x: 0.3 * np.sin(np.pi * x), custom_v=v0
    )
    return ProblemSetup(
        kind=Kind.IBVP, epsilon=0.05, t_final=0.5, initial_data=profile, alpha_floor=0.5
    )


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_exactly_compatible_wall_data_accepted(k, n):
    # v0' = 0 at both walls; the one-sided stencil's own truncation error
    # (-dx^2/3 v0''' + O(dx^3)) must not be mistaken for incompatibility
    setup = _wall_setup(lambda x: 1.0 + 0.3 * np.cos(k * np.pi * x))
    state = make_initial(setup, Grid1D(0.0, 1.0, n))
    assert state.u[0] == 0.0 and state.u[-1] == 0.0


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize(
    "v0",
    [
        lambda x: 1.0 + 0.3 * x**2,
        lambda x: 1.0 + 0.3 * np.cos(np.pi * x) + 1e-3 * x,
        lambda x: 1.0 + 0.3 * np.cos(5 * np.pi * x) + 1e-2 * x,
    ],
    ids=["x2", "cos1+1e-3x", "cos5+1e-2x"],
)
def test_incompatible_wall_slope_rejected(v0, n):
    with pytest.raises(ValueError, match="wall compatibility"):
        make_initial(_wall_setup(v0), Grid1D(0.0, 1.0, n))

"""Time integration: IMEX stepping, recording, and failure classification."""
import numpy as np
import pytest

from chemoflux.diagnostics import positivity_floor_check, trapezoid
from chemoflux.model import FieldError, Family, Grid1D, InitialProfile, Kind, ProblemSetup, State, make_initial
from chemoflux.stepping import (
    DivergenceError,
    PositivityLossError,
    ProgressError,
    SolverConfig,
    _diffuse,
    _laplacian_symbol,
    coupled_imex_step,
    run,
    step,
)


def rest_profile():
    return InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: np.zeros_like(x),
        custom_v=lambda x: np.ones_like(x),
    )


def cosine_setup(epsilon=0.05, t_final=0.5, **kw):
    return ProblemSetup(
        kind=Kind.IBVP,
        epsilon=epsilon,
        t_final=t_final,
        initial_data=InitialProfile(family=Family.COSINE_PAIR),
        **kw,
    )


def gaussian_setup(epsilon=0.05, t_final=0.5, **kw):
    return ProblemSetup(
        kind=Kind.CAUCHY_TRUNCATED,
        epsilon=epsilon,
        t_final=t_final,
        initial_data=InitialProfile(family=Family.GAUSSIAN_BUMP),
        **kw,
    )


# --------------------------------------------------------------- SolverConfig


def test_solver_config_dt_cfl_exclusive_and_defaults():
    assert SolverConfig().cfl == 0.4
    assert SolverConfig(dt=1e-3).cfl is None
    assert SolverConfig(cfl=0.2).dt is None
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, cfl=0.4)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl=1.5)
    with pytest.raises(ValueError):
        SolverConfig(max_steps=0)


def test_run_checks_stride_and_initial_data_before_stepping():
    # raised by the call itself, before anything iterates the run
    for stride in (0, 1.5):
        with pytest.raises(ValueError, match="stride"):
            run(cosine_setup(), Grid1D(0.0, 1.0, 64), SolverConfig(dt=0.01), stride)
    with pytest.raises(FieldError, match="unit-interval runs need the grid"):
        run(cosine_setup(), Grid1D(0.0, 2.0, 64), SolverConfig(dt=0.01))


# ------------------------------------------------------ implicit diffusion solve


def dense_diffuse(rhs, lam, neumann):
    """Oracle: assemble the dense I - lam*L with its closure rows, as criterion
    10 does, and solve it with numpy.linalg.solve."""
    n = rhs.shape[0]
    dense = (1.0 + 2.0 * lam) * np.eye(n) - lam * (np.eye(n, k=1) + np.eye(n, k=-1))
    b = rhs.copy()
    if neumann:
        dense[0, 1] = dense[-1, -2] = -2.0 * lam
    else:
        dense[[0, -1]] = 0.0
        dense[0, 0] = dense[-1, -1] = 1.0
        b[0] = b[-1] = 0.0
    return np.linalg.solve(dense, b)


@pytest.mark.parametrize("neumann", [True, False])
@pytest.mark.parametrize("lam", [1e-4, 1.0, 1e3])
@pytest.mark.parametrize("n", [9, 65, 257, 2049])
def test_diffusion_solve_matches_dense_oracle(n, lam, neumann):
    rng = np.random.default_rng(n)
    rhs = 1.0 + rng.uniform(-0.5, 0.5, n)
    x = _diffuse(rhs, lam, neumann)
    ref = dense_diffuse(rhs, lam, neumann)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert not np.any(_diffuse(np.zeros(n), lam, neumann))
    if neumann:
        # the k = 0 symbol is 1: the mirror closure keeps the trapezoid sum
        before, after = trapezoid(rhs, 1.0), trapezoid(x, 1.0)
        assert abs(after - before) <= 1e-14 * abs(before)
    else:
        assert x[0] == 0.0 and x[-1] == 0.0


def test_diffusion_symbol_cache_is_keyed_by_size_only():
    rhs = np.linspace(1.0, 2.0, 129)
    misses = _laplacian_symbol.cache_info().misses
    for lam in np.geomspace(1e-4, 1e3, 100):
        _diffuse(rhs, float(lam), True)
    # and a stack of 100 rows, each with its own lam
    _diffuse(np.tile(rhs, (100, 1)), np.geomspace(1e-4, 1e3, 100)[:, None], True)
    info = _laplacian_symbol.cache_info()
    assert info.currsize <= info.maxsize
    assert info.misses - misses <= 1
    assert _laplacian_symbol(129) is _laplacian_symbol(129)
    assert _laplacian_symbol(129)[0] == 0.0


@pytest.mark.parametrize("neumann", [True, False])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("n", [9, 256, 257, 1025])
def test_stacked_diffusion_rows_are_bitwise_the_single_solves(n, k, neumann):
    rng = np.random.default_rng(1000 * n + k)
    rhs = 1.0 + rng.uniform(-0.5, 0.5, (k, n))
    lam = rng.uniform(1e-3, 1e2, (k, 1))
    x = _diffuse(rhs, lam, neumann)
    assert x.shape == (k, n)
    for i in range(k):
        assert np.array_equal(x[i], _diffuse(rhs[i], float(lam[i, 0]), neumann))
    # one float lam for the whole stack
    x = _diffuse(rhs, 0.5, neumann)
    for i in range(k):
        assert np.array_equal(x[i], _diffuse(rhs[i], 0.5, neumann))


def random_stack(kind, k, n, seed):
    """k distinct admissible rows: u pinned at the ends, v > 0 (and at the far
    field on the line)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.3, 0.3, (k, n))
    v = 1.0 + rng.uniform(-0.3, 0.3, (k, n))
    u[:, 0] = u[:, -1] = 0.0
    if kind is Kind.CAUCHY_TRUNCATED:
        v[:, 0] = v[:, -1] = 1.0
    return u, v


@pytest.mark.parametrize("kind", [Kind.IBVP, Kind.CAUCHY_TRUNCATED])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_stacked_step_rows_are_bitwise_the_single_steps(kind, k):
    n = 257
    u, v = random_stack(kind, k, n, seed=k)
    eps = np.array([0.0, 0.1, 0.05, 0.025, 0.0125][:k])[:, None]
    dt, dx = 1e-3, 1.0 / (n - 1)
    ibvp = kind is Kind.IBVP
    un, vn = coupled_imex_step(u, v, dt, dx, eps, ibvp=ibvp, v_inf=1.0)
    assert un.shape == vn.shape == (k, n)
    for i in range(k):
        u1, v1 = coupled_imex_step(u[i], v[i], dt, dx, float(eps[i, 0]), ibvp=ibvp, v_inf=1.0)
        assert np.array_equal(un[i], u1) and np.array_equal(vn[i], v1)


@pytest.mark.parametrize("kind", [Kind.IBVP, Kind.CAUCHY_TRUNCATED])
def test_stack_of_rest_states_is_a_bitwise_fixed_point(kind):
    n = 129
    eps = np.array([0.0, 0.0, 0.1, 0.05])[:, None]
    u, v = np.zeros((4, n)), np.ones((4, n))
    for _ in range(10):
        u, v = coupled_imex_step(u, v, 0.01, 1.0 / (n - 1), eps, ibvp=kind is Kind.IBVP, v_inf=1.0)
    assert np.all(u == 0.0) and np.all(v == 1.0)


def test_stacked_wall_u_stays_exactly_zero_on_every_row():
    n = 129
    u, v = random_stack(Kind.IBVP, 4, n, seed=3)
    eps = np.array([0.0, 0.1, 0.05, 0.025])[:, None]
    for _ in range(20):
        u, v = coupled_imex_step(u, v, 1e-3, 1.0 / (n - 1), eps, ibvp=True, v_inf=1.0)
        assert np.all(u[:, 0] == 0.0) and np.all(u[:, -1] == 0.0)


# --------------------------------------------------------- rest-state exactness


@pytest.mark.parametrize("kind", [Kind.IBVP, Kind.CAUCHY_TRUNCATED])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_rest_state_is_a_bitwise_fixed_point(kind, epsilon):
    grid = Grid1D(0.0, 1.0, 128) if kind is Kind.IBVP else Grid1D(-20.0, 20.0, 128)
    setup = ProblemSetup(
        kind=kind,
        epsilon=epsilon,
        t_final=1.0,
        initial_data=rest_profile(),
        alpha_floor=1.0,
    )
    cfg = SolverConfig(dt=0.01)
    state = make_initial(setup, grid)
    for _ in range(10):
        state = step(state, setup, grid, cfg)
    assert np.all(state.u == 0.0)
    assert np.all(state.v == 1.0)


# ------------------------------------------------- viscous-to-limit consistency


def test_one_step_viscous_minus_limit_shrinks_linearly_in_epsilon():
    grid = Grid1D(0.0, 1.0, 128)
    cfg = SolverConfig(dt=1e-4)
    limit_setup = cosine_setup(epsilon=0.0)
    base = make_initial(limit_setup, grid)
    ref = step(base, limit_setup, grid, cfg)
    eps_list = [1e-2, 1e-3, 1e-4]
    diffs = []
    for eps in eps_list:
        setup = cosine_setup(epsilon=eps)
        out = step(State(base.u.copy(), base.v.copy(), 0.0), setup, grid, cfg)
        diffs.append(
            max(float(np.max(np.abs(out.u - ref.u))), float(np.max(np.abs(out.v - ref.v))))
        )
    assert diffs[0] > diffs[1] > diffs[2] > 0.0
    slope, _ = np.polyfit(np.log(eps_list), np.log(diffs), 1)
    assert abs(slope - 1.0) < 1e-3
    for hi, lo in zip(diffs, diffs[1:]):
        assert 9.5 < hi / lo < 10.5


# ----------------------------------------------------- structural step behavior


def test_ibvp_walls_stay_exactly_zero_and_v_mass_is_conserved():
    grid = Grid1D(0.0, 1.0, 128)
    setup = cosine_setup(epsilon=0.05)
    cfg = SolverConfig(cfl=0.4)
    state = make_initial(setup, grid)
    mass0 = trapezoid(state.v - setup.v_infinity, grid.dx)
    for _ in range(20):
        state = step(state, setup, grid, cfg)
        assert state.u[0] == 0.0 and state.u[-1] == 0.0
        mass = trapezoid(state.v - setup.v_infinity, grid.dx)
        assert abs(mass - mass0) <= 1e-10


def test_limit_system_u_mass_is_conserved_on_truncated_line():
    # with epsilon = 0 the u-flux is -v, which equals -v_inf at both ends of a
    # far-field-compatible state: the trapezoid u-mass budget closes to rounding
    grid = Grid1D(-20.0, 20.0, 256)
    setup = gaussian_setup(epsilon=0.0)
    cfg = SolverConfig(cfl=0.4)
    state = make_initial(setup, grid)
    mass_u0 = trapezoid(state.u, grid.dx)
    mass_v0 = trapezoid(state.v - 1.0, grid.dx)
    for _ in range(20):
        state = step(state, setup, grid, cfg)
    assert abs(trapezoid(state.u, grid.dx) - mass_u0) <= 1e-8
    assert abs(trapezoid(state.v - 1.0, grid.dx) - mass_v0) <= 1e-8


# ------------------------------------------------------------------------- run


def test_run_t_final_zero_records_only_initial():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(t_final=0.0)
    states, diags = zip(*run(setup, grid, SolverConfig(dt=0.01)))
    assert len(states) == len(diags) == 1
    assert [s.t for s in states] == [0.0]


def test_run_lands_exactly_on_t_final():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(epsilon=0.05, t_final=0.1)
    states, _ = zip(*run(setup, grid, SolverConfig(dt=0.004)))
    assert states[-1].t == 0.1


def test_run_stride_record_count():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(epsilon=0.05, t_final=0.1)
    states, diags = zip(*run(setup, grid, SolverConfig(dt=0.004), stride=4))
    # 25 steps: initial + steps 4,8,12,16,20,24 + final step 25
    assert len(states) == 8
    times = np.asarray([s.t for s in states])
    assert times[0] == 0.0 and times[-1] == 0.1
    assert np.all(np.diff(times) > 0)
    assert len(states) == len(diags) == 8


def test_run_whose_clock_falls_a_rounding_short_of_t_final_takes_no_sliver_step():
    # six steps of 0.1 accumulate to 0.5 + 0.1 = 0.6, a rounding short of
    # t_final = 6 * 0.1: the sixth step is the last, clipped to land on
    # t_final, not followed by a seventh of about 1e-16
    grid = Grid1D(0.0, 1.0, 64)
    setup = ProblemSetup(
        kind=Kind.IBVP, epsilon=0.05, t_final=6 * 0.1, initial_data=rest_profile(), alpha_floor=1.0
    )
    assert sum([0.1] * 6) < setup.t_final
    states, _ = zip(*run(setup, grid, SolverConfig(dt=0.1)))
    assert len(states) == 7
    assert states[-1].t == setup.t_final


def test_run_with_a_stride_past_the_last_step_records_initial_and_final():
    # self_convergence reads each level's final State this way, through _run
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(epsilon=0.05, t_final=0.1)
    every, _ = zip(*run(setup, grid, SolverConfig(dt=0.004)))
    ends, _ = zip(*run(setup, grid, SolverConfig(dt=0.004), stride=10**9))
    assert [s.t for s in ends] == [0.0, 0.1]
    assert ends[-1].u.tobytes() == every[-1].u.tobytes()
    assert ends[-1].v.tobytes() == every[-1].v.tobytes()


def test_run_is_deterministic():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(epsilon=0.05, t_final=0.05)
    a, _ = zip(*run(setup, grid, SolverConfig(cfl=0.4)))
    b, _ = zip(*run(setup, grid, SolverConfig(cfl=0.4)))
    assert a[-1].u.tobytes() == b[-1].u.tobytes()
    assert a[-1].v.tobytes() == b[-1].v.tobytes()


def test_far_field_monitor_passes_for_compact_data():
    grid = Grid1D(-20.0, 20.0, 256)
    _, diags = zip(*run(gaussian_setup(t_final=0.05), grid, SolverConfig(cfl=0.4)))
    assert all(d.far_field_ok for d in diags) is True


def test_far_field_monitor_detects_boundary_contact():
    # a narrow bump on a domain too small for t_final = 2: diffusion in v
    # reaches the edge zone and the truncation monitor must flip to False
    grid = Grid1D(-4.0, 4.0, 128)
    profile = InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: 0.3 * np.exp(-4.0 * x * x),
        custom_v=lambda x: 1.0 + 0.3 * np.exp(-4.0 * x * x),
    )
    setup = ProblemSetup(
        kind=Kind.CAUCHY_TRUNCATED,
        epsilon=0.05,
        t_final=2.0,
        initial_data=profile,
        alpha_floor=0.5,
    )
    _, diags = zip(*run(setup, grid, SolverConfig(cfl=0.4), stride=10))
    assert all(d.far_field_ok for d in diags) is False


# ------------------------------------------------------- failure classification


def test_positivity_loss_reports_node_and_time():
    grid = Grid1D(-20.0, 20.0, 256)
    profile = InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: -30.0 * x * np.exp(-x * x),
        custom_v=lambda x: np.ones_like(x),
    )
    setup = ProblemSetup(
        kind=Kind.CAUCHY_TRUNCATED,
        epsilon=0.05,
        t_final=1.0,
        initial_data=profile,
        alpha_floor=0.01,
    )
    state = make_initial(setup, grid)
    with pytest.raises(PositivityLossError) as info:
        step(state, setup, grid, SolverConfig(dt=0.05))
    assert info.value.index == 128
    assert info.value.t == 0.05
    assert "128" in str(info.value)
    assert issubclass(PositivityLossError, RuntimeError)


def test_divergence_reports_time():
    grid = Grid1D(-20.0, 20.0, 256)
    profile = InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: 1e160 * x * np.exp(-x * x),
        custom_v=lambda x: np.ones_like(x),
    )
    setup = ProblemSetup(
        kind=Kind.CAUCHY_TRUNCATED,
        epsilon=0.05,
        t_final=1.0,
        initial_data=profile,
        alpha_floor=0.01,
    )
    with np.errstate(all="ignore"):
        state = make_initial(setup, grid)
        with pytest.raises(DivergenceError) as info:
            step(state, setup, grid, SolverConfig(dt=1e-6))
    assert info.value.t == 1e-6
    assert issubclass(DivergenceError, RuntimeError)


def test_progress_error_when_max_steps_exhausted():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(epsilon=0.05, t_final=0.5)
    with pytest.raises(ProgressError) as info:
        list(run(setup, grid, SolverConfig(dt=1e-5, max_steps=3)))
    assert info.value.t == pytest.approx(3e-5, rel=1e-9)
    assert "3" in str(info.value)
    assert issubclass(ProgressError, RuntimeError)


def test_a_step_that_cannot_move_t_raises_progress_error(stall_after_first_step):
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(epsilon=0.05, t_final=0.5)
    with pytest.raises(ProgressError, match="does not advance t") as info:
        list(run(setup, grid, SolverConfig(dt=1e-3)))
    # raised before the first stalled step is taken, not at max_steps
    assert stall_after_first_step == [0.0, 1e-3]
    assert info.value.t == 1e-3
    assert "dt = 1e-30" in str(info.value) and "t = 0.001" in str(info.value)


# ------------------------------------------------------------ long-time decay


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("n, stride", [(128, 1), (512, 25)])
def test_large_wall_data_decay_to_rest_with_monotone_entropy(n, stride, epsilon):
    # a large cosine pair at the largest admissible cfl, run to t = 10
    grid = Grid1D(0.0, 1.0, n)
    setup = ProblemSetup(
        kind=Kind.IBVP,
        epsilon=epsilon,
        t_final=10.0,
        initial_data=InitialProfile(family=Family.COSINE_PAIR, amplitude_u=0.9, amplitude_v=0.9),
    )
    states, diags = zip(*run(setup, grid, SolverConfig(cfl=1.0), stride=stride))
    entropy = [d.entropy_total for d in diags]
    assert all(b <= a for a, b in zip(entropy, entropy[1:]))
    final = states[-1]
    assert final.t == 10.0
    assert np.max(np.abs(final.u)) <= 1e-4
    assert np.max(np.abs(final.v - setup.v_infinity)) <= 1e-4
    assert positivity_floor_check(diags, setup.alpha_floor).passed

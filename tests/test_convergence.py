"""Slope fitting, the viscosity ladder, and the refinement guard."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemoflux import model, stepping
from chemoflux.convergence import (
    ConvergenceReport,
    LadderError,
    RungError,
    energy_functional,
    fit_slope,
    run_ladder,
    self_convergence,
)
from chemoflux.diagnostics import DiagnosticsRecord
from chemoflux.model import FieldError, Family, Grid1D, InitialProfile, Kind, ProblemSetup
from chemoflux.stepping import (
    DivergenceError,
    PositivityLossError,
    ProgressError,
    SolverConfig,
    run,
)


def cosine_setup(epsilon=0.05, t_final=0.5, **kw):
    return ProblemSetup(
        kind=Kind.IBVP,
        epsilon=epsilon,
        t_final=t_final,
        initial_data=InitialProfile(family=Family.COSINE_PAIR),
        **kw,
    )


# ------------------------------------------------------------------- fit_slope


def test_fit_slope_two_point_doubling():
    slope, intercept, res = fit_slope([(1.0, 2.0), (0.5, 1.0)])
    assert slope == pytest.approx(1.0, abs=1e-15)
    assert intercept == pytest.approx(math.log(2.0), abs=1e-15)
    assert res <= 1e-15


def test_fit_slope_recovers_three_quarters():
    points = [(1.0, 1.0), (0.5, 0.5946035575013605), (0.25, 0.35355339059327373)]
    slope, _, res = fit_slope(points)
    assert slope == pytest.approx(0.75, abs=1e-14)
    assert res <= 1e-14


def test_fit_slope_residual_vanishes_on_exact_power_law():
    eps = [0.1, 0.05, 0.025, 0.0125]
    points = [(e, 3.7 * e**1.25) for e in eps]
    slope, intercept, res = fit_slope(points)
    assert slope == pytest.approx(1.25, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.7), abs=1e-12)
    assert res <= 1e-12


def test_fit_slope_input_validation():
    with pytest.raises(ValueError):
        fit_slope([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_slope([(1.0, 1.0), (0.5, -2.0)])
    with pytest.raises(ValueError):
        fit_slope([(1.0, 1.0), (-0.5, 2.0)])
    with pytest.raises(ValueError):
        fit_slope([(1.0, 1.0), (1.0, 2.0)])  # identical abscissae


@settings(max_examples=40, deadline=None)
@given(c=st.floats(1e-3, 1e3, allow_nan=False))
def test_property_fit_slope_invariant_under_error_rescaling(c):
    points = [(1.0, 2.0), (0.5, 1.3), (0.25, 0.7)]
    base_slope, base_intercept, base_res = fit_slope(points)
    slope, intercept, res = fit_slope([(e, c * r) for e, r in points])
    assert slope == pytest.approx(base_slope, rel=1e-9)
    assert intercept == pytest.approx(base_intercept + math.log(c), rel=1e-9, abs=1e-9)
    assert res == pytest.approx(base_res, rel=1e-6, abs=1e-12)


# ----------------------------------------------------------- energy functional


def mk_diag(t, h2_u, h2_v, diss_u, diss_v):
    return DiagnosticsRecord(
        t=t,
        entropy_total=0.0,
        dissipation_v=diss_v,
        dissipation_u=diss_u,
        mass_u=0.0,
        mass_v_excess=0.0,
        min_v=1.0,
        sup_abs_ux=0.0,
        h2_u=h2_u,
        h2_v=h2_v,
        far_field_ok=True,
    )


def test_energy_functional_closed_form():
    diags = [mk_diag(0.0, 1.0, 2.0, 0.5, 1.5), mk_diag(1.0, 0.5, 0.5, 2.0, 2.0)]
    # sup h2 = 3, time-integrated dissipation = (2 + 4)/2 = 3
    assert energy_functional(diags) == 6.0


def test_energy_functional_single_record():
    assert energy_functional([mk_diag(0.0, 1.0, 1.0, 9.0, 9.0)]) == 2.0


# ------------------------------------------------------------------ run_ladder


def test_ladder_input_validation():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(t_final=0.01)
    cfg = SolverConfig()
    with pytest.raises(ValueError):
        run_ladder(setup, grid, cfg, [0.1, 0.05])  # too few rungs
    with pytest.raises(ValueError):
        run_ladder(setup, grid, cfg, [0.1, 0.05, 0.0])
    with pytest.raises(ValueError):
        run_ladder(setup, grid, cfg, [0.05, 0.1, 0.025])  # not decreasing


def test_ladder_with_t_final_zero_names_t_final_before_any_step(monkeypatch):
    # a ladder that never steps has no differences to fit a rate to
    calls = []
    kernel = stepping.coupled_imex_step

    def counted(*args, **kw):
        calls.append(None)
        return kernel(*args, **kw)

    monkeypatch.setattr(stepping, "coupled_imex_step", counted)
    with pytest.raises(FieldError) as info:
        run_ladder(cosine_setup(t_final=0.0), Grid1D(0.0, 1.0, 64), SolverConfig(), (0.1, 0.05, 0.025))
    assert info.value.fields == ("t_final",)
    assert calls == []


def test_mini_viscosity_ladder_behaves_linearly():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(t_final=0.05)
    report = run_ladder(setup, grid, SolverConfig(), (0.1, 0.05, 0.025), stride=10)
    assert isinstance(report, ConvergenceReport)
    assert report.kind is Kind.IBVP
    assert report.eps_ladder == (0.1, 0.05, 0.025)
    assert report.errors_monotone
    for row in report.errors:
        assert row.err_u > 0.0 and row.err_v > 0.0
        assert row.err_sum == row.err_u + row.err_v
        assert row.energy > 0.0
    assert 0.8 <= report.fitted_slope <= 1.2
    lo, hi = report.slope_ci
    assert lo <= report.fitted_slope <= hi
    assert report.grid_meta["n_cells"] == 64
    assert "cfl" in report.grid_meta["dt_policy"]
    assert report.baseline_meta["epsilon"] == 0.0
    assert report.baseline_meta["n_records"] >= 2


def test_ladder_slope_band_is_twice_the_worst_fit_residual_over_the_log_span():
    grid = Grid1D(0.0, 1.0, 64)
    eps = (0.1, 0.05, 0.025, 0.0125)
    report = run_ladder(cosine_setup(t_final=0.05), grid, SolverConfig(), eps, stride=10)
    slope, _, max_res = fit_slope([(r.eps, r.err_sum) for r in report.errors])
    assert slope == report.fitted_slope
    assert max_res > 1e-6  # a band that halving would visibly change
    band = 2.0 * max_res / math.log(max(eps) / min(eps))
    lo, hi = report.slope_ci
    assert lo == pytest.approx(slope - band, rel=1e-12, abs=0.0)
    assert hi == pytest.approx(slope + band, rel=1e-12, abs=0.0)


def test_ladder_is_deterministic():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(t_final=0.02)
    a = run_ladder(setup, grid, SolverConfig(), (0.1, 0.05, 0.025), stride=10)
    b = run_ladder(setup, grid, SolverConfig(), (0.1, 0.05, 0.025), stride=10)
    assert a.fitted_slope == b.fitted_slope
    assert [r.err_sum for r in a.errors] == [r.err_sum for r in b.errors]


def test_ladder_failure_names_the_epsilon():
    grid = Grid1D(0.0, 1.0, 64)
    setup = cosine_setup(t_final=0.5)
    with pytest.raises(LadderError) as info:
        run_ladder(setup, grid, SolverConfig(max_steps=2), (0.1, 0.05, 0.025))
    assert info.value.eps == 0.0  # the shared baseline runs first
    assert isinstance(info.value.cause, ProgressError)
    assert "epsilon = 0" in str(info.value)


def test_ladder_fails_at_a_step_that_cannot_move_t(stall_after_first_step):
    grid = Grid1D(0.0, 1.0, 64)
    with pytest.raises(LadderError) as info:
        run_ladder(
            cosine_setup(t_final=0.5), grid, SolverConfig(max_steps=5000), (0.1, 0.05, 0.025)
        )
    assert info.value.eps == 0.0
    assert isinstance(info.value.cause, ProgressError)
    assert "does not advance t" in str(info.value.cause)
    # at the first stalled step, not after spinning to max_steps
    assert len(stall_after_first_step) == 2


EPS3 = (0.1, 0.05, 0.025)


def spoiled_ladder(monkeypatch, faults):
    """Run a ladder whose kernel output is spoiled: faults maps a step number
    (1-based) to [(row, node, field, value)] written into that step's stack."""
    kernel = stepping.coupled_imex_step
    calls = []

    def spoiled(u, v, *args, **kw):
        un, vn = kernel(u, v, *args, **kw)
        calls.append(None)
        for row, node, name, value in faults.get(len(calls), ()):
            (un if name == "u" else vn)[row, node] = value
        return un, vn

    monkeypatch.setattr(stepping, "coupled_imex_step", spoiled)
    setup = cosine_setup(t_final=0.05)
    with pytest.raises(LadderError) as info:
        run_ladder(setup, Grid1D(0.0, 1.0, 64), SolverConfig(dt=0.001), EPS3, stride=4)
    return info.value


@pytest.mark.parametrize(
    "faults, eps, index, t",
    [
        # row r loses positivity at node j: LadderError(eps_r), the node kept
        ({3: [(0, 17, "v", -0.5)]}, 0.0, 17, 0.003),
        ({3: [(1, 17, "v", -0.5)]}, 0.1, 17, 0.003),
        ({3: [(3, 17, "v", -0.5)]}, 0.025, 17, 0.003),
        # a non-finite row diverges
        ({5: [(2, 30, "u", np.nan)]}, 0.05, None, 0.005),
        # rung 3 fails a step before rung 1
        ({2: [(3, 9, "v", -1.0)], 3: [(1, 9, "v", -1.0)]}, 0.025, 9, 0.002),
        # rows failing on the same step: the lower row is named, baseline first
        ({2: [(3, 9, "v", -1.0), (2, 40, "u", np.inf)]}, 0.05, None, 0.002),
        ({4: [(1, 9, "v", -1.0), (0, 40, "v", -1.0)]}, 0.0, 40, 0.004),
    ],
)
def test_ladder_names_the_member_that_fails_first(monkeypatch, faults, eps, index, t):
    err = spoiled_ladder(monkeypatch, faults)
    assert err.eps == eps
    if index is None:
        assert isinstance(err.cause, DivergenceError)
    else:
        assert isinstance(err.cause, PositivityLossError)
        assert err.cause.index == index
    assert err.cause.t == pytest.approx(t, rel=1e-12)
    assert err.__cause__ is err.cause


def count_rfft(monkeypatch):
    calls = []
    rfft = np.fft.rfft

    def counted(*args, **kw):
        calls.append(None)
        return rfft(*args, **kw)

    monkeypatch.setattr(np.fft, "rfft", counted)
    return calls


@pytest.mark.parametrize("rungs", [3, 6])
def test_wall_ladder_makes_one_transform_per_field_per_step(monkeypatch, rungs):
    # the v stack and the viscous u rows: two transforms a step for any ladder
    dt, steps = 1e-3, 30
    setup = cosine_setup(t_final=(steps - 0.5) * dt)
    eps = tuple(0.1 / 2**i for i in range(rungs))
    calls = count_rfft(monkeypatch)
    run_ladder(setup, Grid1D(0.0, 1.0, 64), SolverConfig(dt=dt), eps, stride=7)
    assert len(calls) == 2 * steps


def test_limit_run_makes_one_transform_per_step(monkeypatch):
    dt, steps = 1e-3, 30
    calls = count_rfft(monkeypatch)
    setup = cosine_setup(epsilon=0.0, t_final=(steps - 0.5) * dt)
    list(run(setup, Grid1D(0.0, 1.0, 64), SolverConfig(dt=dt)))
    assert len(calls) == steps


def sequential_ladder(setup, grid, cfg, eps_ladder, stride):
    """The reference: run each member to the end in turn, keep every record,
    then take the sup over the records of the differences.  Returns the rows
    and the baseline's audits."""
    base_states, base_diags = zip(*run(replace(setup, epsilon=0.0), grid, cfg, stride))
    rows = []
    for e in eps_ladder:
        states, diags = zip(*run(replace(setup, epsilon=e), grid, cfg, stride))
        assert [s.t for s in states] == [b.t for b in base_states]
        err_u = err_v = 0.0
        for s, b in zip(states, base_states):
            err_u = max(err_u, float(np.max(np.abs(s.u - b.u))))
            err_v = max(err_v, float(np.max(np.abs(s.v - b.v))))
        rows.append(RungError(e, err_u, err_v, err_u + err_v, energy_functional(diags)))
    return tuple(rows), base_diags


@pytest.mark.parametrize("stride", [1, 3, 10])
@pytest.mark.parametrize("kind", [Kind.IBVP, Kind.CAUCHY_TRUNCATED])
def test_lockstep_ladder_is_bitwise_the_sequential_ladder(kind, stride):
    if kind is Kind.IBVP:
        grid, dt, family = Grid1D(0.0, 1.0, 64), 0.002, Family.COSINE_PAIR
    else:
        grid, dt, family = Grid1D(-20.0, 20.0, 128), 0.02, Family.GAUSSIAN_BUMP
    # 47 steps, the last one clipped: no stride divides the step count
    setup = ProblemSetup(
        kind=kind, epsilon=0.05, t_final=46.5 * dt, initial_data=InitialProfile(family=family)
    )
    cfg = SolverConfig(dt=dt)
    eps = (0.1, 0.05, 0.025)
    report = run_ladder(setup, grid, cfg, eps, stride=stride)
    rows, base = sequential_ladder(setup, grid, cfg, eps, stride)
    assert report.errors == rows
    assert report.baseline_meta["n_records"] == len(base) == -(-47 // stride) + 1
    assert report.baseline_meta["energy"] == energy_functional(base)
    assert report.baseline_meta["far_field_ok"] is all(d.far_field_ok for d in base) is True
    assert report.grid_meta["stride"] == stride


@pytest.mark.parametrize("kind", [Kind.IBVP, Kind.CAUCHY_TRUNCATED])
def test_stride_one_ladder_energies_are_bitwise_the_member_runs(kind):
    # 142 records: each energy's time integral sums past numpy's 128-element
    # pairwise block, into its recursive split.  On the line, a wide bump run
    # to t = 7 makes that integral comparable to sup h2, so a sum taken in
    # another order shows in the energies' last bits
    if kind is Kind.IBVP:
        grid, dt, profile = Grid1D(0.0, 1.0, 64), 0.002, InitialProfile(Family.COSINE_PAIR)
    else:
        grid, dt = Grid1D(-20.0, 20.0, 128), 0.05
        profile = InitialProfile(Family.GAUSSIAN_BUMP, width=3.0)
    setup = ProblemSetup(kind=kind, epsilon=0.05, t_final=140.5 * dt, initial_data=profile)
    cfg = SolverConfig(dt=dt)
    report = run_ladder(setup, grid, cfg, EPS3, stride=1)
    rows, base = sequential_ladder(setup, grid, cfg, EPS3, 1)
    assert report.baseline_meta["n_records"] == len(base) == 142
    assert [r.energy for r in report.errors] == [r.energy for r in rows]
    assert report.errors == rows
    assert report.baseline_meta["energy"] == energy_functional(base)


@pytest.mark.parametrize("cfg", [SolverConfig(dt=1e-3), SolverConfig(cfl=0.4)], ids=["dt", "cfl"])
def test_ladder_audits_each_record_once_and_builds_no_member_states(monkeypatch, cfg):
    audits, states, steps = [], [], []
    audit = stepping.audit_record
    post_init = model.State.__post_init__
    kernel = stepping.coupled_imex_step

    def counted_audit(state, *args, **kw):
        audits.append(state.u.shape)
        return audit(state, *args, **kw)

    def counted_post_init(self):
        states.append(None)
        post_init(self)

    def counted_kernel(*args, **kw):
        steps.append(None)
        return kernel(*args, **kw)

    monkeypatch.setattr(stepping, "audit_record", counted_audit)
    monkeypatch.setattr(model.State, "__post_init__", counted_post_init)
    monkeypatch.setattr(stepping, "coupled_imex_step", counted_kernel)
    grid = Grid1D(0.0, 1.0, 64)
    # 30 steps at dt = 1e-3, the last one clipped
    setup = cosine_setup(t_final=29.5e-3)
    for rungs in (3, 6):
        audits.clear()
        states.clear()
        steps.clear()
        eps = tuple(0.1 / 2**i for i in range(rungs))
        report = run_ladder(setup, grid, cfg, eps, stride=7)
        # records at t = 0, every 7th step and the final step
        records = -(-len(steps) // 7) + 1
        assert report.baseline_meta["n_records"] == records
        if cfg.dt is not None:
            assert len(steps) == 30
        assert audits == [(rungs + 1, grid.n_nodes)] * records
        # the initial data sampled once, the tiled stack, and one State per
        # step of the whole stack, whatever the number of members
        assert len(states) == len(steps) + 2


def test_ladder_memory_does_not_grow_with_the_record_count():
    grid = Grid1D(0.0, 1.0, 1024)
    cfg = SolverConfig(dt=1e-4)
    eps = (0.1, 0.05, 0.025)

    def ladder(steps):
        return run_ladder(cosine_setup(t_final=(steps - 0.5) * 1e-4), grid, cfg, eps, stride=1)

    def peak(steps):
        tracemalloc.start()
        try:
            ladder(steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ladder(3)  # warm the lazy imports and caches outside the measurement
    short, long = peak(123), peak(245)
    # fewer bytes per extra record than one recorded state holds
    assert (long - short) / (245 - 123) < 16 * grid.n_nodes


# ------------------------------------------------------------ self_convergence


@pytest.mark.parametrize("levels", [0, -1, 1.5])
def test_self_convergence_levels_validation(levels):
    with pytest.raises(FieldError) as info:
        self_convergence(cosine_setup(t_final=0.01), Grid1D(0.0, 1.0, 64), SolverConfig(), levels)
    assert info.value.fields == ("levels",)
    assert str(levels) in str(info.value)


def test_self_convergence_rest_state_has_no_order():
    profile = InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: np.zeros_like(x),
        custom_v=lambda x: np.ones_like(x),
    )
    setup = ProblemSetup(
        kind=Kind.IBVP, epsilon=0.05, t_final=0.01, initial_data=profile, alpha_floor=1.0
    )
    slope, table = self_convergence(setup, Grid1D(0.0, 1.0, 64), SolverConfig(), levels=2)
    assert slope is None
    assert len(table) == 2
    for row in table:
        assert row.diff_u == 0.0 and row.diff_v == 0.0 and row.diff == 0.0


def test_self_convergence_smooth_run_is_second_order():
    setup = cosine_setup(epsilon=0.05, t_final=0.02)
    grid = Grid1D(0.0, 1.0, 128)
    slope, table = self_convergence(setup, grid, SolverConfig(dt=grid.dx**2), levels=3)
    assert slope is not None
    assert slope >= 1.8
    diffs = [row.diff for row in table]
    assert diffs[0] == pytest.approx(1.1416e-5, rel=1e-3)
    assert diffs[1] == pytest.approx(2.8568e-6, rel=1e-3)
    assert diffs[2] == pytest.approx(7.1439e-7, rel=1e-3)
    assert table[0].n_coarse == 128 and table[0].n_fine == 256
    assert table[1].dt_coarse == pytest.approx(table[0].dt_coarse / 4.0, rel=1e-15)

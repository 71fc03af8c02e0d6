"""Acceptance gate: ten pass/fail criteria at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion.
Every criterion is deterministic (fixed grids, fixed dt policies, seeded
randomness), so the quantitative pins are reproducible bit-for-bit on a
given platform.
"""
import dataclasses
import time

import numpy as np
import pytest

from chemoflux.convergence import run_ladder, self_convergence
from chemoflux.cli import emit_report_json
from chemoflux.diagnostics import (
    entropy_monotonicity_check,
    entropy_residual,
    positivity_floor_check,
)
from chemoflux.ksbridge import (
    KSParams,
    KSState,
    hopf_cole,
    inverse_hopf_cole,
    rescale_to_normalized,
)
from chemoflux.model import Family, Grid1D, InitialProfile, Kind, ProblemSetup
from chemoflux.stepping import (
    SolverConfig,
    _diffuse,
    coupled_imex_step,
    run,
    step,
)

def ibvp_setup(epsilon, t_final=0.5):
    return ProblemSetup(
        kind=Kind.IBVP,
        epsilon=epsilon,
        t_final=t_final,
        initial_data=InitialProfile(family=Family.COSINE_PAIR),
    )


def cauchy_setup(epsilon, t_final=0.5):
    return ProblemSetup(
        kind=Kind.CAUCHY_TRUNCATED,
        epsilon=epsilon,
        t_final=t_final,
        initial_data=InitialProfile(family=Family.GAUSSIAN_BUMP),
    )


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ibvp_run():
    grid = Grid1D(0.0, 1.0, 512)
    setup = ibvp_setup(0.05)
    (_, diags), elapsed = timed(lambda: zip(*run(setup, grid, SolverConfig(cfl=0.4))))
    return {"diags": diags, "grid": grid, "setup": setup, "elapsed": elapsed}


@pytest.fixture(scope="module")
def cauchy_run():
    grid = Grid1D(-20.0, 20.0, 2048)
    setup = cauchy_setup(0.05)
    (_, diags), elapsed = timed(lambda: zip(*run(setup, grid, SolverConfig(cfl=0.4))))
    return {"diags": diags, "grid": grid, "setup": setup, "elapsed": elapsed}


@pytest.fixture(scope="module")
def cauchy_ladder():
    grid = Grid1D(-20.0, 20.0, 2048)
    setup = cauchy_setup(0.05)
    report, elapsed = timed(
        lambda: run_ladder(
            setup, grid, SolverConfig(dt=grid.dx**2), (0.1, 0.05, 0.025, 0.0125), stride=10
        )
    )
    return {"report": report, "grid": grid, "setup": setup, "elapsed": elapsed}


@pytest.fixture(scope="module")
def ibvp_ladder():
    grid = Grid1D(0.0, 1.0, 1024)
    setup = ibvp_setup(0.05)
    report, elapsed = timed(
        lambda: run_ladder(setup, grid, SolverConfig(), (0.1, 0.05, 0.025, 0.0125), stride=10)
    )
    return {"report": report, "grid": grid, "setup": setup, "elapsed": elapsed}


def test_criterion_01_rest_state_preserved_to_1e12_over_1000_steps():
    """Both systems on both domains hold (0, v_inf) for 1000 steps, drift <= 1e-12."""
    t0 = time.perf_counter()
    profile = InitialProfile(
        family=Family.CUSTOM,
        custom_u=lambda x: np.zeros_like(x),
        custom_v=lambda x: np.ones_like(x),
    )
    worst = 0.0
    for kind in (Kind.IBVP, Kind.CAUCHY_TRUNCATED):
        grid = Grid1D(0.0, 1.0, 256) if kind is Kind.IBVP else Grid1D(-20.0, 20.0, 256)
        for eps in (0.0, 0.05):
            setup = ProblemSetup(
                kind=kind, epsilon=eps, t_final=1.0, initial_data=profile, alpha_floor=1.0
            )
            states, _ = zip(*run(setup, grid, SolverConfig(dt=0.001), stride=10**9))
            final = states[-1]
            drift = max(float(np.max(np.abs(final.u))), float(np.max(np.abs(final.v - 1.0))))
            worst = max(worst, drift)
    elapsed = time.perf_counter() - t0
    print(f"[criterion 01] rest-state drift {worst:.3e} (tol 1e-12), {elapsed:.1f}s: PASS")
    assert worst <= 1e-12  # measured exactly 0.0: the rest state is a fixed point
    assert elapsed < 5.0


def test_criterion_02_discrete_conservation(ibvp_run, cauchy_run):
    """Wall runs conserve the v budget to 1e-10; truncated-line runs conserve
    both budgets to 1e-8 with the far-field contact monitor clean."""
    t0 = time.perf_counter()
    diags = ibvp_run["diags"]
    v_drift_ibvp = max(abs(d.mass_v_excess - diags[0].mass_v_excess) for d in diags)

    cdiags = cauchy_run["diags"]
    u_drift = max(abs(d.mass_u - cdiags[0].mass_u) for d in cdiags)
    v_drift = max(abs(d.mass_v_excess - cdiags[0].mass_v_excess) for d in cdiags)
    own = time.perf_counter() - t0
    total = own + ibvp_run["elapsed"] + cauchy_run["elapsed"]
    print(
        f"[criterion 02] v-drift(walls)={v_drift_ibvp:.3e} (tol 1e-10), "
        f"u-drift(line)={u_drift:.3e}, v-drift(line)={v_drift:.3e} (tol 1e-8), "
        f"{total:.1f}s: PASS"
    )
    assert v_drift_ibvp <= 1e-10
    assert u_drift <= 1e-8
    assert v_drift <= 1e-8
    assert all(d.far_field_ok for d in cauchy_run["diags"])
    assert total < 30.0


def test_criterion_03_entropy_nonincreasing(ibvp_run, cauchy_run):
    """Total entropy never rises between records beyond the 10*dx^2*dt slack."""
    ok_i, worst_i = entropy_monotonicity_check(
        ibvp_run["diags"], ibvp_run["grid"].dx
    )
    ok_c, worst_c = entropy_monotonicity_check(
        cauchy_run["diags"], cauchy_run["grid"].dx
    )
    print(
        f"[criterion 03] worst entropy gap excess: walls {worst_i:.3e}, "
        f"line {worst_c:.3e} (<= 0): PASS"
    )
    assert ok_i and worst_i <= 0.0
    assert ok_c and worst_c <= 0.0


def test_criterion_04_entropy_residual_refines_at_second_order():
    """Halving dx (dt = dx^2/16) cuts the pointwise entropy-balance defect by >= 3.5."""
    t0 = time.perf_counter()
    l2s = []
    for n_cells in (256, 512):
        grid = Grid1D(0.0, 1.0, n_cells)
        setup = ibvp_setup(0.05, t_final=0.05)
        dt = grid.dx**2 / 16.0
        cfg = SolverConfig(dt=dt)
        states, _ = zip(*run(setup, grid, cfg, stride=10**9))
        s0 = states[-1]
        s1 = step(s0, setup, grid, cfg)
        s2 = step(s1, setup, grid, cfg)
        l2s.append(entropy_residual(s0, s1, s2, grid, setup).l2)
    factor = l2s[0] / l2s[1]
    elapsed = time.perf_counter() - t0
    print(
        f"[criterion 04] residual l2 {l2s[0]:.3e} -> {l2s[1]:.3e}, factor "
        f"{factor:.3f} (>= 3.5), {elapsed:.1f}s: PASS"
    )
    assert factor >= 3.5  # measured 3.992
    assert elapsed < 60.0


def test_criterion_05_positivity_floor(ibvp_run, cauchy_run):
    """min v stays above alpha*exp(-M t) - 10 dx^2 on every checked trajectory,
    including the smallest-viscosity ladder rung on both domains."""
    reports = []
    for bundle in (ibvp_run, cauchy_run):
        reports.append(
            positivity_floor_check(
                bundle["diags"], bundle["setup"].alpha_floor, bundle["grid"].dx
            )
        )
    for mk_setup, grid in (
        (ibvp_setup, Grid1D(0.0, 1.0, 512)),
        (cauchy_setup, Grid1D(-20.0, 20.0, 2048)),
    ):
        setup = mk_setup(0.0125)
        _, diags = zip(*run(setup, grid, SolverConfig(cfl=0.4), stride=10))
        reports.append(positivity_floor_check(diags, setup.alpha_floor, grid.dx))
    worst = min(r.worst_margin for r in reports)
    print(f"[criterion 05] floor margin over 4 trajectories >= {worst:.3e} (> 0): PASS")
    assert all(r.passed for r in reports)
    assert worst > 0.0


def test_criterion_06_vanishing_viscosity_rate_on_the_line(cauchy_ladder):
    """Truncated-line ladder errors scale like eps^1 (slope within [0.85, 1.15]),
    and the discretization-error guard stays below 10% of the smallest rung."""
    t0 = time.perf_counter()
    report = cauchy_ladder["report"]
    errs = [r.err_sum for r in report.errors]
    # frozen deterministic pins for this grid/dt/ladder
    for got, frozen in zip(errs, (0.0256367, 0.0135894, 0.0070088, 0.003561)):
        assert got == pytest.approx(frozen, rel=1e-3)
    assert report.errors_monotone

    guard_setup = cauchy_setup(0.0, t_final=0.5)
    grid = Grid1D(-20.0, 20.0, 2048)  # and its refinement at 4096
    _, table = self_convergence(guard_setup, grid, SolverConfig(dt=grid.dx**2), levels=1)
    guard = table[0].diff
    own = time.perf_counter() - t0
    total = own + cauchy_ladder["elapsed"]
    lo, hi = report.slope_ci
    print(
        f"[criterion 06] slope {report.fitted_slope:.4f} in [0.85, 1.15], "
        f"ci=({lo:.4f}, {hi:.4f}), guard {guard:.3e} < {0.1 * errs[-1]:.3e}, "
        f"{total:.1f}s: PASS"
    )
    assert 0.85 <= report.fitted_slope <= 1.15  # measured 0.9499
    assert lo >= 0.85 and hi <= 1.15
    assert guard < 0.1 * errs[-1]  # measured 6.408e-5 vs 3.561e-4
    assert total < 600.0


def test_criterion_07_vanishing_viscosity_rate_between_walls(ibvp_ladder, tmp_path):
    """Wall-domain ladder keeps a convergence slope >= 0.70 with monotone errors
    (boundary layers legitimately slow the rate below the line's ~1)."""
    report = ibvp_ladder["report"]
    assert report.grid_meta["dt"] == pytest.approx(1.635445882633638e-4, rel=1e-12)
    lo, hi = report.slope_ci
    payload = dataclasses.asdict(report)
    payload["passed"] = bool(report.fitted_slope >= 0.70 and report.errors_monotone)
    emit_report_json(payload, str(tmp_path / "ibvp_ladder_report.json"))
    print(
        f"[criterion 07] slope {report.fitted_slope:.4f} (>= 0.70), ci=({lo:.4f}, "
        f"{hi:.4f}), monotone={report.errors_monotone}, {ibvp_ladder['elapsed']:.1f}s: PASS"
    )
    assert report.fitted_slope >= 0.70  # measured 0.8938
    assert lo >= 0.70
    assert report.errors_monotone
    assert ibvp_ladder["elapsed"] < 300.0
    assert (tmp_path / "ibvp_ladder_report.json").exists()


def test_criterion_08_uniform_energy_bound_across_the_ladder(cauchy_ladder):
    """The sup-H2-plus-dissipation functional varies by <= 25% across epsilon."""
    energies = [r.energy for r in cauchy_ladder["report"].errors]
    mean = sum(energies) / len(energies)
    spread = (max(energies) - min(energies)) / mean
    print(f"[criterion 08] energy relative spread {spread:.3%} (tol 25%): PASS")
    assert spread <= 0.25  # measured 0.30%
    assert spread > 0.0


def test_criterion_09_transform_roundtrip_and_rescaled_dual_run():
    """The gradient substitution inverts to 1e-10 on 50 random fields, and a
    pre-scaled run commutes with the normalizing change of variables."""
    t0 = time.perf_counter()
    grid = Grid1D(0.0, 1.0, 64)
    rng = np.random.default_rng(99)
    worst_roundtrip = 0.0
    for _ in range(50):
        c = np.exp(rng.uniform(-2.0, 2.0, grid.n_nodes))
        state = hopf_cole(KSState(c, np.zeros_like(c), 0.0), grid)
        back = inverse_hopf_cole(state, grid, float(c[0]))
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(back - c) / c)))
    assert worst_roundtrip <= 1e-10

    # dual route: step the raw coefficients, then step the
    # normalized coefficients on the rescaled grid, and compare
    factors = rescale_to_normalized(KSParams(2.0, 2.0, 4.0, 1.0))
    assert (factors.D_t, factors.eps_t, factors.time_factor) == (1.0, 0.5, 4.0)
    k = factors.space_factor
    x = np.linspace(-5.0, 5.0, 65)
    dx = float(x[1] - x[0])
    u0 = 0.3 * x * np.exp(-(x**2))
    v0 = 1.0 + 0.3 * np.exp(-(x**2))
    u0[0] = u0[-1] = 0.0
    v0[0] = v0[-1] = 1.0
    dt = 2.5e-5

    u_raw, v_raw = u0.copy(), v0.copy()
    for _ in range(1000):
        u_raw, v_raw = coupled_imex_step(
            u_raw, v_raw, dt, dx, 1.0, ibvp=False, v_inf=1.0, alpha=4.0, chi=2.0, dcoef=2.0
        )
    u_nrm, v_nrm = u0 / k, v0.copy()
    for _ in range(1000):
        u_nrm, v_nrm = coupled_imex_step(
            u_nrm,
            v_nrm,
            factors.time_factor * dt,
            k * dx,
            factors.eps_t,
            ibvp=False,
            v_inf=1.0,
            alpha=1.0,
            chi=1.0,
            dcoef=factors.D_t,
        )
    agree_u = float(np.max(np.abs(u_nrm - u_raw / k)))
    agree_v = float(np.max(np.abs(v_nrm - v_raw)))
    tol = 5.0 * dx * dx
    elapsed = time.perf_counter() - t0
    print(
        f"[criterion 09] roundtrip {worst_roundtrip:.3e} (tol 1e-10); dual-run "
        f"agreement u={agree_u:.3e}, v={agree_v:.3e} (tol {tol:.3e}), {elapsed:.1f}s: PASS"
    )
    assert agree_u <= tol  # measured 9.2e-16: the scheme commutes exactly
    assert agree_v <= tol  # measured 4.4e-16
    assert elapsed < 30.0


def test_criterion_10_diffusion_solve_matches_dense_oracle():
    """The FFT diffusion solve every step uses agrees with a dense solve of
    (I - lam*L), with mirror rows or pinned ends, to 1e-12 on 100 random cases."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for case in range(100):
        # n <= 99 keeps OpenBLAS's dense solve single-threaded (it threads from
        # n*n >= 10000), so the budget times the solves, not a thread pool
        n = int(rng.integers(9, 100))
        lam = float(10.0 ** rng.uniform(-4.0, 3.0))
        neumann = case % 2 == 0
        rhs = rng.uniform(-5.0, 5.0, n)
        dense = (1.0 + 2.0 * lam) * np.eye(n) - lam * (np.eye(n, k=1) + np.eye(n, k=-1))
        b = rhs.copy()
        if neumann:
            dense[0, 1] = dense[-1, -2] = -2.0 * lam
        else:
            dense[[0, -1]] = 0.0
            dense[0, 0] = dense[-1, -1] = 1.0
            b[0] = b[-1] = 0.0
        expected = np.linalg.solve(dense, b)
        got = _diffuse(rhs, lam, neumann)
        scale = float(np.max(np.abs(expected))) or 1.0
        worst = max(worst, float(np.max(np.abs(got - expected))) / scale)
    elapsed = time.perf_counter() - t0
    print(
        f"[criterion 10] worst relative deviation {worst:.3e} (tol 1e-12), "
        f"{elapsed:.2f}s: PASS"
    )
    assert worst <= 1e-12
    assert elapsed < 1.0

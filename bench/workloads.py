"""The benchmark's workloads: seeded inputs, set-up, one operation, checks.

Each workload is an object with

  * ``make_inputs(seed, workdir, small)``: generate the inputs from the seed
    (configs, CSVs) and return them as a JSON-safe dict.  Not timed.
  * ``setup(inputs)``: import chemoflux and build the program objects and
    configs; returns the operation, a no-argument callable.  Timed as
    ``setup_s`` in fresh interpreters (see setup_probe.py).
  * ``reset(inputs)``: remove the previous operation's outputs.  Not timed.
  * ``collect(inputs, result)``: load what the operation produced.  Not timed.
  * ``check(inputs, outputs)``: return the list of violated properties.
  * ``corruptions``: (label, mutate) pairs for the self-check; each mutate
    damages the outputs in place, and ``check`` must then report a fault.

The checks compare against properties the method must have and against
values computed here with numpy, never against a stored copy of an earlier
output.  Every seed keeps the amount of work fixed (grid, step count, file
size) and varies only the amplitudes, so seeds compare like for like.
"""
from __future__ import annotations

import copy
import gc
import json
import math
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

EPS_LADDER = (0.1, 0.05, 0.025, 0.0125)
CFL = 0.4


def use_sources():
    """Put the checkout's own chemoflux first on sys.path; refuse to run
    against any other copy."""
    if not (SRC / "chemoflux" / "__init__.py").is_file():
        raise SystemExit(f"bench: no chemoflux sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def _check_origin(module):
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"bench: imported chemoflux from {origin}, not from {SRC}")


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_csv(path) -> dict:
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j].copy() for j, name in enumerate(header)}


def _run_cli(argv):
    from chemoflux import cli

    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"chemoflux {' '.join(argv)} exited with {rc}")
    return rc


def _wave_speed_dt(u0, v0, epsilon, dx):
    """dt of the program's cfl policy, computed here from its documented
    formula dt = cfl * dx / max(1, sup(|2 eps u| + 1 + |u| + sqrt(v)))."""
    speed = float(np.max(2.0 * epsilon * np.abs(u0) + 1.0 + np.abs(u0) + np.sqrt(v0)))
    return CFL * dx / max(1.0, speed)


class LadderWalls:
    """One ``convergence.run_ladder`` call on the unit interval (cosine pair)."""

    name = "ladder_walls"

    def make_inputs(self, seed, workdir, small=False):
        rng = _rng(seed, 1)
        n = 64 if small else 256
        steps = 100 if small else 760
        au, av = (float(a) for a in rng.uniform(0.2, 0.4, size=2))
        x = np.linspace(0.0, 1.0, n + 1)
        dt = _wave_speed_dt(au * np.sin(np.pi * x), 1.0 + av * np.cos(np.pi * x), max(EPS_LADDER), 1.0 / n)
        # t_final sits half a step before `steps` whole steps, so every seed
        # takes exactly `steps` steps per run whatever the amplitudes
        return {
            "n_cells": n,
            "amplitude_u": au,
            "amplitude_v": av,
            "t_final": (steps - 0.5) * dt,
            "dt": dt,
            "steps": steps,
            "stride": 10,
        }

    def setup(self, inputs):
        use_sources()
        import chemoflux
        from chemoflux import convergence
        from chemoflux.model import Family, Grid1D, InitialProfile, Kind, ProblemSetup
        from chemoflux.stepping import SolverConfig

        _check_origin(chemoflux)
        grid = Grid1D(0.0, 1.0, inputs["n_cells"])
        setup = ProblemSetup(
            kind=Kind.IBVP,
            epsilon=max(EPS_LADDER),
            t_final=inputs["t_final"],
            initial_data=InitialProfile(
                family=Family.COSINE_PAIR,
                amplitude_u=inputs["amplitude_u"],
                amplitude_v=inputs["amplitude_v"],
            ),
        )
        cfg = SolverConfig(cfl=CFL)
        stride = inputs["stride"]
        # looked up at call time, so a traced run sees the wrapped entry point
        return lambda: convergence.run_ladder(setup, grid, cfg, EPS_LADDER, stride=stride)

    def reset(self, inputs):
        pass

    def collect(self, inputs, report):
        return {
            "eps": [r.eps for r in report.errors],
            "err_sum": [r.err_sum for r in report.errors],
            "energy": [r.energy for r in report.errors],
            "slope": report.fitted_slope,
            "dt": report.grid_meta["dt"],
            "n_records": report.baseline_meta["n_records"],
        }

    def check(self, inputs, out):
        bad = []
        eps, err = out["eps"], out["err_sum"]
        if tuple(eps) != EPS_LADDER:
            bad.append(f"ladder ran {eps}, asked for {EPS_LADDER}")
        if not all(b < a for a, b in zip(err, err[1:])):
            bad.append(f"errors do not strictly decrease with eps: {err}")
        if not all(e > 0.0 and math.isfinite(e) for e in err):
            bad.append(f"errors are not positive and finite: {err}")
        else:
            slope = float(np.polyfit(np.log(eps), np.log(err), 1)[0])
            if abs(slope - out["slope"]) > 1e-9 * max(1.0, abs(slope)):
                bad.append(f"reported slope {out['slope']} != least-squares slope {slope}")
        if not out["slope"] >= 0.70:
            bad.append(f"fitted slope {out['slope']} < 0.70 (eps^(3/4) between walls)")
        energy = out["energy"]
        spread = (max(energy) - min(energy)) / (sum(energy) / len(energy))
        if not spread <= 0.25:
            bad.append(f"energy functional spread {spread:.3%} > 25%")
        if abs(out["dt"] - inputs["dt"]) > 1e-12 * inputs["dt"]:
            bad.append(f"shared dt {out['dt']} != cfl dt {inputs['dt']}")
        records = -(-inputs["steps"] // inputs["stride"]) + 1
        if out["n_records"] != records:
            bad.append(f"baseline holds {out['n_records']} records, expected {records}")
        return bad

    def _error_grows(o):
        o["err_sum"][-1] = o["err_sum"][-2] * 1.01

    def _shallow_slope(o):
        o["slope"] = 0.69

    def _energy_spread(o):
        o["energy"][0] *= 1.3

    corruptions = (
        ("error that grows as eps shrinks", _error_grows),
        ("slope below 3/4", _shallow_slope),
        ("energy spread of 30%", _energy_spread),
    )


class EntropyLine:
    """``chemoflux entropy-check`` in-process on the truncated line, eps = 0."""

    name = "entropy_line"
    X_LEFT, X_RIGHT, WIDTH = -20.0, 20.0, 1.0

    def _profile(self, inputs):
        n = inputs["n_cells"]
        x = np.linspace(self.X_LEFT, self.X_RIGHT, n + 1)
        bump = np.exp(-((x / self.WIDTH) ** 2))
        u0 = inputs["amplitude_u"] * bump
        v0 = 1.0 + inputs["amplitude_v"] * bump
        u0[0] = u0[-1] = 0.0
        v0[0] = v0[-1] = 1.0
        return x, u0, v0

    def make_inputs(self, seed, workdir, small=False):
        rng = _rng(seed, 2)
        n = 256 if small else 2048
        steps = 60 if small else 300
        au, av = (float(a) for a in rng.uniform(0.2, 0.4, size=2))
        inputs = {"n_cells": n, "amplitude_u": au, "amplitude_v": av}
        _, u0, v0 = self._profile(inputs)
        # dt adapts every step; scaling t_final by the initial dt keeps the
        # step count near `steps` for every seed
        t_final = steps * _wave_speed_dt(u0, v0, 0.0, (self.X_RIGHT - self.X_LEFT) / n)
        config = os.path.join(workdir, "entropy_line.cfg")
        with open(config, "w") as f:
            f.write(
                "kind = cauchy\nepsilon = 0\nprofile = gaussian\n"
                f"t_final = {_fmt(t_final)}\namplitude_u = {_fmt(au)}\n"
                f"amplitude_v = {_fmt(av)}\nwidth = {_fmt(self.WIDTH)}\n"
                f"x_left = {_fmt(self.X_LEFT)}\nx_right = {_fmt(self.X_RIGHT)}\n"
                f"n_cells = {n}\ncfl = {_fmt(CFL)}\nstride = 1\n"
            )
        inputs.update(t_final=t_final, config=config, out=os.path.join(workdir, "entropy_out"))
        return inputs

    def setup(self, inputs):
        use_sources()
        import chemoflux
        from chemoflux import cli

        _check_origin(chemoflux)
        with open(inputs["config"]) as f:
            cli.parse_config(f.read())
        argv = ["entropy-check", "--config", inputs["config"], "--out", inputs["out"], "--quiet"]
        return lambda: _run_cli(argv)

    def reset(self, inputs):
        shutil.rmtree(inputs["out"], ignore_errors=True)

    def collect(self, inputs, result):
        with open(os.path.join(inputs["out"], "entropy_check.json")) as f:
            report = json.load(f)
        return {"diag": _read_csv(os.path.join(inputs["out"], "diagnostics.csv")), "report": report}

    def check(self, inputs, out):
        bad = []
        d, rep = out["diag"], out["report"]
        n = inputs["n_cells"]
        dx = (self.X_RIGHT - self.X_LEFT) / n
        t = d["t"]
        if t[0] != 0.0 or t[-1] != inputs["t_final"] or not np.all(np.diff(t) > 0):
            bad.append(f"record times do not run 0 -> t_final = {inputs['t_final']}")
        # entropy may not rise beyond the scheme's documented slack 10 dx^2 per unit time
        rise = np.diff(d["entropy_total"]) - 10.0 * dx * dx * np.diff(t)
        if np.max(rise) > 0.0:
            bad.append(f"entropy increased by up to {np.max(rise):.3e} beyond the slack")
        # minimum principle: v >= alpha exp(-M(t) t), M the running max of |u_x|
        alpha = 1.0 - inputs["amplitude_v"]
        floor = alpha * np.exp(-np.maximum.accumulate(d["sup_abs_ux"]) * t) - 10.0 * dx * dx
        if np.any(d["min_v"] < floor):
            bad.append(f"positivity floor broken by {np.max(floor - d['min_v']):.3e}")
        for col in ("mass_u", "mass_v_excess"):
            drift = float(np.max(np.abs(d[col] - d[col][0])))
            if not drift <= 1e-8:
                bad.append(f"{col} drifts by {drift:.3e} > 1e-8")
        x, u0, v0 = self._profile(inputs)
        eta = 0.5 * u0 * u0 + v0 * np.log(v0) - (v0 - 1.0)
        s0 = float(np.trapezoid(eta, x))
        rel = abs(d["entropy_total"][0] - s0) / s0
        if not rel <= 1e-12:
            bad.append(f"initial entropy {float(d['entropy_total'][0])!r} differs from trapezoid {s0!r} by {rel:.3e}")
        if rep["entropy_nonincreasing"] is not True or rep["floor_passed"] is not True:
            bad.append(f"entropy_check.json reports a failed audit: {rep}")
        return bad

    def _v_mass_drift(o):
        o["diag"]["mass_v_excess"][-1] += 1e-7

    def _entropy_rise(o):
        o["diag"]["entropy_total"][-1] = o["diag"]["entropy_total"][-2] + 0.05

    def _below_floor(o):
        o["diag"]["min_v"][-1] = 0.0

    def _initial_entropy_off(o):
        o["diag"]["entropy_total"][0] *= 1.0 + 1e-10

    corruptions = (
        ("v-mass drift of 1e-7", _v_mass_drift),
        ("entropy rise of 0.05", _entropy_rise),
        ("v below the floor", _below_floor),
        ("initial entropy off by 1e-10", _initial_entropy_off),
    )


def _log_derivatives(x, amp, k, orders):
    """Exact derivatives f^(m), m in orders, of f = log g, g = 2 + amp cos(k x).

    With p = g'/g = f', Leibniz on g p = g' gives
    p^(n) = (g^(n+1) - sum_{j=1..n} C(n, j) g^(j) p^(n-j)) / g.
    """
    top = max(orders)
    g = [2.0 + amp * np.cos(k * x)] + [amp * k**j * np.cos(k * x + j * np.pi / 2) for j in range(1, top + 1)]
    p = []
    for n in range(top):
        acc = g[n + 1] - sum(math.comb(n, j) * g[j] * p[n - j] for j in range(1, n + 1))
        p.append(acc / g[0])
    return {m: p[m - 1] for m in orders}


class TransformRead:
    """``chemoflux transform`` on a manufactured chemotaxis trajectory CSV.

    u = 0 and c = 2 + a exp(-eps k^2 t) cos(k x) solve c_t = eps c_xx
    exactly, so the density residual vanishes identically and the
    transformed v = -(log c)_x is known in closed form.
    """

    name = "transform_read"
    K = 1.0
    LENGTH = 2.0 * math.pi
    DT = 0.01

    def make_inputs(self, seed, workdir, small=False):
        rng = _rng(seed, 3)
        n = 128 if small else 1024
        levels = 12 if small else 150
        amp = float(rng.uniform(0.5, 1.0))
        eps = float(rng.uniform(0.02, 0.08))
        x = np.linspace(0.0, self.LENGTH, n + 1)
        xs = [_fmt(xi) for xi in x]
        path = os.path.join(workdir, "ks_trajectory.csv")
        with open(path, "w") as f:
            f.write("t,x,c,u\n")
            for j in range(levels):
                t = _fmt(j * self.DT)
                c = 2.0 + amp * math.exp(-eps * self.K**2 * j * self.DT) * np.cos(self.K * x)
                f.write("".join(f"{t},{xi},{ci!r},0\n" for xi, ci in zip(xs, c.tolist())))
        config = os.path.join(workdir, "transform.cfg")
        with open(config, "w") as f:
            f.write(f"kind = cauchy\nepsilon = 0\nt_final = 0\nks_csv = {path}\nks_epsilon = {_fmt(eps)}\n")
        return {
            "n_cells": n,
            "levels": levels,
            "amplitude": amp,
            "ks_epsilon": eps,
            "csv": path,
            "config": config,
            "out": os.path.join(workdir, "transform_out"),
        }

    def setup(self, inputs):
        use_sources()
        import chemoflux
        from chemoflux import cli

        _check_origin(chemoflux)
        with open(inputs["config"]) as f:
            cli.parse_config(f.read())
        argv = ["transform", "--config", inputs["config"], "--out", inputs["out"], "--quiet"]
        return lambda: _run_cli(argv)

    def reset(self, inputs):
        shutil.rmtree(inputs["out"], ignore_errors=True)

    def collect(self, inputs, result):
        with open(os.path.join(inputs["out"], "transform_report.json")) as f:
            report = json.load(f)
        return {"final": _read_csv(os.path.join(inputs["out"], "transformed_final.csv")), "report": report}

    def check(self, inputs, out):
        bad = []
        rep, fin = out["report"], out["final"]
        n = inputs["n_cells"]
        h = self.LENGTH / n
        x = np.linspace(0.0, self.LENGTH, n + 1)
        if rep["n_time_levels"] != inputs["levels"]:
            bad.append(f"read {rep['n_time_levels']} levels, wrote {inputs['levels']}")
        if rep["l2_density"] != 0.0 or rep["linf_density"] != 0.0:
            bad.append(f"density residual is not exactly 0: {rep['l2_density']!r}, {rep['linf_density']!r}")
        if not rep["roundtrip_max_rel_error"] <= 1e-12:
            bad.append(f"round trip error {rep['roundtrip_max_rel_error']:.3e} > 1e-12")
        if fin["x"].shape != x.shape or np.max(np.abs(fin["x"] - x)) > 1e-12:
            bad.append("transformed_final.csv is not on the input grid")
            return bad
        if np.any(fin["u"] != 0.0):
            bad.append("the transform changed the density u = 0")
        # analytic v = -(log c)_x at the last level, against the stencil's
        # own error: centered |err| <= h^2/6 |f'''(x_i)| + h^4/120 max|f^(5)|,
        # one-sided ends |err| <= h^2/3 |f'''(x_0)| + h^3/4 max|f^(4)|
        t_last = (inputs["levels"] - 1) * self.DT
        amp = inputs["amplitude"] * math.exp(-inputs["ks_epsilon"] * self.K**2 * t_last)
        exact = -_log_derivatives(x, amp, self.K, (1,))[1]
        d3 = np.abs(_log_derivatives(x, amp, self.K, (3,))[3])
        fine = np.linspace(0.0, self.LENGTH, 64 * n + 1)
        high = _log_derivatives(fine, amp, self.K, (4, 5))
        m4, m5 = (2.0 * float(np.max(np.abs(high[m]))) for m in (4, 5))
        logc = np.log(2.0 + amp * np.cos(self.K * x))
        rounding = 8.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(logc)))) / h
        bound = h * h / 6.0 * d3 + h**4 / 120.0 * m5 + rounding
        bound[[0, -1]] = h * h / 3.0 * d3[[0, -1]] + h**3 / 4.0 * m4 + rounding
        excess = np.abs(fin["v"] - exact) - bound
        if np.max(excess) > 0.0:
            i = int(np.argmax(excess))
            bad.append(f"transformed v off the analytic -(log c)_x by {excess[i]:.3e} beyond the O(dx^2) bound at x = {x[i]:.6g}")
        return bad

    def _v_shifted(o):
        o["final"]["v"] += 1e-6

    def _density_residual(o):
        o["report"]["linf_density"] = 1e-300

    def _roundtrip_error(o):
        o["report"]["roundtrip_max_rel_error"] = 1e-11

    corruptions = (
        ("transformed v shifted by 1e-6", _v_shifted),
        ("density residual of 1e-300", _density_residual),
        ("round trip error of 1e-11", _roundtrip_error),
    )


WORKLOADS = {w.name: w for w in (LadderWalls(), EntropyLine(), TransformRead())}


def attempt(wl, inputs, op, tracer=None):
    """Run one operation (traced if a tracer is given) and check its outputs.

    Returns (seconds, or None if the operation raised; outputs; problems).
    """
    wl.reset(inputs)
    gc.collect()  # every operation starts from the same collector state
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = op()
    except Exception:  # counted as a failed operation; the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None, None, []
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    try:
        outputs = wl.collect(inputs, result)
        problems = wl.check(inputs, outputs)
    except (OSError, ValueError, KeyError) as exc:
        outputs, problems = None, [f"outputs unreadable: {exc!r}"]
    return elapsed, outputs, problems


def corrupted(outputs, mutate):
    """A damaged deep copy of the outputs, for the self-check."""
    damaged = copy.deepcopy(outputs)
    mutate(damaged)
    return damaged

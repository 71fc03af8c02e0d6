"""Config-driven subcommands with bit-stable CSV/JSON emission.

Config format: flat ``key = value`` lines, ``#`` comments, no nesting.
The keys are the fields of RunConfig; kind, epsilon and t_final are required.
Every applied default, and a ``--eps`` ladder, is echoed into
``effective_config.cfg`` in the output directory under a ``# chemoflux
<command>`` comment line, and re-running that command from that file
reproduces all outputs bit-identically (nothing here is randomized or
timestamped).

Exit codes: 0 success, 2 validation failure, 3 run failure, 4 threshold
failure (``converge`` only).
"""
from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .convergence import _check_levels, check_ladder, run_ladder, self_convergence
from .diagnostics import (
    H2_BOUNDARY_STENCIL_NOTE,
    DiagnosticsRecord,
    entropy_monotonicity_check,
    entropy_residual,
    positivity_floor_check,
)
from .ksbridge import (
    KSParams,
    KSState,
    hopf_cole,
    inverse_hopf_cole,
    rescale_to_normalized,
    residual_vs_conservation_form,
)
from .model import FieldError, Family, Grid1D, InitialProfile, Kind, ProblemSetup, make_initial
from .stepping import SolverConfig, run, step
from .stepping import _check_stride, _nominal_dt

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "emit_effective_config",
    "emit_state_csv",
    "emit_diagnostics_csv",
    "emit_report_json",
    "read_ks_trajectory_csv",
    "main",
]

# the diagnostics.csv columns: the DiagnosticsRecord fields but the far-field flag
_DIAG_FIELDS = tuple(
    f.name for f in dataclasses.fields(DiagnosticsRecord) if f.name != "far_field_ok"
)
DIAG_COLUMNS = ",".join(_DIAG_FIELDS)


class ConfigError(ValueError):
    def __init__(self, key: str, line: int, message: str):
        self.key = key
        self.line = line
        loc = f" (line {line})" if line else ""
        super().__init__(f"config error at '{key}'{loc}: {message}")


def _key(parse, default=dataclasses.MISSING):
    """A config key: how its value parses ("float", "int", "floatlist", "str",
    or a text -> value dict of choices) and its applied default (none: required)."""
    return dataclasses.field(default=default, metadata={"parse": parse})


@dataclass(kw_only=True)
class RunConfig:
    """Fully resolved run description (all defaults applied).

    The fields are the config keys, in the order effective_config.cfg echoes
    them; None means unset and is not echoed.  parse_config resolves
    alpha_floor and cfl through their domain objects, and profile, x_left and
    x_right by kind (_KIND_DEFAULTS).
    """

    kind: Kind = _key({k.value: k for k in Kind})
    epsilon: float = _key("float")
    v_infinity: float = _key("float", 1.0)
    alpha_floor: Optional[float] = _key("float", None)
    t_final: float = _key("float")
    profile: Optional[Family] = _key(
        {f.value: f for f in (Family.GAUSSIAN_BUMP, Family.COSINE_PAIR)}, None
    )
    amplitude_u: float = _key("float", 0.3)
    amplitude_v: float = _key("float", 0.3)
    width: float = _key("float", 1.0)
    x_left: Optional[float] = _key("float", None)
    x_right: Optional[float] = _key("float", None)
    n_cells: int = _key("int", 1024)
    dt: Optional[float] = _key("float", None)
    cfl: Optional[float] = _key("float", None)
    max_steps: int = _key("int", 2_000_000)
    stride: int = _key("int", 1)
    eps_ladder: tuple = _key("floatlist", (0.1, 0.05, 0.025, 0.0125))
    refine_levels: int = _key("int", 3)
    ks_d: float = _key("float", 1.0)
    ks_chi: float = _key("float", 1.0)
    ks_alpha: float = _key("float", 1.0)
    ks_epsilon: float = _key("float", 0.0)
    ks_csv: Optional[str] = _key("str", None)
    out_dir: Optional[str] = _key("str", None)


# key -> parse type; parsing rejects anything not listed here
_KEY_TYPES = {f.name: f.metadata["parse"] for f in dataclasses.fields(RunConfig)}

# the defaults that depend on the domain
_KIND_DEFAULTS = {
    Kind.IBVP: {"profile": Family.COSINE_PAIR, "x_left": 0.0, "x_right": 1.0},
    Kind.CAUCHY_TRUNCATED: {"profile": Family.GAUSSIAN_BUMP, "x_left": -20.0, "x_right": 20.0},
}

# field of a domain object -> the config key that sets it, where the names
# differ; KSParams fields are set by the ks_* keys
_FIELD_KEYS = {"family": "profile"}
_KS_KEYS = {"D": "ks_d", "chi": "ks_chi", "alpha_rate": "ks_alpha", "epsilon": "ks_epsilon"}


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(x)
    return x


def _convert(key: str, value: str, line: int, parse):
    """Convert one raw value by its parse type (see _key), raising a
    ConfigError that names key and line.  Floats must be finite."""
    try:
        if isinstance(parse, dict):
            return parse[value]
        if parse == "float":
            return _finite(float(value))
        if parse == "int":
            f = float(value)
            if int(f) != f:
                raise ValueError(value)
            return int(f)
        if parse == "floatlist":
            return tuple(_finite(float(p)) for p in value.split(","))
        return value
    except (KeyError, ValueError, TypeError, OverflowError):
        if isinstance(parse, dict):
            kind = f"one of {tuple(parse)}"
        else:
            kind = {"float": "finite float", "floatlist": "list of finite floats"}.get(parse, parse)
        raise ConfigError(key, line, f"cannot parse {value!r} as {kind}") from None


def _build(make, lines: dict, keys: dict = _FIELD_KEYS):
    """Call a domain constructor.  A FieldError becomes a ConfigError on the
    first field at fault whose config key appears in `lines` (key -> line),
    else on the most specific one."""
    try:
        return make()
    except FieldError as exc:
        names = [keys.get(f, f) for f in exc.fields]
        key = next((k for k in names if k in lines), names[0])
        raise ConfigError(key, lines.get(key, 0), str(exc)) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a flat key = value config.

    Raises ConfigError naming the key and line on unknown keys, type
    mismatches, or invariant violations.
    """
    raw: dict = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            token = line.split()[0]
            raise ConfigError(token, line_no, "expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(key, line_no, "unknown key")
        if key in raw:
            raise ConfigError(key, line_no, f"duplicate key (first set on line {raw[key][1]})")
        if not value:
            raise ConfigError(key, line_no, "empty value")
        raw[key] = (value, line_no)

    for f in dataclasses.fields(RunConfig):
        if f.default is dataclasses.MISSING and f.name not in raw:
            raise ConfigError(f.name, 0, "required key is missing")

    vals = {k: _convert(k, v, ln, _KEY_TYPES[k]) for k, (v, ln) in raw.items()}
    lines = {k: ln for k, (_, ln) in raw.items()}
    cfg = RunConfig(**{**_KIND_DEFAULTS[vals["kind"]], **vals})

    # build every domain object once, so each invariant is enforced by its
    # own constructor before any run starts
    grid = _build(lambda: build_grid(cfg), lines)
    setup = _build(lambda: build_setup(cfg), lines)
    solver = _build(lambda: build_solver(cfg), lines)
    _build(lambda: _check_stride(cfg.stride), lines)
    _build(lambda: _check_levels(cfg.refine_levels), lines, {"levels": "refine_levels"})
    _build(lambda: make_initial(setup, grid), lines)
    _build(lambda: check_ladder(cfg.eps_ladder), lines)
    _build(lambda: KSParams(cfg.ks_d, cfg.ks_chi, cfg.ks_alpha, cfg.ks_epsilon), lines, _KS_KEYS)
    # echo the resolved alpha_floor and step policy instead of leaving them implicit
    cfg.alpha_floor = setup.alpha_floor
    cfg.cfl = solver.cfl
    return cfg


def build_grid(cfg: RunConfig) -> Grid1D:
    return Grid1D(cfg.x_left, cfg.x_right, cfg.n_cells)


def build_setup(cfg: RunConfig) -> ProblemSetup:
    return ProblemSetup(
        kind=cfg.kind,
        epsilon=cfg.epsilon,
        t_final=cfg.t_final,
        initial_data=InitialProfile(cfg.profile, cfg.amplitude_u, cfg.amplitude_v, cfg.width),
        v_infinity=cfg.v_infinity,
        alpha_floor=cfg.alpha_floor,
    )


def build_solver(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(dt=cfg.dt, cfl=cfg.cfl, max_steps=cfg.max_steps)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def emit_effective_config(cfg: RunConfig) -> str:
    """Render the fully resolved config; parsing it back yields an equal RunConfig."""
    lines = []
    for f in dataclasses.fields(cfg):
        value, parse = getattr(cfg, f.name), f.metadata["parse"]
        if value is None:
            continue
        if parse == "float":
            value = _fmt(value)
        elif parse == "floatlist":
            value = ",".join(_fmt(e) for e in value)
        lines.append(f"{f.name} = {getattr(value, 'value', value)}\n")
    return "".join(lines)


def _open_out(path: str):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def emit_state_csv(state, grid: Grid1D, path: str):
    """Columns x,u,v; 17 significant digits so re-parsing is bit-faithful."""
    with _open_out(path) as f:
        f.write("x,u,v\n")
        for x, u, v in zip(grid.x, state.u, state.v):
            f.write(f"{_fmt(x)},{_fmt(u)},{_fmt(v)}\n")


def emit_diagnostics_csv(records, path: str):
    """One row per DiagnosticsRecord, ascending t."""
    with _open_out(path) as f:
        f.write(DIAG_COLUMNS + "\n")
        for d in records:
            f.write(",".join(_fmt(getattr(d, col)) for col in _DIAG_FIELDS) + "\n")


def _json_default(obj):
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.ndarray, np.floating, np.integer)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def emit_report_json(payload: dict, path: str):
    """Serialize a report dict deterministically."""
    with _open_out(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")


def _parses(line: str) -> bool:
    """Whether one data line reads as exactly 4 numbers."""
    try:
        return np.loadtxt([line], delimiter=",", comments=None).shape == (4,)
    except ValueError:
        return False


def _read_stripped_lines(path: str) -> np.ndarray:
    """The data rows of a file that numpy refused whole: parse its stripped,
    non-blank lines after the header, or quote the first bad line."""
    try:
        with open(path, newline="") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from exc
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2, comments=None)
        if data.shape[1] != 4:
            raise ValueError(data.shape)
    except ValueError:  # only a malformed file gets here: quote its first bad line
        bad = next(ln for ln in lines[1:] if not _parses(ln))
        raise ValueError(f"{path}: cannot parse data line {bad!r} as 4 columns of numbers") from None
    return data


def read_ks_trajectory_csv(path: str):
    """Read a t,x,c,u trajectory CSV into KSStates plus the grid they live on.

    Blank and whitespace-only lines are skipped.  Rows must be grouped by
    ascending t with identical ascending, uniformly spaced x in every block.

    Only the lines up to the first data row are read here; numpy parses the
    rest from the path itself, with no Python string per line.  A file
    numpy refuses (whitespace-only lines, which it rejects, or a bad row)
    is read again line by line, which skips the former and quotes the
    latter.
    """
    header = None
    try:
        with open(path, newline="") as f:
            for skip, ln in enumerate(f, start=1):
                if ln.strip():
                    header = ln.strip()
                    break
            has_data = any(ln.strip() for ln in f)
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from exc
    if header != "t,x,c,u":
        raise ValueError(f"{path}: expected header 't,x,c,u', got {header or 'nothing'}")
    if not has_data:
        raise ValueError(f"{path}: no data rows after the header")
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, skiprows=skip)
        if data.shape[1] != 4:
            raise ValueError(data.shape)
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from exc
    except ValueError:
        data = _read_stripped_lines(path)
    t = data[:, 0]
    starts = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    sizes = np.diff(np.append(starts, t.size))
    x0 = data[: sizes[0], 1]
    if x0.size < 9:
        raise ValueError(f"{path}: need at least 9 nodes per time level, got {x0.size}")
    spacing = np.diff(x0)  # the checks below are written so that a nan fails them
    if not (np.all(spacing > 0) and np.max(np.abs(spacing - spacing[0])) <= 1e-9 * spacing[0]):
        raise ValueError(f"{path}: x must be ascending and uniformly spaced")
    off_grid = sizes != x0.size
    if not np.any(off_grid):
        levels = data.reshape(starts.size, x0.size, 4)
        dev = np.subtract(levels[:, :, 1], x0)  # the one (levels, n) buffer of the check
        off_grid = ~(np.max(np.abs(dev, out=dev), axis=1) <= 1e-12 * max(1.0, np.max(np.abs(x0))))
    if np.any(off_grid):
        raise ValueError(f"{path}: time level t={t[starts[np.argmax(off_grid)]]} has a different x grid")
    if not np.all(np.diff(levels[:, 0, 0]) > 0):
        raise ValueError(f"{path}: time levels must strictly increase")
    try:
        states = [KSState(lv[:, 2], lv[:, 3], float(lv[0, 0])) for lv in levels]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return states, Grid1D(float(x0[0]), float(x0[-1]), x0.size - 1)


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved config and the output directory and
# returns (exit code, summary line)


def _run_audited(setup: ProblemSetup, grid: Grid1D, solver: SolverConfig, stride: int):
    """Step one run to t_final, keeping its audits and its last State only,
    not the trajectory: (final State, audits, far-field monitor folded over
    every audit)."""
    diags = []
    for final, d in run(setup, grid, solver, stride):
        diags.append(d)
    return final, diags, all(d.far_field_ok for d in diags)


def _cmd_run(cfg: RunConfig, out: str) -> tuple[int, str]:
    setup, grid, solver = build_setup(cfg), build_grid(cfg), build_solver(cfg)
    final, diags, far_field_ok = _run_audited(setup, grid, solver, cfg.stride)
    emit_state_csv(final, grid, os.path.join(out, "state_final.csv"))
    emit_diagnostics_csv(diags, os.path.join(out, "diagnostics.csv"))
    return 0, (
        f"run: t={final.t:g} records={len(diags)} min_v={diags[-1].min_v:.6g} "
        f"mass_u drift={diags[-1].mass_u - diags[0].mass_u:.3e} "
        f"mass_v drift={diags[-1].mass_v_excess - diags[0].mass_v_excess:.3e} "
        f"entropy {diags[0].entropy_total:.6g} -> {diags[-1].entropy_total:.6g}"
        + ("" if setup.kind is Kind.IBVP else f" far_field_ok={far_field_ok}")
    )


def _energy_spread(report) -> float:
    energies = [r.energy for r in report.errors]
    mean = sum(energies) / len(energies)
    return (max(energies) - min(energies)) / mean


def _cmd_converge(cfg: RunConfig, out: str) -> tuple[int, str]:
    setup, grid, solver = build_setup(cfg), build_grid(cfg), build_solver(cfg)
    report = run_ladder(setup, grid, solver, cfg.eps_ladder, stride=cfg.stride)
    spread = _energy_spread(report)
    if cfg.kind is Kind.CAUCHY_TRUNCATED:
        slope_window = (0.85, 1.15)
        passed = slope_window[0] <= report.fitted_slope <= slope_window[1]
        requirement = f"slope in [{slope_window[0]}, {slope_window[1]}]"
    else:
        slope_window = (0.70, None)
        passed = report.fitted_slope >= slope_window[0] and report.errors_monotone
        requirement = f"slope >= {slope_window[0]} and errors monotone"
    payload = dataclasses.asdict(report)
    payload.update(
        observed_slope=report.fitted_slope,
        energy_relative_spread=spread,
        requirement=requirement,
        passed=passed,
        norms_note=H2_BOUNDARY_STENCIL_NOTE,
    )
    emit_report_json(payload, os.path.join(out, "report.json"))
    return (0 if passed else 4), (
        f"converge[{cfg.kind.value}]: slope={report.fitted_slope:.4f} "
        f"ci=({report.slope_ci[0]:.4f}, {report.slope_ci[1]:.4f}) "
        f"monotone={report.errors_monotone} energy_spread={spread:.3%} -> "
        + ("PASS" if passed else "FAIL")
    )


def _cmd_entropy_check(cfg: RunConfig, out: str) -> tuple[int, str]:
    setup, grid, solver = build_setup(cfg), build_grid(cfg), build_solver(cfg)
    final, diags, far_field_ok = _run_audited(setup, grid, solver, cfg.stride)
    # two extra fixed-dt steps give an exactly spaced triple for the residual
    dt = _nominal_dt(final, setup.epsilon, grid, solver)
    cfg_fixed = SolverConfig(dt=dt, max_steps=solver.max_steps)
    s1 = step(final, setup, grid, cfg_fixed)
    s2 = step(s1, setup, grid, cfg_fixed)
    res = entropy_residual(final, s1, s2, grid, setup)
    ok_entropy, worst_gap = entropy_monotonicity_check(diags, grid.dx)
    floor = positivity_floor_check(diags, setup.alpha_floor, grid.dx)
    emit_diagnostics_csv(diags, os.path.join(out, "diagnostics.csv"))
    emit_report_json(
        {
            "residual_l2": res.l2,
            "residual_linf": res.linf,
            "residual_time": s1.t,
            "entropy_nonincreasing": ok_entropy,
            "worst_entropy_gap_excess": worst_gap,
            "floor_passed": floor.passed,
            "floor_worst_margin": floor.worst_margin,
            "floor_worst_time": floor.worst_time,
            "floor_running_max_ux": floor.running_max_ux,
            "far_field_ok": far_field_ok,
            "norms_note": H2_BOUNDARY_STENCIL_NOTE,
        },
        os.path.join(out, "entropy_check.json"),
    )
    return 0, (
        f"entropy-check: residual_l2={res.l2:.3e} nonincreasing={ok_entropy} "
        f"floor_passed={floor.passed} (margin {floor.worst_margin:.3e})"
        + ("" if setup.kind is Kind.IBVP else f" far_field_ok={far_field_ok}")
    )


def _cmd_self_converge(cfg: RunConfig, out: str) -> tuple[int, str]:
    setup, grid, solver = build_setup(cfg), build_grid(cfg), build_solver(cfg)
    slope, table = self_convergence(setup, grid, solver, cfg.refine_levels)
    emit_report_json(
        {
            "slope": slope,
            "slope_applicable": slope is not None,
            "table": [dataclasses.asdict(row) for row in table],
        },
        os.path.join(out, "self_convergence.json"),
    )
    return 0, (
        "self-converge: "
        + (f"slope={slope:.4f}" if slope is not None else "slope not applicable")
        + f" over {len(table)} refinement pairs"
    )


def _cmd_transform(cfg: RunConfig, out: str) -> tuple[int, str]:
    params = KSParams(cfg.ks_d, cfg.ks_chi, cfg.ks_alpha, cfg.ks_epsilon)
    traj, grid = read_ks_trajectory_csv(cfg.ks_csv)
    states = [hopf_cole(ks, grid) for ks in traj]
    try:
        res = residual_vs_conservation_form(states, grid, params)
    except ValueError as exc:
        raise ValueError(f"{cfg.ks_csv}: {exc}") from None
    roundtrip = 0.0
    for ks, state in zip(traj, states):
        c_back = inverse_hopf_cole(state, grid, float(ks.c[0]))
        roundtrip = max(roundtrip, float(np.max(np.abs(c_back - ks.c) / ks.c)))
    emit_state_csv(states[-1], grid, os.path.join(out, "transformed_final.csv"))
    emit_report_json(
        {
            **{k: getattr(res, k) for k in ("l2_density", "linf_density", "l2_gradient", "linf_gradient")},
            "roundtrip_max_rel_error": roundtrip,
            "rescale": dataclasses.asdict(rescale_to_normalized(params)),
            "n_time_levels": len(traj),
        },
        os.path.join(out, "transform_report.json"),
    )
    return 0, (
        f"transform: residual l2 (density, gradient)=({res.l2_density:.3e}, "
        f"{res.l2_gradient:.3e}) roundtrip={roundtrip:.3e}"
    )


# subcommand -> (help text, command)
COMMANDS = {
    "run": ("step one configuration to t_final and emit state + diagnostics CSVs", _cmd_run),
    "converge": ("run the viscosity ladder and fit the convergence slope", _cmd_converge),
    "entropy-check": (
        "audit entropy balance, dissipation, and the positivity floor",
        _cmd_entropy_check,
    ),
    "self-converge": ("grid-refinement study at fixed physics", _cmd_self_converge),
    "transform": (
        "apply the gradient substitution to a chemotaxis trajectory CSV",
        _cmd_transform,
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chemoflux",
        description="Finite-difference laboratory for viscous chemotaxis "
        "conservation laws and their zero-viscosity limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output directory (default from config, else ./chemoflux_out)")
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
        if name == "converge":
            p.add_argument("--eps", default=None, help="comma list overriding eps_ladder")
    args = parser.parse_args(argv)
    name = args.command

    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
        if name == "transform" and cfg.ks_csv is None:
            raise ConfigError("ks_csv", 0, "transform needs a trajectory CSV path")
        if name == "converge" and cfg.t_final == 0.0:
            raise ConfigError("t_final", 0, "converge needs t_final > 0 to compare the rungs")
        if getattr(args, "eps", None) is not None:
            ladder = _convert("--eps", args.eps, 0, "floatlist")
            cfg.eps_ladder = _build(lambda: check_ladder(ladder), {}, {"eps_ladder": "--eps"})
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    # the echo is the config that runs: --eps and --out resolved into it
    out = args.out or cfg.out_dir or "chemoflux_out"
    cfg.out_dir = out
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "effective_config.cfg"), "w") as f:
            f.write(f"# chemoflux {name}\n" + emit_effective_config(cfg))
    except OSError as exc:
        print(f"cannot prepare output directory: {exc}", file=sys.stderr)
        return 3

    try:
        code, summary = COMMANDS[name][1](cfg, out)
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"run failure: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())

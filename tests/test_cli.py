"""Config parsing, deterministic emission, subcommands, and exit codes."""
import dataclasses
import json
import math
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemoflux.cli as cli
import chemoflux.stepping as stepping
from chemoflux.cli import (
    ConfigError,
    emit_effective_config,
    emit_report_json,
    main,
    parse_config,
    read_ks_trajectory_csv,
)
from chemoflux.convergence import ConvergenceReport, RungError
from chemoflux.model import Family, Kind, make_initial
from chemoflux.stepping import run

MINIMAL = "kind = ibvp\nepsilon = 0.05\nt_final = 0.5\n"

# all-finite configs whose data or grid spacing overflow to inf
OVERFLOWING_V0 = (
    "kind = ibvp\nepsilon = 0\nt_final = 0.1\nv_infinity = 1.7e308\namplitude_v = 1e307\n"
    "n_cells = 16\n"
)
OVERFLOWING_WIDTH = (
    "kind = cauchy\nepsilon = 0\nt_final = 0.1\nx_left = -1e308\nx_right = 1e308\nn_cells = 16\n"
)
# finite data that miss the wall condition, whose wall derivatives overflow to nan
NAN_WALL_DERIVATIVES = (
    "kind = ibvp\nepsilon = 0\nt_final = 0.01\nprofile = gaussian\namplitude_u = 0\n"
    "v_infinity = 1e308\namplitude_v = 5e307\nn_cells = 16\n"
)

# configs that every command but converge admits: its rungs could not differ
T_FINAL_ZERO = "kind = ibvp\nepsilon = 0.05\nt_final = 0\n"
REST_STATE = (
    "kind = ibvp\nepsilon = 0.05\nt_final = 0.01\nn_cells = 64\n"
    "amplitude_u = 0\namplitude_v = 0\n"
)

TINY_RUN = (
    "kind = ibvp\n"
    "epsilon = 0.05\n"
    "t_final = 0.01\n"
    "n_cells = 64\n"
    "dt = 0.0005\n"
    "stride = 5\n"
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -------------------------------------------------------------------- parsing


def test_parse_minimal_applies_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.kind is Kind.IBVP
    assert cfg.epsilon == 0.05
    assert cfg.profile is Family.COSINE_PAIR
    assert (cfg.x_left, cfg.x_right) == (0.0, 1.0)
    assert cfg.n_cells == 1024
    assert cfg.dt is None and cfg.cfl == 0.4
    assert cfg.stride == 1
    assert cfg.eps_ladder == (0.1, 0.05, 0.025, 0.0125)
    assert cfg.alpha_floor == pytest.approx(0.7)  # resolved, not left implicit


def test_parse_cauchy_defaults():
    cfg = parse_config("kind = cauchy\nepsilon = 0.1\nt_final = 0.5\n")
    assert cfg.kind is Kind.CAUCHY_TRUNCATED
    assert cfg.profile is Family.GAUSSIAN_BUMP
    assert (cfg.x_left, cfg.x_right) == (-20.0, 20.0)


def test_parse_comments_blanks_and_inline_comments():
    cfg = parse_config(
        "# experiment description\n\nkind = ibvp\nepsilon = 0.05 # small\n\nt_final = 0.5\n"
    )
    assert cfg.epsilon == 0.05


@pytest.mark.parametrize(
    "text,key,line_no",
    [
        (MINIMAL + "wibble = 3\n", "wibble", 4),
        (MINIMAL + "epsilon = 0.1\n", "epsilon", 4),  # duplicate
        ("kind = ibvp\nepsilon = fast\nt_final = 0.5\n", "epsilon", 2),
        ("kind = sphere\nepsilon = 0.05\nt_final = 0.5\n", "kind", 1),
        ("kind = ibvp\nepsilon = 0.05\nt_final = 0.5\nn_cells = 64.5\n", "n_cells", 4),
        ("kind = ibvp\nepsilon = 0.05\nt_final = 0.5\ndt =\n", "dt", 4),
        ("kind = ibvp\nepsilon = 0.05\nt_final = 0.5\nhello\n", "hello", 4),
        ("kind = ibvp\nepsilon = -0.1\nt_final = 0.5\n", "epsilon", 2),
        (MINIMAL + "dt = 1e-4\ncfl = 0.4\n", "dt", 4),
        (MINIMAL + "x_left = -1\n", "x_left", 4),
        (MINIMAL + "eps_ladder = 0.1,0.2,0.3\n", "eps_ladder", 4),
        (MINIMAL + "refine_levels = 0\n", "refine_levels", 4),
        (MINIMAL + "ks_epsilon = -1\n", "ks_epsilon", 4),
        (MINIMAL + "c_anchor = 1\n", "c_anchor", 4),  # removed key: now unknown
        (MINIMAL + "experiment = run\n", "experiment", 4),  # removed key: now unknown
        (MINIMAL + "alpha_floor = -0.9\n", "alpha_floor", 4),
        ("kind = ibvp\nepsilon = 0.05\nt_final = inf\n", "t_final", 3),
        (MINIMAL + "n_cells = 1e400\n", "n_cells", 4),
        (MINIMAL + "n_cells = inf\n", "n_cells", 4),
        (MINIMAL + "eps_ladder = 0.1,nan,0.01\n", "eps_ladder", 4),
        (MINIMAL + "eps_ladder = 0.1,0.05\n", "eps_ladder", 4),  # a slope fit needs 3
        (MINIMAL + "stride = 0\n", "stride", 4),
        ("kind = cauchy\nepsilon = 0.05\nt_final = 0.5\nwidth = 10\n", "width", 4),
        (MINIMAL + "profile = gaussian\n", "profile", 4),
        # the derived floor 1 - 1.5 is blamed on the key that set it
        (MINIMAL + "amplitude_v = 1.5\n", "amplitude_v", 4),
        (OVERFLOWING_V0, "amplitude_v", 5),
        (OVERFLOWING_WIDTH, "x_left", 4),
        (NAN_WALL_DERIVATIVES, "profile", 4),
    ],
)
def test_parse_rejects_bad_configs_naming_key_and_line(text, key, line_no):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.key == key
    assert info.value.line == line_no
    assert f"'{key}'" in str(info.value)
    assert f"(line {line_no})" in str(info.value)


# t_final = inf is covered at parse level above: through main, a regression
# would step until max_steps instead of failing
@pytest.mark.parametrize("extra", ["n_cells = 1e400\n", "eps_ladder = 0.1,nan,0.01\n"])
def test_exit_2_on_non_finite_config_values(tmp_path, capsys, extra):
    cfg_path = write(tmp_path, "bad.cfg", MINIMAL + extra)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    key = extra.split(" ", 1)[0]
    assert f"'{key}'" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "o"))


@pytest.mark.parametrize(
    "text, key, line_no",
    [
        (OVERFLOWING_V0, "amplitude_v", 5),
        (OVERFLOWING_WIDTH, "x_left", 4),
        (NAN_WALL_DERIVATIVES, "profile", 4),
    ],
    ids=["v0", "width", "nan-wall"],
)
def test_exit_2_on_finite_configs_that_overflow(tmp_path, capsys, text, key, line_no):
    cfg_path = write(tmp_path, "big.cfg", text)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"config error at '{key}' (line {line_no})" in capsys.readouterr().err
    assert not out.exists()


_EXTREMES = [0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308, 1e307]
_DATA_KEYS = ["v_infinity", "amplitude_u", "amplitude_v", "width", "x_left", "x_right", "alpha_floor"]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(["run", "converge"]),
    kind=st.sampled_from(["ibvp", "cauchy"]),
    values=st.dictionaries(st.sampled_from(_DATA_KEYS), st.sampled_from(_EXTREMES), max_size=4),
)
def test_parse_rejects_or_admits_finite_data_on_a_finite_grid(command, kind, values):
    text = f"kind = {kind}\nepsilon = 0\nt_final = 0.1\nn_cells = 16\n" + "".join(
        f"{k} = {v!r}\n" for k, v in values.items()
    )
    try:
        cfg = parse_config(text, command)
    except ConfigError:
        return
    grid = cli.build_grid(cfg)
    assert 0.0 < grid.dx < math.inf
    setup = cli.build_setup(cfg)
    state = make_initial(setup, grid)
    assert np.isfinite(state.u).all() and np.isfinite(state.v).all()
    assert (state.v > 0.0).all()
    if command == "converge":  # a ladder's rungs can differ from its baseline
        assert state.u.any() or not np.all(state.v == setup.v_infinity)


@pytest.mark.parametrize(
    "text, command, key, line_no",
    [
        (T_FINAL_ZERO, "converge", "t_final", 3),
        (REST_STATE, "converge", "amplitude_u", 5),
        (MINIMAL, "transform", "ks_csv", 0),  # the key is absent, so it has no line
    ],
    ids=["t_final-zero", "rest-state", "no-ks_csv"],
)
def test_parse_checks_what_the_command_needs(text, command, key, line_no):
    with pytest.raises(ConfigError) as info:
        parse_config(text, command)
    assert (info.value.key, info.value.line) == (key, line_no)
    # only that command needs it
    assert parse_config(text, "run") == parse_config(text)


def test_parse_rejects_an_unknown_command():
    with pytest.raises(ValueError, match="unknown command 'sweep'"):
        parse_config(MINIMAL, "sweep")


def test_a_grid_too_large_to_allocate_names_n_cells(tmp_path, capsys, monkeypatch):
    # no test allocates a huge grid: the refused allocation is simulated
    def refuse(setup, grid):
        raise MemoryError

    monkeypatch.setattr(cli, "make_initial", refuse)
    text = "kind = ibvp\nepsilon = 0\nt_final = 0.1\nn_cells = 1e12\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert (info.value.key, info.value.line) == ("n_cells", 4)
    out = tmp_path / "o"
    assert main(["run", "--config", write(tmp_path, "big.cfg", text), "--out", str(out)]) == 2
    assert "config error at 'n_cells' (line 4)" in capsys.readouterr().err
    assert not out.exists()


def test_parse_missing_required_key():
    with pytest.raises(ConfigError) as info:
        parse_config("kind = ibvp\nepsilon = 0.05\n")
    assert info.value.key == "t_final"
    assert "missing" in str(info.value)


# sets every key but cfl, which excludes dt: each parse type and each
# optional field round-trips
EVERY_KEY = (
    "kind = cauchy\nepsilon = 0.03\nv_infinity = 1.5\n"
    "alpha_floor = 1.1\nt_final = 0.25\nprofile = gaussian\namplitude_u = 0.2\n"
    "amplitude_v = 0.25\nwidth = 0.8\nx_left = -12.5\nx_right = 12.5\nn_cells = 96\n"
    "dt = 0.001\nmax_steps = 5000\nstride = 3\neps_ladder = 0.2,0.1,0.05\n"
    "refine_levels = 2\nks_d = 1.5\nks_chi = 0.5\nks_alpha = 2\nks_epsilon = 0.01\n"
    "ks_csv = traj.csv\nout_dir = results\n"
)


@pytest.mark.parametrize(
    "text",
    [MINIMAL + "stride = 7\neps_ladder = 0.2,0.1,0.05\n", EVERY_KEY],
    ids=["minimal", "every-key"],
)
def test_effective_config_roundtrip_and_stability(text):
    cfg = parse_config(text)
    text1 = emit_effective_config(cfg)
    cfg2 = parse_config(text1)
    assert cfg2 == cfg
    assert emit_effective_config(cfg2) == text1


def test_effective_config_echoes_keys_in_field_order():
    echoed = emit_effective_config(parse_config(EVERY_KEY))
    assert [ln.split(" = ")[0] for ln in echoed.splitlines()] == [
        f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "cfl"
    ]


def test_readme_config_table_names_exactly_the_config_fields():
    readme = pathlib.Path(os.path.dirname(__file__), "..", "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    named = set()
    for row in table.splitlines()[2:]:
        named.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    assert named == {f.name for f in dataclasses.fields(cli.RunConfig)}


def test_readme_diagnostics_columns_are_the_written_columns():
    readme = pathlib.Path(os.path.dirname(__file__), "..", "README.md").read_text()
    line = readme.split("`diagnostics.csv` columns:\n", 1)[1].split("\n", 1)[0]
    assert re.fullmatch(r"`([^`]*)`\.", line).group(1) == cli.DIAG_COLUMNS


def test_effective_config_emits_only_the_active_step_policy():
    assert "cfl = " in emit_effective_config(parse_config(MINIMAL))
    assert "dt = " not in emit_effective_config(parse_config(MINIMAL))
    with_dt = parse_config(MINIMAL + "dt = 1e-4\n")
    assert "dt = " in emit_effective_config(with_dt)
    assert "cfl = " not in emit_effective_config(with_dt)


# ------------------------------------------------------------- JSON emission


def test_report_json_serializes_enums_numpy_and_sorts_keys(tmp_path):
    path = str(tmp_path / "r.json")
    emit_report_json(
        {"kind": Kind.IBVP, "arr": np.arange(3.0), "val": np.float64(1.5), "n": np.int64(2)},
        path,
    )
    payload = json.loads(pathlib.Path(path).read_text())
    assert payload == {"kind": "ibvp", "arr": [0.0, 1.0, 2.0], "val": 1.5, "n": 2}
    with pytest.raises(TypeError):
        emit_report_json({"bad": object()}, str(tmp_path / "bad.json"))


# -------------------------------------------------------- trajectory CSV input


def trajectory_csv_text(n_cells=16, times=(0.0, 0.1, 0.2), uniform=True):
    lines = ["t,x,c,u"]
    for t in times:
        for i in range(n_cells + 1):
            x = i / n_cells
            if not uniform and i == 3:
                x += 0.01
            c = math.exp(-x)
            lines.append(f"{t:.17g},{x:.17g},{c:.17g},0")
    return "\n".join(lines) + "\n"


def test_read_trajectory_csv_happy_path(tmp_path):
    path = write(tmp_path, "traj.csv", trajectory_csv_text())
    states, grid = read_ks_trajectory_csv(path)
    assert len(states) == 3
    assert grid.n_nodes == 17
    assert [s.t for s in states] == [0.0, 0.1, 0.2]
    assert states[1].c[0] == 1.0
    # blank and whitespace-only lines are skipped wherever they sit
    lines = trajectory_csv_text().splitlines()
    for k in (30, 17, 1, 0):  # inside level 1, inside level 0, after the header, before it
        lines.insert(k, " \t " if k % 2 else "")
    spaced = write(tmp_path, "spaced.csv", "\n".join(lines) + "\n\n  \n")
    again, grid_again = read_ks_trajectory_csv(spaced)
    assert grid_again == grid
    assert [s.t for s in again] == [s.t for s in states]
    for a, b in zip(again, states):
        assert np.array_equal(a.c, b.c) and np.array_equal(a.u, b.u)


def drop_line(text, k):
    return "\n".join(ln for i, ln in enumerate(text.splitlines()) if i != k) + "\n"


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda t: t.replace("t,x,c,u", "time,x,c,u"), "header"),
        (lambda t: t + "0.3,0.0,1.0\n", "4 columns"),
        (lambda t: t + "0.3,zero,1.0,0\n", "cannot parse data line '0.3,zero,1.0,0'"),
        (lambda t: t.replace(",1,0.36787944117144233,0\n", ",1,0.36787944117144233,1_0\n"), "cannot parse"),
        (lambda t: t.replace(",0\n", ",0,\n"), "4 columns"),
        (lambda t: trajectory_csv_text(n_cells=4), "at least 9 nodes"),
        (lambda t: trajectory_csv_text(uniform=False), "uniformly spaced"),
        (lambda t: t.replace("\n0,0.5,", "\n0,nan,", 1), "uniformly spaced"),
        (lambda t: t.replace("\n0.20000000000000001,0.5,", "\n0.20000000000000001,nan,", 1), "t=0.2 has a different x grid"),
        (lambda t: drop_line(t, 20), "t=0.1 has a different x grid"),
        (lambda t: drop_line(t, 51), "t=0.2 has a different x grid"),
        (lambda t: trajectory_csv_text(times=(0.0, 0.1, 0.05)), "strictly increase"),
        (lambda t: trajectory_csv_text(times=(0.0, 0.1, 0.0)), "strictly increase"),
    ],
)
def test_read_trajectory_csv_rejects_malformed_input(tmp_path, mutate, match):
    path = write(tmp_path, "bad.csv", mutate(trajectory_csv_text()))
    with pytest.raises(ValueError, match=match) as info:
        read_ks_trajectory_csv(path)
    assert str(info.value).startswith(path + ":")


def test_read_trajectory_csv_rejects_header_only_file(tmp_path, capsys):
    path = write(tmp_path, "empty.csv", "t,x,c,u\n")
    with pytest.raises(ValueError, match="no data rows") as info:
        read_ks_trajectory_csv(path)
    assert path in str(info.value)
    cfg_path = write(tmp_path, "bridge.cfg", MINIMAL + f"ks_csv = {path}\n")
    assert main(["transform", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_read_trajectory_csv_accepts_other_line_ends_and_blank_lines_before_the_header(
    tmp_path, monkeypatch, newline
):
    # numpy reads these files whole: the line-by-line parse is not needed
    monkeypatch.setattr(cli, "_read_stripped_lines", lambda path: pytest.fail("numpy refused " + path))
    lf = write(tmp_path, "lf.csv", trajectory_csv_text())
    other = tmp_path / "other.csv"
    other.write_bytes((2 * newline + trajectory_csv_text().replace("\n", newline)).encode())
    (a, grid_a), (b, grid_b) = read_ks_trajectory_csv(lf), read_ks_trajectory_csv(str(other))
    assert grid_a == grid_b
    assert [s.t for s in a] == [s.t for s in b]
    for sa, sb in zip(a, b):
        assert sa.c.tobytes() == sb.c.tobytes() and sa.u.tobytes() == sb.u.tobytes()


def test_read_trajectory_csv_reads_line_by_line_only_what_numpy_refuses(tmp_path, monkeypatch):
    calls = []
    fallback = cli._read_stripped_lines
    monkeypatch.setattr(cli, "_read_stripped_lines", lambda path: calls.append(path) or fallback(path))
    clean = write(tmp_path, "clean.csv", trajectory_csv_text())
    read_ks_trajectory_csv(clean)
    assert calls == []
    spaced = write(tmp_path, "spaced.csv", trajectory_csv_text().replace("\n", "\n \n", 5))
    read_ks_trajectory_csv(spaced)
    assert calls == [spaced]


def test_read_trajectory_csv_reports_an_io_error_inside_numpy_as_cannot_read(tmp_path, monkeypatch, capsys):
    def unreadable(*args, **kwargs):
        raise PermissionError("denied")

    traj = write(tmp_path, "traj.csv", trajectory_csv_text())
    monkeypatch.setattr(cli.np, "loadtxt", unreadable)
    with pytest.raises(RuntimeError, match=f"cannot read {re.escape(traj)}: denied"):
        read_ks_trajectory_csv(traj)
    cfg_path = write(tmp_path, "bridge.cfg", MINIMAL + f"ks_csv = {traj}\n")
    assert main(["transform", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_read_trajectory_csv_reports_an_io_error_in_the_line_by_line_read_as_cannot_read(
    tmp_path, monkeypatch, capsys
):
    # numpy refuses the whitespace-only line, so the file is opened a second time
    traj = write(tmp_path, "traj.csv", trajectory_csv_text().replace("\n", "\n \n", 5))
    opened = []

    def second_open_fails(path, *args, **kwargs):
        if path == traj:
            opened.append(path)
            if len(opened) == 2:
                raise PermissionError("denied")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", second_open_fails, raising=False)
    cfg_path = write(tmp_path, "bridge.cfg", MINIMAL + f"ks_csv = {traj}\n")
    assert main(["transform", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert len(opened) == 2
    assert capsys.readouterr().err.startswith(f"run failure: cannot read {traj}: denied")


def big_trajectory_csv(tmp_path, levels, nodes):
    """A t,x,c,u CSV of `levels` time levels on `nodes` nodes of [0, 1]."""
    lines = ["t,x,c,u"]
    for j in range(levels):
        for i in range(nodes):
            x = i / (nodes - 1)
            lines.append(f"{j * 0.01:.17g},{x:.17g},{2.0 + math.cos(x) * math.exp(-j * 0.01):.17g},0")
    return write(tmp_path, "big.csv", "\n".join(lines) + "\n")


def test_read_trajectory_csv_peak_memory_stays_near_the_parsed_array(tmp_path):
    # 40 levels x 513 nodes: the parse is held to a small multiple of the
    # float64 array it returns, with no Python string per line alive at once
    levels, nodes = 40, 513
    path = big_trajectory_csv(tmp_path, levels, nodes)
    read_ks_trajectory_csv(path)  # warm numpy's and the reader's imports
    tracemalloc.start()
    try:
        states, _ = read_ks_trajectory_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(states) == levels
    # measured 1.37 reading by path with one grid-check buffer; 1.52 with
    # two grid-check temporaries, 4.4-4.7 with a stripped list of every line
    assert peak / (levels * nodes * 4 * 8) <= 1.45


def test_transform_peak_memory_allocates_each_trajectory_array_once(tmp_path):
    # at its peak transform holds the parsed (levels, n, 4) array, the u and v
    # of every transformed level and the two residual arrays: 1 + 1/2 + 1/2
    # of the parsed bytes, plus one level's temporaries and the read's own
    levels, nodes = 40, 513
    path = big_trajectory_csv(tmp_path, levels, nodes)
    cfg_path = write(tmp_path, "bridge.cfg", MINIMAL + f"ks_csv = {path}\n")
    argv = ["transform", "--config", cfg_path, "--quiet", "--out"]
    assert main(argv + [str(tmp_path / "warm")]) == 0  # warm the imports
    tracemalloc.start()
    try:
        assert main(argv + [str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 2.14; 2.84 with residual row lists, their np.array copies
    # and a full-size rows * rows; any one more full-size residual
    # temporary, such as np.abs(rows) for the max, gives about 2.36
    assert peak / (levels * nodes * 4 * 8) <= 2.3


def test_read_trajectory_csv_rejects_mismatched_levels(tmp_path):
    # second time level lives on a shifted grid
    lines = trajectory_csv_text(times=(0.0,)).splitlines()
    for i in range(17):
        x = i / 16 + 0.25
        lines.append(f"0.1,{x:.17g},1.0,0")
    path = write(tmp_path, "bad.csv", "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="different x grid"):
        read_ks_trajectory_csv(path)


# ------------------------------------------------------------------- run cmd


def test_run_end_to_end_files_and_bit_faithful_csv(tmp_path):
    cfg_path = write(tmp_path, "run.cfg", TINY_RUN)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out, "--quiet"]) == 0

    assert sorted(os.listdir(out)) == [
        "diagnostics.csv",
        "effective_config.cfg",
        "state_final.csv",
    ]
    state_lines = pathlib.Path(out, "state_final.csv").read_text().splitlines()
    assert state_lines[0] == "x,u,v"
    assert len(state_lines) == 1 + 65
    diag_lines = pathlib.Path(out, "diagnostics.csv").read_text().splitlines()
    assert diag_lines[0] == cli.DIAG_COLUMNS
    assert len(diag_lines) == 1 + 5  # initial + steps 5,10,15 + final step 20

    # the 17-digit CSV must reproduce the in-process result bit for bit
    cfg = parse_config(TINY_RUN)
    states, _ = zip(*run(cli.build_setup(cfg), cli.build_grid(cfg), cli.build_solver(cfg), cfg.stride))
    final = states[-1]
    rows = [ln.split(",") for ln in state_lines[1:]]
    u_csv = np.array([float(r[1]) for r in rows])
    v_csv = np.array([float(r[2]) for r in rows])
    assert np.array_equal(u_csv, final.u)
    assert np.array_equal(v_csv, final.v)


def test_run_outputs_are_bit_reproducible(tmp_path):
    cfg_path = write(tmp_path, "run.cfg", TINY_RUN)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg_path, "--out", out1, "--quiet"]) == 0
    assert main(["run", "--config", cfg_path, "--out", out2, "--quiet"]) == 0
    for name in ("state_final.csv", "diagnostics.csv"):
        assert (
            pathlib.Path(out1, name).read_bytes()
            == pathlib.Path(out2, name).read_bytes()
        )

    # re-running from the echoed effective config reproduces the run
    out3 = str(tmp_path / "c")
    echo = os.path.join(out1, "effective_config.cfg")
    assert main(["run", "--config", echo, "--out", out3, "--quiet"]) == 0
    for name in ("state_final.csv", "diagnostics.csv"):
        assert (
            pathlib.Path(out1, name).read_bytes()
            == pathlib.Path(out3, name).read_bytes()
        )


def test_run_summary_line_and_quiet(tmp_path, capsys):
    cfg_path = write(tmp_path, "run.cfg", TINY_RUN)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o1")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("run:") and "records=5" in out
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o2"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------- exit codes


def test_exit_2_on_bad_config_and_missing_file(tmp_path, capsys):
    bad = write(tmp_path, "bad.cfg", "kind = ibvp\nepsilon = -1\nt_final = 0.5\n")
    assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    assert "'epsilon'" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    # a floor above the sampled initial minimum is rejected at parse time
    high = write(tmp_path, "high.cfg", TINY_RUN + "alpha_floor = 0.9\n")
    assert main(["run", "--config", high, "--out", str(tmp_path / "oh")]) == 2
    assert "alpha_floor" in capsys.readouterr().err


def test_exit_3_when_the_run_cannot_finish(tmp_path, capsys):
    cfg_path = write(tmp_path, "stall.cfg", TINY_RUN + "max_steps = 1\n")
    out = str(tmp_path / "o")
    assert main(["run", "--config", cfg_path, "--out", out]) == 3
    assert "run failure" in capsys.readouterr().err
    # the effective config is still echoed before the run is attempted
    assert os.path.exists(os.path.join(out, "effective_config.cfg"))


def test_exit_3_when_out_is_a_regular_file(tmp_path, capsys):
    cfg_path = write(tmp_path, "run.cfg", TINY_RUN)
    out = write(tmp_path, "taken", "not a directory\n")
    assert main(["run", "--config", cfg_path, "--out", out]) == 3
    assert "cannot prepare output directory" in capsys.readouterr().err
    assert pathlib.Path(out).read_text() == "not a directory\n"


def test_exit_3_when_an_output_file_cannot_be_written(tmp_path, capsys):
    cfg_path = write(tmp_path, "run.cfg", TINY_RUN)
    out = tmp_path / "o"
    (out / "state_final.csv").mkdir(parents=True)
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("run failure: cannot write")


@pytest.mark.parametrize("command", ["run", "entropy-check"])
def test_exit_3_at_a_step_that_cannot_move_t(tmp_path, capsys, stall_after_first_step, command):
    cfg_path = write(tmp_path, "run.cfg", TINY_RUN)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "run failure" in err and "does not advance t" in err
    # at the first stalled step, before the next record
    assert len(stall_after_first_step) == 2


def test_exit_4_when_convergence_threshold_fails(tmp_path, monkeypatch, capsys):
    rows = tuple(
        RungError(eps=e, err_u=1e-3, err_v=1e-3, err_sum=2e-3, energy=5.0)
        for e in (0.1, 0.05, 0.025)
    )
    fake = ConvergenceReport(
        kind=Kind.CAUCHY_TRUNCATED,
        eps_ladder=(0.1, 0.05, 0.025),
        errors=rows,
        fitted_slope=0.2,  # far outside the linear window
        slope_ci=(0.1, 0.3),
        grid_meta={},
        baseline_meta={},
        errors_monotone=True,
    )
    monkeypatch.setattr(cli, "run_ladder", lambda *a, **k: fake)
    cfg_path = write(
        tmp_path, "ladder.cfg", "kind = cauchy\nepsilon = 0.05\nt_final = 0.1\nn_cells = 64\n"
    )
    out = str(tmp_path / "o")
    assert main(["converge", "--config", cfg_path, "--out", out]) == 4
    assert "FAIL" in capsys.readouterr().out
    payload = json.loads(pathlib.Path(out, "report.json").read_text())
    assert payload["passed"] is False
    assert payload["observed_slope"] == 0.2
    assert payload["requirement"] == "slope in [0.85, 1.15]"


def test_converge_takes_its_ladder_from_the_config_only(tmp_path, capsys):
    cfg_path = write(tmp_path, "ladder.cfg", MINIMAL)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        main(["converge", "--config", cfg_path, "--out", str(out), "--eps", "0.1,0.05,0.025"])
    assert info.value.code == 2
    assert "unrecognized arguments: --eps" in capsys.readouterr().err
    assert not out.exists()


def test_converge_rejects_t_final_zero_before_writing(tmp_path, capsys):
    # a ladder that never steps has no differences to fit a rate to
    cfg_path = write(tmp_path, "ladder.cfg", T_FINAL_ZERO)
    out = tmp_path / "o"
    assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 2
    assert "config error at 't_final' (line 3)" in capsys.readouterr().err
    assert not out.exists()


def test_converge_rejects_a_rest_state_ladder_before_any_step(tmp_path, capsys, monkeypatch):
    # every rung's error would be exactly 0: no rate to fit
    calls = []
    kernel = stepping.coupled_imex_step

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(stepping, "coupled_imex_step", counted)
    cfg_path = write(tmp_path, "rest.cfg", REST_STATE)
    out = tmp_path / "o"
    assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 2
    assert "config error at 'amplitude_u' (line 5)" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def test_converge_echoes_the_eps_ladder_that_ran(tmp_path, capsys):
    cfg_path = write(
        tmp_path,
        "ladder.cfg",
        "kind = ibvp\nepsilon = 0.05\nt_final = 0.01\nn_cells = 64\neps_ladder = 0.2,0.1,0.05\n",
    )
    first, again = str(tmp_path / "first"), str(tmp_path / "again")
    assert main(["converge", "--config", cfg_path, "--out", first]) == 0
    summary = capsys.readouterr().out
    echo = os.path.join(first, "effective_config.cfg")
    lines = pathlib.Path(echo).read_text().splitlines()
    assert lines[0] == "# chemoflux converge"
    assert "eps_ladder = 0.20000000000000001,0.10000000000000001,0.050000000000000003" in lines
    # the echo alone reproduces the run: same report, same summary line
    assert main(["converge", "--config", echo, "--out", again]) == 0
    assert capsys.readouterr().out == summary
    report = pathlib.Path(first, "report.json").read_bytes()
    assert json.loads(report)["eps_ladder"] == [0.2, 0.1, 0.05]
    assert pathlib.Path(again, "report.json").read_bytes() == report


# ------------------------------------------------------- remaining subcommands


def test_converge_mini_ladder_through_cli(tmp_path):
    cfg_path = write(
        tmp_path,
        "ladder.cfg",
        "kind = ibvp\nepsilon = 0.05\nt_final = 0.05\nn_cells = 64\neps_ladder = 0.1,0.05,0.025\n",
    )
    out = str(tmp_path / "o")
    assert main(["converge", "--config", cfg_path, "--out", out, "--quiet"]) == 0
    payload = json.loads(pathlib.Path(out, "report.json").read_text())
    assert payload["passed"] is True
    assert payload["requirement"] == "slope >= 0.7 and errors monotone"
    assert 0.8 <= payload["observed_slope"] <= 1.2
    assert payload["errors_monotone"] is True
    assert len(payload["errors"]) == 3


def test_converge_samples_the_ladder_at_the_config_stride(tmp_path):
    # 23 steps of the fixed dt, the last one clipped
    cfg_path = write(
        tmp_path,
        "ladder.cfg",
        "kind = ibvp\nepsilon = 0.05\nt_final = 0.0225\nn_cells = 64\ndt = 0.001\nstride = 3\n",
    )
    out = str(tmp_path / "o")
    assert main(["converge", "--config", cfg_path, "--out", out, "--quiet"]) in (0, 4)
    payload = json.loads(pathlib.Path(out, "report.json").read_text())
    assert payload["grid_meta"]["stride"] == 3
    assert payload["baseline_meta"]["n_records"] == -(-23 // 3) + 1
    assert "stride = 3\n" in pathlib.Path(out, "effective_config.cfg").read_text()


def test_entropy_check_through_cli(tmp_path):
    cfg_path = write(
        tmp_path,
        "audit.cfg",
        "kind = ibvp\nepsilon = 0.05\nt_final = 0.02\nn_cells = 64\n",
    )
    out = str(tmp_path / "o")
    assert main(["entropy-check", "--config", cfg_path, "--out", out, "--quiet"]) == 0
    payload = json.loads(pathlib.Path(out, "entropy_check.json").read_text())
    assert payload["entropy_nonincreasing"] is True
    assert payload["floor_passed"] is True
    assert payload["residual_l2"] < 1.0
    assert payload["residual_time"] > 0.02  # measured just past the horizon
    assert payload["far_field_ok"] is True  # always, between walls
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))


SINGLE_RUNS = {
    "walls": ("kind = ibvp\nepsilon = 0.05\nn_cells = 64\n", 0.02),
    "line, far field reached": (
        "kind = cauchy\nepsilon = 0.05\nx_left = -6\nx_right = 6\nn_cells = 128\n",
        2.0,
    ),
    "line, limit system": ("kind = cauchy\nepsilon = 0\nn_cells = 256\n", 0.5),
}


@pytest.mark.parametrize("zero_time", [False, True], ids=["t_final", "t_final=0"])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("name", sorted(SINGLE_RUNS))
def test_single_run_commands_match_run(tmp_path, monkeypatch, capsys, name, stride, zero_time):
    body, t_final = SINGLE_RUNS[name]
    text = body + f"t_final = {0.0 if zero_time else t_final}\nstride = {stride}\n"
    cfg = parse_config(text)
    setup = cli.build_setup(cfg)
    states, diags = zip(*run(setup, cli.build_grid(cfg), cli.build_solver(cfg), stride))
    far_field_ok = all(d.far_field_ok for d in diags)
    assert (len(states) == 1) == zero_time

    seen = {}

    def spy(attr, key):
        real = getattr(cli, attr)

        def wrapper(*args, **kw):
            seen[key] = args[0]
            return real(*args, **kw)

        monkeypatch.setattr(cli, attr, wrapper)

    spy("emit_diagnostics_csv", "diags")
    spy("emit_state_csv", "final")  # run's final state
    spy("entropy_residual", "final")  # entropy-check's final state
    final = states[-1]
    path = write(tmp_path, "run.cfg", text)
    for command in ("run", "entropy-check"):
        seen.clear()
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0
        assert seen["diags"] == list(diags)
        assert seen["final"].t == final.t
        assert seen["final"].u.tobytes() == final.u.tobytes()
        assert seen["final"].v.tobytes() == final.v.tobytes()
        summary = capsys.readouterr().out
        if setup.kind is Kind.CAUCHY_TRUNCATED:
            assert f"far_field_ok={far_field_ok}" in summary
        else:
            assert "far_field_ok" not in summary
    report = json.loads((tmp_path / "entropy-check" / "entropy_check.json").read_text())
    assert report["far_field_ok"] is far_field_ok
    if name == "line, far field reached" and not zero_time:
        assert far_field_ok is False


LINE_FAR_FIELD = {
    # the v bump diffuses into the outer tenth of [-6, 6] by t = 3
    "far field lost": (
        "kind = cauchy\nepsilon = 0\nt_final = 3\nx_left = -6\nx_right = 6\n"
        "width = 0.9\nn_cells = 256\nstride = 1\n",
        False,
    ),
    "default line": ("kind = cauchy\nepsilon = 0.05\nt_final = 0.5\n", True),
}


@pytest.mark.parametrize("name", sorted(LINE_FAR_FIELD))
def test_entropy_check_reports_far_field_contact(tmp_path, capsys, name):
    text, expected = LINE_FAR_FIELD[name]
    path = write(tmp_path, "line.cfg", text)
    for command in ("run", "entropy-check"):
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f" far_field_ok={expected}")
    report = json.loads((tmp_path / "entropy-check" / "entropy_check.json").read_text())
    assert report["far_field_ok"] is expected


def test_entropy_check_memory_does_not_grow_with_the_record_count(tmp_path):
    n_cells = 1024

    def entropy_check(steps):
        text = (
            f"kind = ibvp\nepsilon = 0.05\nn_cells = {n_cells}\ndt = 1e-4\nstride = 1\n"
            f"t_final = {(steps - 0.5) * 1e-4!r}\n"
        )
        path = write(tmp_path, f"steps{steps}.cfg", text)
        assert main(["entropy-check", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def peak(steps):
        tracemalloc.start()
        try:
            entropy_check(steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    entropy_check(3)  # warm the lazy imports and caches outside the measurement
    short, long = peak(123), peak(245)
    # fewer bytes per extra record than one recorded state holds
    assert (long - short) / (245 - 123) < 16 * (n_cells + 1)


def test_self_converge_through_cli(tmp_path):
    cfg_path = write(
        tmp_path,
        "refine.cfg",
        "kind = ibvp\nepsilon = 0.05\nt_final = 0.01\nn_cells = 64\nrefine_levels = 2\n",
    )
    out = str(tmp_path / "o")
    assert main(["self-converge", "--config", cfg_path, "--out", out, "--quiet"]) == 0
    payload = json.loads(pathlib.Path(out, "self_convergence.json").read_text())
    assert payload["slope_applicable"] is True
    assert 1.5 <= payload["slope"] <= 2.5
    assert len(payload["table"]) == 2
    assert payload["table"][0]["n_coarse"] == 64


def test_transform_through_cli(tmp_path):
    traj = write(tmp_path, "traj.csv", trajectory_csv_text())
    cfg_path = write(
        tmp_path,
        "bridge.cfg",
        MINIMAL + f"ks_csv = {traj}\nks_d = 2\nks_chi = 2\nks_alpha = 4\nks_epsilon = 1\n",
    )
    out = str(tmp_path / "o")
    assert main(["transform", "--config", cfg_path, "--out", out, "--quiet"]) == 0
    payload = json.loads(pathlib.Path(out, "transform_report.json").read_text())
    # static c = exp(-x) has a constant unit gradient: an exact steady solution
    assert payload["l2_gradient"] <= 1e-9
    assert payload["l2_density"] == 0.0
    assert payload["roundtrip_max_rel_error"] <= 1e-12
    assert payload["n_time_levels"] == 3
    assert payload["rescale"] == {
        "D_t": 1.0,
        "eps_t": 0.5,
        "space_factor": math.sqrt(2.0),
        "time_factor": 4.0,
        "v_factor": math.sqrt(2.0),
    }
    lines = pathlib.Path(out, "transformed_final.csv").read_text().splitlines()
    assert lines[0] == "x,u,v"
    v = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert np.max(np.abs(v - 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "mutate,match",
    [
        # a level that KSState rejects: c <= 0 or non-finite
        (lambda t: t.replace(",1,0.36787944117144233,0\n", ",1,0,0\n", 1), "strictly positive"),
        (lambda t: t.replace(",1,0.36787944117144233,0\n", ",1,-0.5,0\n", 1), "strictly positive"),
        (lambda t: t.replace(",1,0.36787944117144233,0\n", ",1,nan,0\n", 1), "non-finite"),
        (lambda t: t.replace(",1,0.36787944117144233,0\n", ",1,inf,0\n", 1), "non-finite"),
        # every row parses, as 3 columns: the first row is quoted
        (
            lambda t: re.sub(r",0$", "", t, flags=re.M),
            "cannot parse data line '0,0,1' as 4 columns",
        ),
    ],
)
def test_transform_rejects_invalid_levels_naming_the_file(tmp_path, capsys, mutate, match):
    traj = write(tmp_path, "traj.csv", mutate(trajectory_csv_text()))
    cfg_path = write(tmp_path, "bridge.cfg", MINIMAL + f"ks_csv = {traj}\n")
    assert main(["transform", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation failure: {traj}: ")
    assert match in err


def test_transform_error_paths(tmp_path, capsys):
    # missing ks_csv key
    cfg_path = write(tmp_path, "bridge.cfg", MINIMAL)
    assert main(["transform", "--config", cfg_path, "--out", str(tmp_path / "o1")]) == 2
    assert "ks_csv" in capsys.readouterr().err
    assert not (tmp_path / "o1").exists()  # rejected before anything is written
    # ks_csv points at a file that does not exist: an IO failure, not validation
    cfg_path = write(tmp_path, "bridge2.cfg", MINIMAL + "ks_csv = missing.csv\n")
    assert main(["transform", "--config", cfg_path, "--out", str(tmp_path / "o2")]) == 3
    assert "cannot read" in capsys.readouterr().err
    # malformed trajectory: validation
    bad = write(tmp_path, "bad.csv", trajectory_csv_text(uniform=False))
    cfg_path = write(tmp_path, "bridge3.cfg", MINIMAL + f"ks_csv = {bad}\n")
    assert main(["transform", "--config", cfg_path, "--out", str(tmp_path / "o3")]) == 2
    assert "uniformly spaced" in capsys.readouterr().err
    # too few time levels: validation
    short = write(tmp_path, "short.csv", trajectory_csv_text(times=(0.0, 0.1)))
    cfg_path = write(tmp_path, "bridge4.cfg", MINIMAL + f"ks_csv = {short}\n")
    assert main(["transform", "--config", cfg_path, "--out", str(tmp_path / "o4")]) == 2
    err = capsys.readouterr().err
    assert "3 time levels" in err and short in err

"""The package namespace re-exports exactly the submodules' public names,
a run loads nothing beyond numpy, and the README's API example and
command lines run."""
import math
import os
import pathlib
import subprocess
import sys

import chemoflux
from chemoflux import cli, convergence, diagnostics, ksbridge, model, stepping


def test_package_exports_are_the_submodules_exports():
    modules = (model, stepping, diagnostics, convergence, ksbridge)
    expected = [name for mod in modules for name in mod.__all__]
    assert list(chemoflux.__all__) == expected
    assert len(set(expected)) == len(expected)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(chemoflux, name) is getattr(mod, name)


def test_run_imports_no_optional_dependency(tmp_path):
    """scipy and numba are not dependencies: a run must not import either."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = ibvp\nepsilon = 0.05\nt_final = 0.01\nn_cells = 32\n")
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
    code = (
        "import sys\n"
        "from chemoflux.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print([m for m in ('scipy', 'numba') if m in sys.modules])\n"
    )
    src = str(pathlib.Path(chemoflux.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_readme_python_api_example_runs():
    """The README's "Python API" code block runs as written."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("## Python API", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, f"{readme}:Python API", "exec"), namespace)
    assert namespace["ok"] and namespace["floor"].passed
    assert 0.7 <= namespace["report"].fitted_slope


# tiny configs for the README's command lines, by the file name each line uses
README_CONFIGS = {
    "run.cfg": "kind = ibvp\nepsilon = 0.05\nt_final = 0.01\nn_cells = 32\n",
    "ladder.cfg": (
        "kind = ibvp\nepsilon = 0.05\nt_final = 0.05\nn_cells = 64\neps_ladder = 0.1,0.05,0.025\n"
    ),
    "refine.cfg": "kind = ibvp\nepsilon = 0.05\nt_final = 0.01\nn_cells = 16\nrefine_levels = 2\n",
    "transform.cfg": "kind = ibvp\nepsilon = 0\nt_final = 0\nks_csv = traj.csv\n",
}


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Each `chemoflux ...` line of the README's command-line block runs as
    written and exits 0, on a tiny config of the file name it uses, from a
    directory under tmp_path that holds those configs and its outputs."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln.split() for ln in block.splitlines() if ln.startswith("chemoflux ")]
    assert [argv[1] for argv in lines] == list(cli.COMMANDS)
    for name, text in README_CONFIGS.items():
        (tmp_path / name).write_text(text)
    # a 17-node, 3-level chemotaxis trajectory: c = exp(-x), u = 0
    rows = [f"{t},{i / 16!r},{math.exp(-i / 16)!r},0" for t in (0.0, 0.1, 0.2) for i in range(17)]
    (tmp_path / "traj.csv").write_text("\n".join(["t,x,c,u", *rows]) + "\n")
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, " ".join(argv) + ": " + capsys.readouterr().err

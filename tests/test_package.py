"""The package namespace re-exports exactly the submodules' public names,
a run loads nothing beyond numpy, and the README's API example runs."""
import os
import pathlib
import subprocess
import sys

import chemoflux
from chemoflux import convergence, diagnostics, ksbridge, model, stepping


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

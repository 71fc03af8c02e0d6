"""The package namespace re-exports exactly the submodules' public names,
and a run loads nothing beyond numpy."""
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
    """scipy and numba are not dependencies, and the Thomas solver is a test
    oracle only: a run must not import any of them."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = ibvp\nepsilon = 0.05\nt_final = 0.01\nn_cells = 32\n")
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
    code = (
        "import sys\n"
        "from chemoflux.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print([m for m in ('scipy', 'numba', 'chemoflux.tridiag') if m in sys.modules])\n"
    )
    src = str(pathlib.Path(chemoflux.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

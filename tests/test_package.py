"""The package namespace re-exports exactly the submodules' public names."""
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

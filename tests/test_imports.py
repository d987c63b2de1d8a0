"""Package hygiene: every module imports cleanly and exports what it says.

Guards against broken re-export lists, circular imports, and modules with
import-time side effects (e.g. an entry point that runs on import).
"""

import importlib
import pkgutil

import pytest

import repro


def all_module_names():
    names = ["repro"]
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(module.name)
    return names


@pytest.mark.parametrize("name", all_module_names())
def test_module_imports_cleanly(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", [
    "repro", "repro.core", "repro.crypto", "repro.mechanisms",
    "repro.network", "repro.scheduling", "repro.analysis",
])
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), "%s.%s missing" % (name, symbol)


def test_subpackages_reachable_from_top_level():
    import repro.analysis
    import repro.core
    import repro.crypto
    import repro.mechanisms
    import repro.network
    import repro.scheduling
    import repro.serialization


def test_version_is_set():
    assert repro.__version__

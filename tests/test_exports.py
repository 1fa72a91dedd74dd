"""Every module's ``__all__`` names what the module really defines.

A name deleted from a module but left in its ``__all__`` fails no
other test, yet breaks ``from module import *``.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"
)


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    repeated = sorted({entry for entry in exported if exported.count(entry) > 1})
    assert not repeated, f"{name}.__all__ repeats {repeated}"

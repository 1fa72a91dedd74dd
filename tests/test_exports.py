"""Every module's ``__all__`` names what the module really defines,
and no public signature takes back a setting that is now a constant.

A name deleted from a module but left in its ``__all__`` fails no
other test, yet breaks ``from module import *``.
"""

import dataclasses
import importlib
import inspect
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


#: parameters of settings the paper fixes (one device, one serial host)
#: or that only restate another door: each is a constant or a ``with
#: observing(obs):`` block, never a keyword
FIXED_SETTINGS = {"cost_params", "cpu", "observe"}


def _public_callables():
    """(qualified name, callable) for every public function, class and
    method defined under :mod:`repro`."""
    for name in ["repro", *MODULES]:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", obj
            elif inspect.isclass(obj):
                yield f"{name}.{attr}", obj
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_"):
                        continue
                    method = getattr(method, "__func__", method)
                    if inspect.isfunction(method):
                        yield f"{name}.{attr}.{method_name}", method


def test_no_public_callable_takes_a_fixed_setting():
    offenders = []
    for qualname, obj in _public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        hits = sorted(FIXED_SETTINGS & set(parameters))
        if hits:
            offenders.append(f"{qualname}({', '.join(hits)})")
    assert not offenders, f"fixed settings still taken as parameters: {offenders}"


def test_guard_config_keeps_the_run_settings_only():
    from repro.reliability import GuardConfig

    assert [f.name for f in dataclasses.fields(GuardConfig)] == [
        "max_retries",
        "deadline_s",
        "max_iterations",
        "checkpoint_every",
        "mem_budget",
    ]

"""Package exports are lazy tables that resolve to the same values
however the package was reached.

Every package ``__init__`` serves its ``__all__`` through
:func:`repro._util.lazy_exports`. The pitfall these tests guard: a
public name equal to one of its package's submodules
(``repro.apps.called_once``, ``repro.types.unify``) is shadowed by the
submodule object once that submodule is imported, and the lazy hook
never runs, so such names must be bound eagerly.
"""

import importlib
import inspect
import json
import pkgutil
import types

import pytest

import repro
from tests.helpers import EXAMPLE, run_python

PACKAGES = [
    "repro",
    *sorted(
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ),
]

#: Exports that are modules on purpose.
MODULE_EXPORTS = {("repro", "daemon")}


def import_every_submodule():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def describe(value):
    """A process-independent identity for an exported value."""
    if isinstance(value, types.ModuleType):
        return ["module", value.__name__]
    owner = getattr(value, "__module__", None)
    name = getattr(value, "__qualname__", None)
    if owner is not None and name is not None:
        return [owner, name]
    return ["value", repr(value)]


def test_every_package_is_covered():
    assert len(PACKAGES) == 15
    assert "repro.lint" in PACKAGES and "repro.workloads" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
class TestExportIntegrity:
    def test_names_resolve_after_every_submodule_loaded(self, package):
        import_every_submodule()
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            if (package, name) in MODULE_EXPORTS:
                assert isinstance(value, types.ModuleType)
                continue
            assert not isinstance(value, types.ModuleType), (
                f"{package}.{name} resolves to a module: a submodule "
                "of the same name shadows the lazy export"
            )

    def test_dir_lists_all(self, package):
        module = importlib.import_module(package)
        assert set(dir(module)) >= set(module.__all__)

    def test_unknown_name_is_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(module, "no_such_export")


def test_fresh_process_resolves_the_same_values():
    """Resolving through the hooks from a cold start gives the values
    a fully loaded process sees."""
    script = (
        "import importlib, json, types\n"
        + inspect.getsource(describe)
        + "out = {}\n"
        f"for package in {PACKAGES!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    out[package] = {n: describe(getattr(module, n))\n"
        "                    for n in module.__all__}\n"
        "print(json.dumps(out))\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    fresh = json.loads(done.stdout)
    import_every_submodule()
    for package in PACKAGES:
        module = importlib.import_module(package)
        loaded = {n: describe(getattr(module, n)) for n in module.__all__}
        assert fresh[package] == loaded, package


def test_lint_no_longer_exports_sanitize():
    import repro.lint

    assert "sanitize" not in repro.lint.__all__
    assert "SanitizeReport" not in repro.lint.__all__
    from repro.lint.sanitize import SanitizeReport, sanitize

    assert repro.sanitize is sanitize
    assert SanitizeReport.__module__ == "repro.lint.sanitize"


def test_sanitize_runs_as_main_without_warnings():
    """No package import pulls in repro.lint.sanitize, so runpy never
    warns that it was found in sys.modules before execution."""
    done = run_python("-W", "error", "-m", "repro.lint.sanitize", str(EXAMPLE))
    assert done.returncode == 0, done.stderr
    assert "sanitize: ok" in done.stdout + done.stderr

"""A request loads only the layers it uses.

Count-based and machine-independent: each check runs in a fresh
interpreter and inspects ``sys.modules``, never a clock. To see where
start-up time goes, run ``python -X importtime -m repro analyze FILE``.
"""

import json

from tests.helpers import EXAMPLE, run_python


def loaded_after(script):
    """The module names a fresh interpreter holds after ``script``."""
    done = run_python(
        "-c", script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def under(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_cli_import_loads_no_engine():
    modules = loaded_after("import repro.cli")
    for package in ("repro.core", "repro.types", "repro.lang.parser"):
        assert under(modules, package) == [], package


def test_analyze_and_lint_skip_service_layers():
    script = (
        "import contextlib, io\n"
        "import repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert repro.cli.main(['analyze', '--json', {str(EXAMPLE)!r}]) == 0\n"
        f"    assert repro.cli.main(['lint', '--format', 'json', {str(EXAMPLE)!r}]) in (0, 1)\n"
    )
    modules = loaded_after(script)
    assert "repro.lint.engine" in modules  # the requests really ran
    for package in (
        "multiprocessing",
        "concurrent.futures",
        "asyncio",
        "socket",
        "repro.serve",
        "repro.daemon",
        "repro.rules",
        "repro.session",
        "repro.obs.live",
        "repro.obs.tracetools",
        "repro.obs.baseline",
        "repro.lang.eval",
    ):
        assert under(modules, package) == [], package


def test_pool_preloads_everything_a_job_imports():
    """Fork-started workers inherit what the pool module imported, so
    no job's clock pays for importing the engine: running a job of
    every option and example after ``import repro.serve.pool`` loads
    no further module."""
    script = (
        "import glob, sys\n"
        "import repro.serve.pool\n"
        "from repro.serve.cache import canonical_options\n"
        "from repro.serve.worker import run_job\n"
        "before = set(sys.modules)\n"
        "for options, profile in (\n"
        "    ({'algorithm': 'hybrid', 'lint': True, 'sanitize': True,\n"
        "      'audit': True}, False),\n"
        "    ({'algorithm': 'subtransitive', 'lint': True}, True),\n"
        "    ({'algorithm': 'standard', 'lint': True}, False),\n"
        "):\n"
        "    for path in sorted(glob.glob('examples/*.lam')):\n"
        "        with open(path) as handle:\n"
        "            source = handle.read()\n"
        "        response = run_job({'jid': 0, 'source': source,\n"
        "                            'options': canonical_options(options),\n"
        "                            'profile': profile})\n"
        "        assert response['status'] in ('ok', 'degraded'), response\n"
        "print('new:', sorted(set(sys.modules) - before))\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "new: []"

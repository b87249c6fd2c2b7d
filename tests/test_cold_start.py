"""A cold start imports only what the command runs.

``python -m repro run-ba`` at n=4 does almost no protocol work, so its
cost is the interpreter and the import chain.  Every package re-exports
lazily and every CLI handler imports its own dependencies, so the run
loads neither numpy (its adversary draws nothing and its 12-chain EIG
state takes the reference sweep) nor the packages it does not use.
These checks run in fresh interpreters: in this one, other tests have
long since imported everything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.adversary.byzantine import standard_adversary_makers
from repro.cli import ADVERSARY_CHOICES

#: Run ``python -m repro ARGV``, then report the modules it loaded —
#: listed before the report's own ``json`` import.
_PROBE = textwrap.dedent("""
    import runpy, sys
    sys.argv = ["repro"] + sys.argv[1:]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code
    else:
        code = 0
    modules = sorted(sys.modules)
    import json
    print(json.dumps({"code": code, "modules": modules}))
""")

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: The most ``repro`` source lines ``run-ba --t 1`` may load (7,208 when
#: set, 8,778 before the event log, renderer, trace, gallery table and
#: automaton code left its path): a new module-level import that drags
#: a large module back onto the cold path fails here.
RUN_BA_LINE_CEILING = 7300


def source_lines(modules):
    """Lines of source the ``repro`` modules among ``modules`` hold."""
    total = 0
    for name in modules:
        if name.split(".")[0] != "repro":
            continue
        path = os.path.join(SRC, *name.split("."))
        if os.path.isdir(path):
            path = os.path.join(path, "__init__")
        with open(path + ".py", encoding="utf-8") as handle:
            total += len(handle.read().splitlines())
    return total


def cold_modules(*argv):
    """``(stdout lines, loaded modules)`` of ``python -m repro *argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    *lines, report = done.stdout.splitlines()
    probe = json.loads(report)
    assert probe["code"] == 0, done.stdout + done.stderr
    return lines, set(probe["modules"])


def test_run_ba_loads_no_numpy_and_no_unused_package():
    lines, modules = cold_modules(
        "run-ba", "--t", "1", "--adversary", "equivocator"
    )
    assert "message bits: 104" in lines
    unused = {
        "numpy",
        "repro.agreement",
        "repro.analysis.compare",
        "repro.fuzz",
        "repro.obs.export",
        "repro.obs.rollup",
        "repro.obs.events",
        "repro.runtime.render",
        "repro.runtime.trace",
        "repro.runtime.message",
        "repro.analysis",
        "repro.core.predicates",
        "repro.core.automaton",
        "hashlib",
        "json",
    }
    assert modules & unused == set()
    assert source_lines(modules) <= RUN_BA_LINE_CEILING


def test_help_imports_no_protocol_package():
    lines, modules = cold_modules("--help")
    assert any("run-ba" in line for line in lines)
    assert {name for name in modules if name.split(".")[0] == "repro"} == {
        "repro", "repro.cli", "repro.errors",
    }
    assert "numpy" not in modules


def test_adversary_choices_are_the_gallery():
    assert ADVERSARY_CHOICES == ("none",) + tuple(
        name for name, _maker in standard_adversary_makers()
    )


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


@pytest.mark.parametrize(
    "package", list(_packages()), ids=lambda package: package.__name__
)
def test_every_exported_name_resolves(package):
    assert package.__all__
    for name in package.__all__:
        getattr(package, name)
        assert name in dir(package)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")

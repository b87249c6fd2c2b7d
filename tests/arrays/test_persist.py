"""The inert ``repro.arrays.persist`` stub and ``sweep``'s ``cache=``.

The cross-run disk cache is gone; what is left exists only because the
frozen ``benchmarks/perf`` harness still names it.  These tests keep
the stub exactly that small — its names are the harness's references,
no more — and prove that none of it does anything.
"""

import ast
import os
import pathlib
import pickle
import subprocess
import sys

from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.arrays import persist
from repro.core.predicates import byzantine_agreement_predicate
from repro.fullinfo.decision import make_eig_decision_rule
from repro.fullinfo.protocol import full_information_factory
from repro.types import SystemConfig

ROOT = pathlib.Path(__file__).resolve().parents[2]


def defined_names(path):
    """Public names a module defines at top level (imports excluded)."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                target.id for target in node.targets
                if isinstance(target, ast.Name)
            )
    return {name for name in names if not name.startswith("_")}


def benchmark_references():
    """Every ``persist.<attr>`` the benchmark harness reads."""
    found = set()
    for path in sorted((ROOT / "benchmarks" / "perf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "persist"
            ):
                found.add(node.attr)
    return found


def test_stub_names_are_exactly_the_benchmark_references():
    stub = pathlib.Path(persist.__file__)
    assert defined_names(stub) == benchmark_references()
    assert len(stub.read_text().splitlines()) <= 30


def run_sweep(**kwargs):
    config = SystemConfig(n=4, t=1)
    return sweep(
        full_information_factory(
            (0, 1), decision_rule=make_eig_decision_rule(1, 0, (0, 1)),
            horizon=2,
        ),
        config,
        input_patterns=[{1: 0, 2: 1, 3: 0, 4: 1}, {1: 1, 2: 1, 3: 1, 4: 0}],
        fault_sets=[(4,), (2,)],
        adversary_makers=standard_adversary_makers((0, 1))[:3],
        seeds=(0,),
        predicate=byzantine_agreement_predicate(),
        max_rounds=2,
        workers=1,
        **kwargs,
    )


class TestByteIdentity:
    def test_cold_warm_and_disabled_runs_are_pickle_equal(self, tmp_path):
        directory = tmp_path / "c"
        plain = run_sweep()
        cold = run_sweep(cache=directory)
        with persist.using_cache(directory):
            persist.forget_caches()
            warm = run_sweep(cache=directory)
        disabled = run_sweep(cache=False)
        assert not directory.exists()
        assert list(tmp_path.iterdir()) == []
        assert (
            pickle.dumps(plain) == pickle.dumps(cold)
            == pickle.dumps(warm) == pickle.dumps(disabled)
        )


def run_repro(*argv, **env):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in [environment.get("PYTHONPATH")] if p]
    )
    environment.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=environment, cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )


def test_run_ba_ignores_the_old_cache_variable(tmp_path):
    directory = tmp_path / "cache"
    argv = ("run-ba", "--t", "1", "--seed", "3")
    plain = run_repro(*argv)
    cached = run_repro(*argv, **{persist.CACHE_ENV: str(directory)})
    assert plain.returncode == cached.returncode == 0
    assert cached.stdout == plain.stdout
    assert not directory.exists()


def test_cache_subcommand_is_gone():
    assert run_repro("cache", "stats").returncode == 2

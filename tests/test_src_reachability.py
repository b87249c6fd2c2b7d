"""``src/repro`` holds only what the system runs.

A public top-level ``def`` or ``class`` in ``src/repro`` is *live*
when name references in code reach it from a root, following the
bodies of the definitions they reach.  The roots are ``repro/cli.py``,
``repro/__main__.py``, the module-level statements of every
non-``__init__`` module, and every ``.py`` under ``benchmarks/``,
``examples/`` and ``tools/``.  A package ``__init__``'s export table
is not a root: it re-exports whatever exists.

A reference is an ``ast.Name``, an attribute name, an import alias or
an identifier-shaped string constant (``CATALOG_EXEMPT`` keys,
``getattr`` names); docstrings and comments are not code.  Matching is
by name, not by resolved binding, so the scan errs towards "live".

Test-only code belongs in ``tests/``, as a reference oracle beside the
tests that compare against it (``tests/fullinfo/reference_full_information.py``,
``tests/runtime/reference_async.py``).
"""

import ast
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]

#: ``"module:name"`` -> the ROADMAP item whose ``src/`` code will call
#: it.  At most three entries; each says why it may wait.
ALLOWED: Dict[str, str] = {}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_CALLER_DIRS = ("benchmarks", "examples", "tools")


def _strip_docstring(body: List[ast.stmt]) -> List[ast.stmt]:
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1:]
    return body


def _docstring_free(node: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``node``, skipping docstring expressions."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for field, value in ast.iter_fields(current):
            if field == "body" and isinstance(
                current,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                value = _strip_docstring(value)
            if isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.AST))
            elif isinstance(value, ast.AST):
                stack.append(value)


def references(node: ast.AST) -> Set[str]:
    """The names ``node``'s code mentions."""
    names: Set[str] = set()
    for sub in _docstring_free(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
            if sub.asname:
                names.add(sub.asname)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _IDENTIFIER.match(sub.value):
                names.add(sub.value)
    return names


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_level(definition: ast.AST) -> List[ast.AST]:
    """The parts of a top-level definition Python runs at import."""
    parts: List[ast.AST] = list(definition.decorator_list)
    if isinstance(definition, ast.ClassDef):
        parts += definition.bases + [k.value for k in definition.keywords]
    else:
        parts += definition.args.defaults
        parts += [d for d in definition.args.kw_defaults if d is not None]
    return parts


def unreachable(root: Path) -> List[str]:
    """``"module:name"`` for every public definition no root reaches.

    ``root`` holds ``src/repro`` and, optionally, the caller
    directories.
    """
    package = root / "src" / "repro"
    bodies: Dict[str, List[Tuple[str, ast.AST]]] = {}
    seeds: Set[str] = set()
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name in ("cli.py", "__main__.py") and path.parent == package:
            seeds |= references(tree)  # the whole file runs
            continue
        for statement in _strip_docstring(tree.body):
            if not isinstance(statement, _DEFINITIONS):
                if path.name != "__init__.py":
                    seeds |= references(statement)
                continue
            if path.name != "__init__.py":
                for part in _module_level(statement):
                    seeds |= references(part)
            # Private helpers are followed too (only when reached), so
            # a def that only a dead def's helper calls is dead as well.
            bodies.setdefault(statement.name, []).append((module, statement))
    for directory in _CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            seeds |= references(ast.parse(path.read_text(encoding="utf-8")))

    reached: Set[str] = set()
    frontier = list(seeds)
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, definition in bodies.get(name, ()):
            frontier.extend(references(definition) - reached)

    return sorted(
        f"{module}:{name}"
        for name, definitions in bodies.items()
        if name not in reached and not name.startswith("_")
        for module, _ in definitions
    )


@pytest.fixture(scope="module")
def repo_scan() -> List[str]:
    return unreachable(REPO)


def test_every_public_src_definition_is_reached(repo_scan):
    dead = [entry for entry in repo_scan if entry not in ALLOWED]
    assert dead == [], (
        "public src/repro definitions that nothing but tests reach; move "
        "each to tests/ or delete it:\n  " + "\n  ".join(dead)
    )


def test_allowlist_is_short_and_current(repo_scan):
    assert len(ALLOWED) <= 3
    stale = sorted(entry for entry in ALLOWED if entry not in repo_scan)
    assert stale == [], f"allowlisted but now reached: {stale}"
    assert all("ROADMAP item" in reason for reason in ALLOWED.values())


def _plant(tmp_path: Path, files: Dict[str, str]) -> Path:
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


def test_negative_control_flags_planted_dead_code(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/__init__.py": '''
            """Export tables are not roots."""
            EXPORTS = {"kernel": ("uncalled", "live")}
        ''',
        "src/repro/cli.py": '''
            from repro.kernel import live

            def main():
                return live()
        ''',
        "src/repro/kernel.py": '''
            """A docstring naming only_via_dead is not a call."""

            def live():
                return helper()

            def helper():
                return 1

            def uncalled():
                return only_via_dead()

            def only_via_dead():
                # live() in a comment is not a call either
                return 2

            class Registered:
                pass

            REGISTRY = {"Registered": None}
        ''',
        "tools/report.py": '''
            from repro.kernel import helper
        ''',
    })
    assert unreachable(root) == [
        "repro.kernel:only_via_dead",
        "repro.kernel:uncalled",
    ]


def test_caller_directories_are_roots(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/kernel.py": '''
            def benchmarked():
                return 1

            def example():
                return 2
        ''',
        "benchmarks/perf/probe.py": '''
            import repro.kernel as k
            k.benchmarked()
        ''',
        "examples/demo.py": '''
            from repro.kernel import example as run
        ''',
    })
    assert unreachable(root) == []

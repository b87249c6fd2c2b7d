"""The README's code blocks must actually run, and the docs must name
only code and CLI options that exist.

Documentation rot is a bug: every ``python`` fenced block in README.md
is extracted and executed in one shared namespace (blocks may build on
earlier ones, as the README's do).
"""

import argparse
import importlib
import importlib.util
import pathlib
import re

from repro.cli import _build_parser

README = pathlib.Path(__file__).parent.parent / "README.md"


def python_blocks(text: str):
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_exists_and_has_code():
    text = README.read_text()
    assert python_blocks(text), "README lost its code examples"


def test_readme_code_blocks_execute(capsys):
    namespace = {}
    for block in python_blocks(README.read_text()):
        exec(compile(block, str(README), "exec"), namespace)  # noqa: S102
    # The quickstart block prints decisions/rounds/bits.
    output = capsys.readouterr().out
    assert output.strip(), "README quickstart produced no output"


def test_readme_mentions_every_package():
    """The architecture section stays in sync with the source tree."""
    text = README.read_text()
    src = pathlib.Path(__file__).parent.parent / "src" / "repro"
    for package in sorted(p.name for p in src.iterdir() if p.is_dir()):
        if package == "__pycache__":
            continue
        assert f"{package}/" in text, f"README omits package {package}/"


def test_examples_headers_in_readme():
    """Every example script is listed in the README's table."""
    text = README.read_text()
    examples = pathlib.Path(__file__).parent.parent / "examples"
    missing = [
        path.name
        for path in sorted(examples.glob("*.py"))
        if path.name not in text
    ]
    # Newer examples may lag the table; at least the core five must be
    # present, and nothing in the table may point nowhere.
    core = {
        "quickstart.py",
        "epsilon_tradeoff.py",
        "transform_your_protocol.py",
        "adversary_gallery.py",
        "benign_cluster.py",
    }
    assert not (core & set(missing)), f"README omits {core & set(missing)}"
    for name in re.findall(r"`(\w+\.py)`", text):
        assert (examples / name).exists(), f"README references missing {name}"


#: The prose docs whose references must resolve.
DOC_FILES = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md",
    ".claude/skills/verify/SKILL.md",
)

#: A repo path: ``src/repro/...py``, or anything under tests/, tools/
#: or benchmarks/ (a file or a directory).
DOC_PATH = re.compile(
    r"(?<![\w/.-])(?:src/repro/[\w/]+\.py|(?:tests|tools|benchmarks)/[\w./-]+)"
)

#: A dotted name inside the package: ``repro.x.y``.
DOC_NAME = re.compile(r"(?<![\w/.-])repro(?:\.\w+)+")

#: What names the deleted static linter: its subcommand, package and
#: standalone script.
RETIRED = re.compile(r"repro[ ]lint|repro[.]statics|run[_]lint[.]py")


def _resolves(dotted: str) -> bool:
    """``dotted`` is a module, or an attribute chain off one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            found = importlib.util.find_spec(module) is not None
        except ModuleNotFoundError:
            found = False
        if not found:
            continue
        if split == len(parts):
            return True
        value = importlib.import_module(module)
        for attribute in parts[split:]:
            if not hasattr(value, attribute):
                return False
            value = getattr(value, attribute)
        return True
    return False


def test_docs_name_only_code_that_exists():
    """Every repo path and ``repro.*`` name a doc cites still exists,
    and no doc cites the deleted linter."""
    root = README.parent
    broken = []
    for pattern in DOC_FILES:
        for doc in sorted(root.glob(pattern)):
            text = doc.read_text()
            where = doc.relative_to(root)
            for path in set(DOC_PATH.findall(text)):
                if not (root / path.rstrip(".")).exists():
                    broken.append(f"{where}: {path}")
            for name in set(DOC_NAME.findall(text)):
                if not _resolves(name):
                    broken.append(f"{where}: {name}")
            broken.extend(
                f"{where}: {retired}" for retired in set(RETIRED.findall(text))
            )
    assert not broken, "\n".join(sorted(broken))


#: ``repro <command> ...`` up to the end of its code span, shell line
#: (backslash continuations included), pipe or separator.
INVOCATION = re.compile(
    r"(?<![\w./-])repro[ \t]+(?:\\\n\s*)?(?P<command>[\w-]+)"
    r"(?P<rest>(?:\\\n|[^`|;&)\n])*)"
)

#: A long option as a doc spells it (``--flag`` or ``--flag=value``).
DOC_FLAG = re.compile(r"(?<![\w-])--[a-zA-Z][\w-]*")


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _options(parser):
    """Every option string of ``parser`` and of its sub-subcommands."""
    found = {
        name for action in parser._actions for name in action.option_strings
    }
    for sub in _subcommands(parser).values():
        found |= _options(sub)
    return found


def test_docs_use_only_cli_options_that_exist():
    """Every ``repro <command> ... --flag`` a doc shows names a
    subcommand, and ``--flag`` is an option of it or of one of its
    sub-subcommands."""
    root = README.parent
    commands = _subcommands(_build_parser())
    checked = 0
    broken = []
    for pattern in DOC_FILES:
        for doc in sorted(root.glob(pattern)):
            where = doc.relative_to(root)
            for match in INVOCATION.finditer(doc.read_text()):
                flags = DOC_FLAG.findall(match["rest"])
                if not flags:
                    continue
                command = commands.get(match["command"])
                if command is None:
                    broken.append(f"{where}: repro {match['command']}")
                    continue
                checked += 1
                broken.extend(
                    f"{where}: repro {match['command']} {flag}"
                    for flag in flags if flag not in _options(command)
                )
    assert checked, "no doc shows a repro command with an option"
    assert not broken, "\n".join(sorted(broken))

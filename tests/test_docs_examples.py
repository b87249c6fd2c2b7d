"""The README's code blocks must actually run.

Documentation rot is a bug: every ``python`` fenced block in README.md
is extracted and executed in one shared namespace (blocks may build on
earlier ones, as the README's do).
"""

import pathlib
import re

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

"""Generate docs/api.md from the package's public surface.

Walks every ``repro`` module, collects the public classes and
functions it *defines* (not re-exports), and writes one markdown
section per module with each item's signature and docstring summary.
``tests/test_docs_examples.py``-style freshness is enforced by
``tests/test_api_docs.py``: regenerating must reproduce the committed
file, so the reference can never drift from the code.  It prepends
the checkout's ``src/`` to ``sys.path``, so it needs no install and
no ``PYTHONPATH``.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / "docs" / "api.md"

HEADER = """# API reference

Generated by `python tools/gen_api_docs.py` — do not edit by hand.
One section per module; each entry shows the public signature and the
first paragraph of its docstring.  See the module sources for the full
discussions (they carry the paper cross-references).  The runtime
checks that hold this surface to the paper's determinism and purity
assumptions are documented in [mutants.md](mutants.md).
"""


def iter_modules():
    import repro

    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield info.name, importlib.import_module(info.name)


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n")[0].strip()
    return " ".join(line.strip() for line in paragraph.splitlines())


def signature_of(obj) -> str:
    import re

    try:
        signature = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    # Defaults that repr with memory addresses are not reproducible.
    return re.sub(r" at 0x[0-9a-f]+", "", signature)


def public_members(name: str, module) -> list:
    members = []
    for attribute_name, value in sorted(vars(module).items()):
        if attribute_name.startswith("_"):
            continue
        # A cached function (``functools.lru_cache``) documents as the
        # function it wraps.
        value = inspect.unwrap(value)
        if not (inspect.isclass(value) or inspect.isfunction(value)):
            continue
        if getattr(value, "__module__", None) != name:
            continue  # re-export: documented where defined
        members.append((attribute_name, value))
    return members


def render() -> str:
    lines = [HEADER]
    for name, module in iter_modules():
        members = public_members(name, module)
        summary = first_paragraph(module)
        if not members and not summary:
            continue
        lines.append(f"## `{name}`")
        lines.append("")
        if summary:
            lines.append(summary)
            lines.append("")
        for attribute_name, value in members:
            kind = "class" if inspect.isclass(value) else "def"
            signature = "" if inspect.isclass(value) else signature_of(value)
            lines.append(f"- **`{kind} {attribute_name}{signature}`** — "
                         f"{first_paragraph(value) or '(undocumented)'}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUTPUT.write_text(render())
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""docs/api.md must stay in sync with the code (regenerate-and-diff)."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).parent.parent


def load_generator():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gen_api_docs
    finally:
        sys.path.pop(0)
    return gen_api_docs


def test_api_docs_current():
    generator = load_generator()
    committed = (ROOT / "docs" / "api.md").read_text()
    assert generator.render() == committed, (
        "docs/api.md is stale — run: python tools/gen_api_docs.py"
    )


def test_api_docs_cover_key_modules():
    text = (ROOT / "docs" / "api.md").read_text()
    for module in (
        "repro.compact.protocol",
        "repro.avalanche.protocol",
        "repro.core.transform",
        "repro.fullinfo.decision",
    ):
        assert f"## `{module}`" in text


def test_no_undocumented_public_items():
    """Every public class/function in the library has a docstring."""
    generator = load_generator()
    undocumented = []
    for name, module in generator.iter_modules():
        for attribute_name, value in generator.public_members(name, module):
            if not generator.first_paragraph(value):
                undocumented.append(f"{name}.{attribute_name}")
    assert not undocumented, undocumented

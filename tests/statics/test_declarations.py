"""The grammar of the ``TAINT_SANITIZERS`` declaration.

One reader (:func:`repro.statics.model.read_declaration`) holds it to
a string key mapped to a non-blank string; the taint pass reports
every other shape under TAINT003.
"""

import ast

import pytest

from repro.statics.model import read_declaration
from repro.statics.runner import lint_tree

#: declaration name -> (file it lives in, rule that owns it)
OWNERS = {
    "TAINT_SANITIZERS": ("agreement/protocol.py", "TAINT003"),
}

MALFORMED = {
    "non-dict value": "{name} = ['thing']\n",
    "non-string key": "{name} = {{3: 'a justification'}}\n",
    "empty justification": "{name} = {{'thing': '  '}}\n",
    "non-string justification": "{name} = {{'thing': 7}}\n",
    "non-string pair": "{name} = {{'thing': ('constant', 7)}}\n",
    "pair of strings": "{name} = {{'thing': ('constant', 'why')}}\n",
}


@pytest.mark.parametrize("name", sorted(OWNERS))
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_shape_is_one_finding_from_the_owning_rule(
    tmp_path, name, shape
):
    subpath, rule = OWNERS[name]
    module = tmp_path / "repro" / subpath
    module.parent.mkdir(parents=True)
    module.write_text(MALFORMED[shape].format(name=name))
    (finding,) = lint_tree(tmp_path / "repro").findings
    assert finding.rule == rule
    assert finding.path == f"repro/{subpath}"
    assert finding.line == 1


class TestReader:
    def read(self, source):
        return read_declaration(ast.parse(source), "NAME")

    def test_plain_and_pair_forms(self):
        # Only the plain form declares; a pair is a rejected value.
        declaration = self.read(
            "NAME = {\n"
            "    'plain': 'why',\n"
            "    'pair': ('linear', 'capped by k'),\n"
            "}\n"
        )
        plain = declaration.entries["plain"]
        assert (plain.value, plain.line) == ("why", 2)
        assert "pair" not in declaration.entries
        assert [
            (note.kind, note.key, note.node.lineno)
            for note in declaration.malformed
        ] == [("value", "pair", 3)]

    def test_annotated_assignment_and_absence(self):
        assert self.read("NAME: dict = {'a': 'b'}\n").entries["a"].value == "b"
        absent = self.read("OTHER = {'a': 'b'}\n")
        assert not absent.entries and not absent.malformed

    def test_rejects_are_typed_and_located(self):
        declaration = self.read(
            "NAME = {\n"
            "    'blank': '',\n"
            "    7: 'numeric key',\n"
            "    **other,\n"
            "    'triple': ('a', 'b', 'c'),\n"
            "}\n"
        )
        assert not declaration.entries
        assert [
            (note.kind, note.key, note.node.lineno)
            for note in declaration.malformed
        ] == [
            ("value", "blank", 2),
            ("key", None, 3),
            ("key", None, 1),  # a ``**spread`` has no key node
            ("value", "triple", 5),
        ]

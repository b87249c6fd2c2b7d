"""The contract pass: fixture-tree violations and real-catalog parsing."""

import pathlib

from repro.statics.contracts import (
    CATALOG_MODULE,
    CONTRACT_PACKAGES,
    EXEMPT_DECLARATION,
    catalog_entries,
    check_contracts,
    factory_modules,
)
from repro.statics.model import ProjectIndex, parse_module

FIXTURE_TREE = pathlib.Path(__file__).parent / "fixtures" / "tree"
EXEMPT_TREE = pathlib.Path(__file__).parent / "fixtures" / "exempttree"
REAL_REGISTRY = (
    pathlib.Path(__file__).parent.parent.parent
    / "src"
    / "repro"
    / "fuzz"
    / "protocols.py"
)


def contract_findings(package_root):
    """The contract pass over the tree rooted at ``package_root``."""
    return check_contracts(
        ProjectIndex(package_root, CONTRACT_PACKAGES, (CATALOG_MODULE,))
    )


def parse_catalog(source):
    return catalog_entries(parse_module(source, CATALOG_MODULE))


def parse_exemptions(source):
    """The well-formed ``CATALOG_EXEMPT`` entries of a registry source."""
    declaration = parse_module(source, CATALOG_MODULE).declaration(
        EXEMPT_DECLARATION
    )
    return {name: entry.value for name, entry in declaration.entries.items()}


class TestFixtureTree:
    def test_reports_each_contract_violation(self):
        by_rule = {}
        for finding in contract_findings(FIXTURE_TREE):
            by_rule.setdefault(finding.rule, []).append(finding)
        assert {f.symbol for f in by_rule["CON001"]} == {"orphan_factory"}
        assert {f.symbol for f in by_rule["CON002"]} == {"ghost_factory"}
        assert {f.symbol for f in by_rule["CON003"]} == {"registered"}
        assert {f.symbol for f in by_rule["CON004"]} == {"registered"}

    def test_unregistered_factory_points_at_its_module(self):
        (finding,) = [
            f for f in contract_findings(FIXTURE_TREE) if f.rule == "CON001"
        ]
        assert finding.path == "tree/agreement/orphan.py"

    def test_catalog_entry_findings_carry_the_entry_line(self):
        con003 = [
            f for f in contract_findings(FIXTURE_TREE) if f.rule == "CON003"
        ]
        source = (FIXTURE_TREE / "fuzz" / "protocols.py").read_text()
        entry_line = source.splitlines().index(
            "    ProtocolSpec(  # noqa: F821 - parsed, never run"
        ) + 1
        assert [f.line for f in con003] == [entry_line]


class TestExemptionGrammar:
    """``CATALOG_EXEMPT`` is held to the grammar of the other three
    declarations: a malformed entry is CON002 and exempts nothing."""

    def findings(self):
        return sorted(contract_findings(EXEMPT_TREE))

    def test_each_malformed_entry_is_con002_at_its_line(self):
        got = [
            (f.line, f.symbol) for f in self.findings() if f.rule == "CON002"
        ]
        assert got == [
            (9, "silent_factory"),  # "" justifies nothing
            (10, "numeric_factory"),  # 7 is not a justification
            (11, "<module>"),  # 13 is not a factory name
        ]
        assert all(
            f.path == "exempttree/fuzz/protocols.py"
            for f in self.findings()
            if f.rule == "CON002"
        )

    def test_a_malformed_exemption_exempts_nothing(self):
        unregistered = {
            f.symbol for f in self.findings() if f.rule == "CON001"
        }
        assert unregistered == {"silent_factory", "numeric_factory"}

    def test_accessor_returns_only_well_formed_entries(self):
        source = (EXEMPT_TREE / "fuzz" / "protocols.py").read_text()
        assert parse_exemptions(source) == {}

    def test_non_dict_declaration_is_con002(self, tmp_path):
        package = tmp_path / "repro" / "fuzz"
        package.mkdir(parents=True)
        (package / "protocols.py").write_text(
            "CATALOG_EXEMPT = ['orphan_factory']\n"
        )
        (finding,) = contract_findings(tmp_path / "repro")
        assert (finding.rule, finding.line, finding.symbol) == (
            "CON002", 1, "<module>",
        )


class TestRealCatalogParsing:
    def test_every_entry_is_extracted(self):
        entries = parse_catalog(REAL_REGISTRY.read_text())
        names = {entry.name for entry in entries}
        assert "compact-ba-fast" in names
        assert "ben-or" in names
        assert len(entries) >= 13

    def test_bounds_are_classified(self):
        entries = {
            entry.name: entry
            for entry in parse_catalog(REAL_REGISTRY.read_text())
        }
        assert entries["eig"].bound == "3t + 1"
        assert entries["phase-queen"].bound == "4t + 1"
        assert entries["dolev-strong"].bound == "2t + 1"

    def test_randomized_and_rounds_flags(self):
        entries = {
            entry.name: entry
            for entry in parse_catalog(REAL_REGISTRY.read_text())
        }
        assert entries["ben-or"].randomized
        assert entries["ben-or"].rounds_is_none
        assert not entries["phase-king"].rounds_is_none

    def test_helper_indirection_resolves_to_factory(self):
        entries = {
            entry.name: entry
            for entry in parse_catalog(REAL_REGISTRY.read_text())
        }
        assert "auth_compact_ba_factory" in entries[
            "compact-ba-auth"
        ].factories

    def test_spec_returning_function_is_an_entry(self):
        (entry,) = [
            entry
            for entry in parse_catalog(REAL_REGISTRY.read_text())
            if "compact-ba-k" in entry.name
        ]
        assert entry.factories == {"compact_ba_factory"}
        assert entry.bound == "3t + 1" and not entry.rounds_is_none

    def test_exemptions_parse(self):
        exemptions = parse_exemptions(REAL_REGISTRY.read_text())
        assert "turpin_coan_factory" in exemptions
        assert "avalanche_factory" not in exemptions
        assert all(reason.strip() for reason in exemptions.values())

    def test_tree_factories_finds_known_modules(self):
        factories = factory_modules(
            ProjectIndex(REAL_REGISTRY.parent.parent, CONTRACT_PACKAGES, ())
        )
        assert "ben_or_factory" in factories
        assert "compact_ba_factory" in factories
        assert "avalanche_factory" in factories

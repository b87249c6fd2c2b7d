"""Registry-wide conformance: every protocol vs the adversary gallery.

Each registered protocol must satisfy *its own* oracles — the
Byzantine agreement predicate for the BA protocols, the avalanche
conditions for Protocol 2, the crusader / weak-validity / firing-squad
conditions for those tasks — against every generic Byzantine strategy,
decide within its declared round bound, and refuse configurations
outside its resilience requirement.  New protocols inherit this
coverage by registering in :mod:`repro.fuzz.protocols`.
"""

import pathlib

import pytest

import repro
from repro.fuzz.campaign import CampaignSettings, run_campaign
from repro.fuzz.oracles import run_oracles
from repro.fuzz.protocols import CATALOG_EXEMPT, get_spec, protocol_names
from repro.runtime.engine import run_protocol
from repro.runtime.rng import derive_rng
from repro.statics.contracts import (
    CATALOG_MODULE,
    CONTRACT_PACKAGES,
    catalog_entries,
    check_contracts,
    factory_modules,
)
from repro.statics.model import ProjectIndex, parse_module
from repro.types import SystemConfig

from tests.conftest import byzantine_adversaries

CONFIG = SystemConfig(n=9, t=2)  # satisfies every spec's requirement
PACKAGE_ROOT = pathlib.Path(repro.__file__).resolve().parent


def run_entry(spec, config, adversary, seed=0):
    inputs = spec.sample_inputs(config, derive_rng(seed, "inputs", spec.name))
    return run_protocol(
        spec.build(config),
        config,
        inputs,
        adversary=adversary,
        seed=seed,
        **spec.engine_arguments(config),
    )


@pytest.mark.parametrize(
    "name", protocol_names(), ids=lambda name: get_spec(name).title
)
class TestCatalogConformance:
    def test_satisfies_ba_predicate_under_gallery(self, name):
        """The spec's own oracles (the BA predicate, for a BA spec)."""
        spec = get_spec(name)
        if spec.supports(CONFIG):
            pytest.skip("configuration outside the spec's requirement")
        for faulty in ([4, 9], [1, 4]):  # crusader's source is 9
            strategies = byzantine_adversaries(faulty)
            if spec.authenticated:
                strategies = strategies[:1]  # silent: the rest cannot sign
            for adversary in strategies:
                result = run_entry(spec, CONFIG, adversary, seed=2)
                assert run_oracles(spec.oracles, result) == [], (
                    f"{name} vs {type(adversary).__name__} at {faulty}"
                )

    def test_decides_within_declared_rounds(self, name):
        spec = get_spec(name)
        if spec.supports(CONFIG):
            pytest.skip("configuration outside the spec's requirement")
        result = run_entry(spec, CONFIG, adversary=None)
        if spec.rounds is not None:
            assert result.rounds <= spec.rounds(CONFIG)
        assert run_oracles(spec.oracles, result) == []


class TestCatalogStructure:
    def test_names_unique(self):
        titles = [get_spec(name).title for name in protocol_names()]
        assert len(titles) == len(set(titles))
        assert len(protocol_names()) >= 15

    def test_entries_supporting_filters(self):
        tight = SystemConfig(n=7, t=2)  # 3t + 1 but < 4t + 1
        names = {
            name for name in protocol_names()
            if get_spec(name).supports(tight) is None
        }
        assert "phase-queen" not in names
        assert "phase-king" in names
        assert "compact-ba-fast" not in names

    def test_all_entries_declare_requirements(self):
        for name in protocol_names():
            spec = get_spec(name)
            assert spec.supports(SystemConfig(n=50, t=2)) is None
            assert "needs n >=" in spec.supports(SystemConfig(n=4, t=3))
            assert (spec.rounds is None) == spec.randomized

    def test_one_cap_for_every_caller(self):
        """`max(bound, rounds) + 1`, wherever a run is configured."""
        spec = get_spec("avalanche")
        bound = spec.rounds(CONFIG)
        assert spec.default_rounds(CONFIG) == bound
        assert spec.engine_arguments(CONFIG)["max_rounds"] == bound + 1
        assert spec.engine_arguments(CONFIG, 2)["max_rounds"] == bound + 1
        assert spec.engine_arguments(CONFIG, 40) == {
            "max_rounds": 41, "run_full_rounds": 40,
            "sizer": None, "is_null": None,
        }
        assert get_spec("eig").engine_arguments(CONFIG)["run_full_rounds"] is None


def test_campaign_over_every_registered_name_is_clean_and_reproducible():
    settings = CampaignSettings(
        seed=21, cases=4, protocols=protocol_names(), n=CONFIG.n, t=CONFIG.t
    )
    first, second = run_campaign(settings), run_campaign(settings)
    assert first.clean, first.render_text()
    assert first.executions == 4 * len(protocol_names())
    assert first.differential_checked == 4  # the "ba" group's scenarios
    assert first.to_json() == second.to_json()


class TestCatalogContract:
    """The contract pass of ``repro.statics`` as a meta-test.

    Registry drift (an unregistered factory, a stale exemption, a
    missing round bound, an undocumented resilience requirement)
    fails here even when nobody runs ``repro lint``.
    """

    def test_catalog_agrees_with_source_tree(self):
        findings = check_contracts(
            ProjectIndex(PACKAGE_ROOT, CONTRACT_PACKAGES, (CATALOG_MODULE,))
        )
        assert findings == [], "\n".join(
            f"{f.rule} {f.path}: {f.message}" for f in findings
        )

    def test_every_factory_registered_or_exempted_is_disjoint(self):
        registry = PACKAGE_ROOT / "fuzz" / "protocols.py"
        registered = set()
        catalog = parse_module(registry.read_text(), CATALOG_MODULE)
        for entry in catalog_entries(catalog):
            registered |= entry.factories
        factories = set(
            factory_modules(ProjectIndex(PACKAGE_ROOT, CONTRACT_PACKAGES, ()))
        )
        assert registered <= factories
        assert not registered & set(CATALOG_EXEMPT)
        assert registered | set(CATALOG_EXEMPT) == factories
        assert len(CATALOG_EXEMPT) <= 5

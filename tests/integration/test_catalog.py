"""Registry-wide conformance: every protocol vs the adversary gallery.

Each registered protocol must satisfy *its own* oracles — the
Byzantine agreement predicate for the BA protocols, the avalanche
conditions for Protocol 2, the crusader / weak-validity / firing-squad
conditions for those tasks — against every generic Byzantine strategy,
decide within its declared round bound, and refuse configurations
outside its resilience requirement.  New protocols inherit this
coverage by registering in :mod:`repro.fuzz.protocols`.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
import types

import pytest

from repro.compact.payload import CompactPayload, compact_sizer
from repro.fuzz import protocols
from repro.fuzz.campaign import CampaignSettings, run_campaign
from repro.fuzz.oracles import run_oracles
from repro.fuzz.protocols import (
    CATALOG_EXEMPT,
    CATALOG_PROTOCOLS,
    DEFAULT_PROTOCOLS,
    get_spec,
    protocol_names,
)
from repro.runtime.engine import run_protocol
from repro.runtime.rng import derive_rng
from repro.types import SystemConfig

from tests.conftest import byzantine_adversaries

CONFIG = SystemConfig(n=9, t=2)  # satisfies every spec's requirement


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
        assert set(CATALOG_PROTOCOLS + DEFAULT_PROTOCOLS) <= set(
            protocol_names()
        )

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

    def test_one_cap_for_every_caller(self):
        """`max(bound, rounds) + 1`, wherever a run is configured, and
        one meter: the spec's own where it has one."""
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
        compact = get_spec("compact-ba")
        arguments = compact.engine_arguments(CONFIG)
        assert arguments["is_null"] is compact.metering(CONFIG)["is_null"]
        payload = CompactPayload(main=(1,) * CONFIG.n)
        assert arguments["sizer"](payload) == compact_sizer(CONFIG, 2)(payload)


def test_campaign_over_every_registered_name_is_clean_and_reproducible():
    settings = CampaignSettings(
        seed=21, cases=4, protocols=protocol_names(), n=CONFIG.n, t=CONFIG.t
    )
    first, second = run_campaign(settings), run_campaign(settings)
    assert first.clean, first.render_text()
    assert first.executions == 4 * len(protocol_names())
    assert first.differential_checked == 4  # the "ba" group's scenarios
    assert first.to_json() == second.to_json()


#: Packages whose top-level ``*_factory`` functions must be registered
#: or exempted.
FACTORY_PACKAGES = ("repro.agreement", "repro.compact", "repro.avalanche")


def tree_factories():
    """Every top-level ``*_factory`` function the factory packages
    define, mapped to its defining module."""
    factories = {}
    for package_name in FACTORY_PACKAGES:
        package = importlib.import_module(package_name)
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(
                package.__path__, package_name + "."
            )
        ]
        for module in modules:
            for name, value in vars(module).items():
                if (
                    name.endswith("_factory")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    factories[name] = module
    return factories


def _names(function):
    """Every global or attribute name ``function``'s code reads,
    nested code objects (lambdas, comprehensions) included."""
    names, stack = set(), [function.__code__]
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


#: Module-level helpers of the registry a ``build`` may call through.
REGISTRY_HELPERS = {
    name: value
    for name, value in vars(protocols).items()
    if inspect.isfunction(value) and value.__module__ == protocols.__name__
}


def built_factories(spec):
    """The factories ``spec.build`` names, through one level of
    registry helpers."""
    names = _names(spec.build)
    for name in names & set(REGISTRY_HELPERS):
        names = names | _names(REGISTRY_HELPERS[name])
    return {name for name in names if name.endswith("_factory")}


def states_bound(docstring, resilience):
    """Whether ``docstring`` states ``{resilience}t + 1`` ("3t + 1",
    "3t+1", "3 * t + 1"), neither negated ("no 3t + 1 bound") nor as
    the tail of a longer number ("43t + 1")."""
    text = " ".join((docstring or "").split())
    for match in re.finditer(rf"{resilience}\s*\*?\s*t\s*\+\s*1", text):
        prefix = text[: match.start()].rstrip().lower()
        if prefix.endswith(("no", "not")):
            continue
        if match.start() > 0 and text[match.start() - 1].isdigit():
            continue
        return True
    return False


def catalog_violations(factories, specs, exemptions):
    """Where the registry and the tree disagree, one line each.

    ``factories`` maps each ``*_factory`` name to its defining module,
    ``specs`` are the registered specs, ``exemptions`` is
    :data:`CATALOG_EXEMPT`.
    """
    violations = []
    registered = set()
    for spec in specs:
        built = built_factories(spec)
        registered |= built
        for name in sorted(built & set(factories)):
            module = factories[name]
            if not states_bound(module.__doc__, spec.resilience):
                violations.append(
                    f"undocumented bound: {spec.name!r} needs "
                    f"n >= {spec.resilience}t + 1, which the docstring of "
                    f"{module.__name__} never states"
                )
    for name in sorted(set(factories) - registered - set(exemptions)):
        violations.append(
            f"unregistered: {name} ({factories[name].__name__}) is neither "
            "built by a spec nor in CATALOG_EXEMPT"
        )
    for name, reason in sorted(exemptions.items()):
        if name not in factories:
            violations.append(f"stale exemption: no package defines {name}")
        elif name in registered:
            violations.append(f"stale exemption: a spec builds {name}")
        if not isinstance(reason, str) or not reason.strip():
            violations.append(f"blank reason: {name} says nothing")
    return violations


def live_specs():
    return [get_spec(name) for name in protocol_names()]


def _resilience_drift(specs):
    return [
        dataclasses.replace(spec, resilience=spec.resilience + 2)
        if spec.name == "crusader" else spec
        for spec in specs
    ]


#: One planted violation each: (factories, specs, exemptions) -> the
#: same with the violation, and the line it must produce.
PLANTED = {
    "unregistered factory": (
        lambda f, s, e: (
            {**f, "orphan_factory": types.ModuleType("orphan", "n >= 3t + 1")},
            s, e,
        ),
        "unregistered: orphan_factory",
    ),
    "exemption of a registered factory": (
        lambda f, s, e: (f, s, {**e, "crusader_factory": "stale"}),
        "stale exemption: a spec builds crusader_factory",
    ),
    "exemption of a missing factory": (
        lambda f, s, e: (f, s, {**e, "ghost_factory": "gone"}),
        "stale exemption: no package defines ghost_factory",
    ),
    "blank reason": (
        lambda f, s, e: (f, s, {**e, "compact_factory": "  "}),
        "blank reason: compact_factory",
    ),
    "undocumented bound": (
        lambda f, s, e: (f, _resilience_drift(s), e),
        "undocumented bound: 'crusader' needs n >= 5t + 1",
    ),
}


class TestCatalogContract:
    """The registry is the coverage contract: the conformance sweep,
    fuzzing and schedule equivalence run only what is registered, so
    an unregistered factory, a stale or unjustified exemption, or a
    resilience its module never documents fails here."""

    def test_catalog_agrees_with_source_tree(self):
        violations = catalog_violations(
            tree_factories(), live_specs(), CATALOG_EXEMPT
        )
        assert violations == [], "\n".join(violations)

    def test_every_factory_registered_or_exempted_is_disjoint(self):
        factories = set(tree_factories())
        registered = set().union(*map(built_factories, live_specs()))
        assert registered <= factories
        assert not registered & set(CATALOG_EXEMPT)
        assert registered | set(CATALOG_EXEMPT) == factories
        assert len(CATALOG_EXEMPT) <= 5

    def test_bound_is_read_as_stated(self):
        assert states_bound("needs n >= 3t+1 processors", 3)
        assert states_bound("holds for n >= 3 * t + 1", 3)
        assert not states_bound("there is no 3t + 1 bound", 3)
        assert not states_bound("n >= 43t + 1", 3)
        assert not states_bound("n >= 4t + 1", 3)

    @pytest.mark.parametrize("plant", sorted(PLANTED))
    def test_each_planted_violation_fails(self, plant):
        mutate, expected = PLANTED[plant]
        violations = catalog_violations(
            *mutate(tree_factories(), live_specs(), dict(CATALOG_EXEMPT))
        )
        assert [line for line in violations if line.startswith(expected)]
        assert len(violations) == 1, violations

"""Campaign driver: generate scenarios, execute, judge, shrink, persist.

A campaign is a pure function of ``(settings)`` — same settings, same
report, byte for byte, for any worker count.  The moving parts:

1. **Scenario generation.**  Scenarios (input vector, fault set,
   execution seed) are drawn from ``derive_rng(seed, "fuzz", group)``
   per differential group, so every member of a group fuzzes the
   *identical* scenario list — the precondition for the differential
   oracle — and adding a protocol to a campaign never perturbs
   another group's scenarios.
2. **Execution and judging.**  Each protocol's cases become
   :class:`~repro.analysis.parallel.SweepCell`s fanned out through
   :func:`~repro.analysis.parallel.execute_cells`, which already pins
   byte-identical outcomes for any worker count.  The spec's oracles
   and its budget (:func:`~repro.fuzz.oracles.check_budget`: bits a
   message per metered round, decision rounds) are the cells' judge:
   each case is judged once, on its live execution, where it ran —
   in-process or in a pool worker — and its verdict travels back with
   its outcome, in case order.
3. **Differential check.**  Protocols sharing a differential group
   ran the identical scenarios; their portable results are compared
   scenario by scenario.
4. **Shrink & persist.**  Failing cases are minimized
   (:mod:`repro.fuzz.shrink`) and written to the corpus as replayable
   regression files.

:func:`replay_case` is the single re-execution path used by the
shrinker, the corpus pytest replayer, and ``repro fuzz --replay``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.obs.core as _obs
from repro.analysis.parallel import SweepCell, SweepContext, execute_cells, run_cell
from repro.analysis.sweeps import SweepOutcome
from repro.arrays.store import release_shared_stores
from repro.errors import ConfigurationError
from repro.fuzz.adversary import FuzzAdversary
from repro.fuzz.case import FuzzCase
from repro.fuzz.oracles import check_budget, differential_mismatches, run_oracles
from repro.fuzz.protocols import DEFAULT_PROTOCOLS, ProtocolSpec, get_spec
from repro.runtime.engine import ExecutionResult
from repro.runtime.rng import derive_rng
from repro.types import SystemConfig

REPORT_SCHEMA_VERSION = 2

#: Name under which the fuzz adversary appears in sweep cells.
_ADVERSARY_NAME = "fuzz"


@dataclasses.dataclass(frozen=True)
class CampaignSettings:
    """Everything that determines a campaign (and hence its report)."""

    seed: int = 0
    cases: int = 25  # scenarios per protocol
    protocols: Tuple[str, ...] = DEFAULT_PROTOCOLS
    n: int = 4
    t: int = 1
    workers: int = 1
    shrink: bool = False
    corpus_dir: Optional[str] = None
    # Inert; deleted by the next `benchmark` PR (ROADMAP item 1(e)).
    scheduler: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class CaseVerdict:
    """One judged execution."""

    case: FuzzCase
    violations: Tuple[str, ...]

    @property
    def failed(self) -> bool:
        return bool(self.violations)


@dataclasses.dataclass
class CampaignReport:
    """The deterministic output of one campaign."""

    seed: int
    n: int
    t: int
    protocols: Tuple[str, ...]
    cases_per_protocol: int
    executions: int
    failures: List[Dict[str, Any]]
    differential_failures: List[Dict[str, Any]]
    differential_checked: int
    shrunk: List[Dict[str, Any]]
    schema_version: int = REPORT_SCHEMA_VERSION

    @property
    def clean(self) -> bool:
        return not self.failures and not self.differential_failures

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} n={self.n} t={self.t} "
            f"protocols={','.join(self.protocols)}",
            f"  executions: {self.executions} "
            f"({self.cases_per_protocol} cases/protocol)",
        ]
        if self.differential_checked:
            lines.append(
                f"  differential scenarios cross-checked: "
                f"{self.differential_checked}"
            )
        if self.clean:
            lines.append("  all oracles passed")
        for failure in self.failures:
            lines.append(
                f"  FAIL {failure['protocol']} case {failure['digest']} "
                f"seed={failure['seed']} faulty={failure['faulty']}"
            )
            for violation in failure["violations"]:
                lines.append(f"    - {violation}")
        for failure in self.differential_failures:
            lines.append(
                f"  DIFF-FAIL group {failure['group']} scenario "
                f"#{failure['scenario']} seed={failure['seed']}"
            )
            for violation in failure["violations"]:
                lines.append(f"    - {violation}")
        for entry in self.shrunk:
            lines.append(
                f"  shrunk {entry['protocol']} -> rounds={entry['rounds']} "
                f"faulty={entry['faulty']} mask={entry['mask']} "
                f"file={entry['file']}"
            )
        return "\n".join(lines) + "\n"


# -- scenario generation -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Scenario:
    index: int
    inputs: Tuple[Tuple[int, Any], ...]
    faulty: Tuple[int, ...]
    seed: int


def _group_plan(
    settings: CampaignSettings,
) -> List[Tuple[str, List[ProtocolSpec]]]:
    """Campaign protocols grouped by differential group, order kept."""
    groups: List[Tuple[str, List[ProtocolSpec]]] = []
    by_key: Dict[str, List[ProtocolSpec]] = {}
    for name in settings.protocols:
        spec = get_spec(name)
        key = spec.differential_group or spec.name
        if key not in by_key:
            by_key[key] = []
            groups.append((key, by_key[key]))
        by_key[key].append(spec)
    return groups


def _generate_scenarios(
    settings: CampaignSettings, group: str, sampler_spec: ProtocolSpec
) -> List[_Scenario]:
    config = SystemConfig(n=settings.n, t=settings.t)
    rng = derive_rng(settings.seed, "fuzz", group)
    scenarios: List[_Scenario] = []
    for index in range(settings.cases):
        inputs = sampler_spec.sample_inputs(config, rng)
        fault_count = int(rng.integers(0, settings.t + 1))
        faulty = tuple(sorted(
            int(pid) + 1 for pid in rng.permutation(settings.n)[:fault_count]
        ))
        case_seed = int(rng.integers(0, 2 ** 31))
        scenarios.append(_Scenario(
            index=index,
            inputs=tuple(sorted(inputs.items())),
            faulty=faulty,
            seed=case_seed,
        ))
    return scenarios


# -- execution ---------------------------------------------------------------


def _context_for(
    spec: ProtocolSpec,
    config: SystemConfig,
    rounds: Optional[int] = None,
    mask: Tuple[Tuple[int, int], ...] = (),
) -> SweepContext:
    def maker(faulty: Sequence[int]) -> FuzzAdversary:
        return FuzzAdversary(faulty, palette=spec.palette, mask=mask)

    def judge(result: ExecutionResult) -> List[str]:
        return run_oracles(spec.oracles, result) + [
            f"[budget] {text}" for text in check_budget(spec, result)
        ]

    return SweepContext(
        factory=spec.build(config),
        config=config,
        adversary_makers=((_ADVERSARY_NAME, maker),),
        judge=judge,
        **spec.engine_arguments(config, rounds),
    )


def _cell_for(case: FuzzCase, index: int) -> SweepCell:
    return SweepCell(
        index=index,
        inputs=case.input_map,
        faulty=case.faulty,
        adversary_name=_ADVERSARY_NAME,
        adversary_index=0,
        seed=case.seed,
    )


@dataclasses.dataclass(frozen=True)
class ReplayOutcome:
    """A replayed case with its portable result and oracle verdicts."""

    case: FuzzCase
    result: ExecutionResult
    violations: Tuple[str, ...]

    @property
    def failed(self) -> bool:
        return bool(self.violations)


def replay_case(case: FuzzCase) -> ReplayOutcome:
    """Re-execute one case serially and judge it, as the campaign does.

    The single replay path: the shrinker's failure predicate, the
    corpus pytest replayer, and ``repro fuzz --replay`` all call this,
    so a saved case means the same thing everywhere.
    """
    spec = get_spec(case.protocol)
    config = SystemConfig(n=case.n, t=case.t)
    unsupported = spec.supports(config)
    if unsupported:
        raise ConfigurationError(
            f"case {case.filename()} targets {case.protocol} at an "
            f"unsupported configuration: {unsupported}"
        )
    context = _context_for(spec, config, case.rounds, mask=case.mask)
    outcome = run_cell(context, _cell_for(case, index=0))
    return ReplayOutcome(
        case=case, result=outcome.result, violations=_verdict(outcome)
    )


# -- the campaign ------------------------------------------------------------


def run_campaign(settings: CampaignSettings) -> CampaignReport:
    """Run one deterministic fuzz campaign and return its report."""
    config = SystemConfig(n=settings.n, t=settings.t)
    for name in settings.protocols:
        unsupported = get_spec(name).supports(config)
        if unsupported:
            raise ConfigurationError(f"{name}: {unsupported}")

    observer = _obs.ACTIVE
    failures: List[Dict[str, Any]] = []
    differential_failures: List[Dict[str, Any]] = []
    shrunk_entries: List[Dict[str, Any]] = []
    failing_cases: List[FuzzCase] = []
    executions = 0
    differential_checked = 0
    protocol_seq = 0

    with _obs.span("fuzz.campaign"):
        for group, specs in _group_plan(settings):
            scenarios = _generate_scenarios(settings, group, specs[0])
            group_results: Dict[str, List[ExecutionResult]] = {}
            for spec in specs:
                cases = [
                    FuzzCase.build(
                        protocol=spec.name,
                        n=settings.n,
                        t=settings.t,
                        seed=scenario.seed,
                        inputs=scenario.inputs,
                        faulty=scenario.faulty,
                    )
                    for scenario in scenarios
                ]
                verdicts, results = _run_protocol_cases(
                    spec, config, cases, settings.workers
                )
                executions += len(results)
                group_results[spec.name] = results
                if observer is not None:
                    observer.count("fuzz.cases", len(results))
                    if observer.events_on:
                        # Telemetry rollup per finished protocol so an
                        # interrupted campaign's log still shows which
                        # protocols completed and at what cost.
                        observer.emit_rollup(
                            "protocol", protocol_seq, len(results)
                        )
                protocol_seq += 1
                for verdict in verdicts:
                    if verdict.failed:
                        failures.append(_failure_entry(verdict))
                        failing_cases.append(verdict.case.with_(
                            violations=verdict.violations
                        ))
            if len(specs) > 1:
                differential_checked += len(scenarios)
                differential_failures.extend(_differential_phase(
                    group, specs, scenarios, group_results
                ))
            # Each group's interned state is unrelated to the next
            # group's, so release the shared stores between them
            # (gauges recorded) instead of letting the process-wide
            # registry grow for the whole campaign.
            release_shared_stores()

        if settings.shrink and failing_cases:
            with _obs.span("fuzz.shrink"):
                shrunk_entries = _shrink_phase(failing_cases, settings)

    report = CampaignReport(
        seed=settings.seed,
        n=settings.n,
        t=settings.t,
        protocols=tuple(settings.protocols),
        cases_per_protocol=settings.cases,
        executions=executions,
        failures=failures,
        differential_failures=differential_failures,
        differential_checked=differential_checked,
        shrunk=shrunk_entries,
    )
    if observer is not None and observer.events_on:
        observer.emit(
            "fuzz_campaign",
            seed=settings.seed,
            executions=executions,
            failures=len(failures) + len(differential_failures),
            shrunk=len(shrunk_entries),
        )
    return report


def _run_protocol_cases(
    spec: ProtocolSpec,
    config: SystemConfig,
    cases: List[FuzzCase],
    workers: int,
) -> Tuple[List[CaseVerdict], List[ExecutionResult]]:
    context = _context_for(spec, config)
    cells = [_cell_for(case, index) for index, case in enumerate(cases)]
    with _obs.span("fuzz.execute"):
        outcomes = execute_cells(context, cells, workers)
    verdicts = [
        CaseVerdict(case=case, violations=_verdict(outcome))
        for case, outcome in zip(cases, outcomes)
    ]
    return verdicts, [outcome.result for outcome in outcomes]


def _verdict(outcome: SweepOutcome) -> Tuple[str, ...]:
    """The oracles' violations, or the error that stopped them."""
    if outcome.error is not None:
        return (f"[oracle error] {outcome.error}",)
    return outcome.violations or ()


def _differential_phase(
    group: str,
    specs: List[ProtocolSpec],
    scenarios: List[_Scenario],
    group_results: Dict[str, List[ExecutionResult]],
) -> List[Dict[str, Any]]:
    failures: List[Dict[str, Any]] = []
    with _obs.span("fuzz.differential"):
        for scenario in scenarios:
            per_protocol = {
                spec.name: group_results[spec.name][scenario.index]
                for spec in specs
            }
            violations = differential_mismatches(per_protocol)
            if violations:
                failures.append({
                    "group": group,
                    "scenario": scenario.index,
                    "seed": scenario.seed,
                    "faulty": list(scenario.faulty),
                    "violations": violations,
                })
    return failures


def _shrink_phase(
    failing_cases: List[FuzzCase], settings: CampaignSettings
) -> List[Dict[str, Any]]:
    from repro.fuzz.shrink import shrink_case

    entries: List[Dict[str, Any]] = []
    seen_digests: Dict[str, bool] = {}
    for case in failing_cases:
        result = shrink_case(case)
        shrunk = result.case
        if shrunk.digest() in seen_digests:
            continue
        seen_digests[shrunk.digest()] = True
        entry: Dict[str, Any] = {
            "protocol": shrunk.protocol,
            "digest": shrunk.digest(),
            "seed": shrunk.seed,
            "rounds": shrunk.rounds,
            "faulty": list(shrunk.faulty),
            "mask": [list(pair) for pair in shrunk.mask],
            "violations": list(shrunk.violations),
            "attempts": result.attempts,
            "file": None,
        }
        if settings.corpus_dir:
            from pathlib import Path

            path = shrunk.save(Path(settings.corpus_dir))
            entry["file"] = path.name
        entries.append(entry)
    return entries


def _failure_entry(verdict: CaseVerdict) -> Dict[str, Any]:
    return {
        "protocol": verdict.case.protocol,
        "digest": verdict.case.digest(),
        "seed": verdict.case.seed,
        "faulty": list(verdict.case.faulty),
        "violations": list(verdict.violations),
    }


__all__ = [
    "CampaignReport",
    "CampaignSettings",
    "CaseVerdict",
    "ReplayOutcome",
    "replay_case",
    "run_campaign",
]

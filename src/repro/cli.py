"""Command-line interface: ``python -m repro <command>``.

Gives a downstream user the paper's artifacts without writing code:

* ``table1``    — regenerate Table 1 for any ``k``,
* ``run-ba``    — run compact Byzantine agreement with a chosen
  adversary and print decisions, rounds and metered bits,
* ``compare``   — the Section 5.6 comparison (analytic and measured),
* ``tradeoff``  — the eps <-> k table,
* ``crossover`` — the exponential-vs-polynomial growth figure,
* ``avalanche`` — a standalone avalanche agreement demo,
* ``events``    — export a structured event log recorded via
  ``run-ba --events`` or ``fuzz --events`` as a Chrome trace
  (see :mod:`repro.obs` and docs/observability.md),
* ``status``    — read and validate a recorded run: bits, rounds,
  cells, cache hit rates, where the time went and what was skipped
  or degraded,
* ``lint``      — the protocol-aware static analysis of
  :mod:`repro.statics` (determinism and taint),
* ``fuzz``      — seeded adversarial campaigns with differential
  oracles and counterexample shrinking (see docs/fuzzing.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, List, Optional, Tuple, Union

from repro.errors import ConfigurationError

#: What a handler returns: the report (exit code 0) or ``(report, code)``.
_Output = Union[str, Tuple[str, int]]

#: The event schema ``status`` checks every record against; kept here
#: so building the parser imports no :mod:`repro.obs`
#: (``tests/obs/test_cli_events.py`` pins it to ``SCHEMA_VERSION``).
EVENT_SCHEMA_VERSION = 3

#: ``--adversary`` choices: the fault-free run, then the Byzantine
#: gallery of :func:`repro.analysis.sweeps.standard_adversary_makers`
#: by name (``tests/test_cold_start.py`` pins the two lists equal), so
#: building the parser imports no strategy.
ADVERSARY_CHOICES = (
    "none", "silent", "garbage", "equivocator", "splitter", "malformed",
    "collusion",
)


def _adversary(name: str, faulty: List[int]) -> Any:
    """A fresh ``name`` adversary corrupting ``faulty``."""
    if name == "none":
        from repro.adversary.base import PassiveAdversary

        return PassiveAdversary()
    from repro.analysis.sweeps import standard_adversary_makers

    return dict(standard_adversary_makers())[name](faulty)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Coan (PODC 1986): communication-efficient "
            "canonical forms for fault-tolerant protocols."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--k", type=int, default=2)
    table1.add_argument("--rounds", type=int, default=14)

    run_ba = commands.add_parser(
        "run-ba", help="run compact Byzantine agreement"
    )
    run_ba.add_argument("--t", type=int, default=2)
    run_ba.add_argument("--n", type=int, default=None)
    run_ba.add_argument("--k", type=int, default=None)
    run_ba.add_argument("--epsilon", type=float, default=None)
    run_ba.add_argument(
        "--adversary", choices=sorted(ADVERSARY_CHOICES), default="equivocator"
    )
    run_ba.add_argument("--seed", type=int, default=0)
    run_ba.add_argument(
        "--authenticated",
        action="store_true",
        help="use the signed, zero-overhead variant (t + 1 rounds)",
    )
    run_ba.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="record the structured event log to PATH (JSONL, schema in "
        "docs/observability.md)",
    )
    run_ba.add_argument(
        "--events-cap",
        type=int,
        default=None,
        metavar="BYTES",
        help="rotate the event log into PATH.part-N files once a file "
        "would exceed BYTES (requires --events)",
    )
    run_ba.add_argument(
        "--include-adversary-traffic",
        action="store_true",
        help="also meter faulty processors' traffic (diagnostics; the "
        "paper's bounds meter correct traffic only)",
    )
    # Inert; deleted by the next `benchmark` PR (ROADMAP item 1(e)).
    run_ba.add_argument("--scheduler", help=argparse.SUPPRESS)

    compare = commands.add_parser(
        "compare", help="the Section 5.6 comparison"
    )
    compare.add_argument("--t", type=int, default=2)
    compare.add_argument(
        "--measured", action="store_true", help="also run every protocol"
    )

    tradeoff = commands.add_parser("tradeoff", help="the eps <-> k table")
    tradeoff.add_argument("--t", type=int, default=4)

    crossover = commands.add_parser(
        "crossover", help="the growth-curves figure"
    )
    crossover.add_argument("--max-t", type=int, default=8)
    crossover.add_argument("--k", type=int, default=1)

    avalanche = commands.add_parser(
        "avalanche", help="standalone avalanche agreement demo"
    )
    avalanche.add_argument("--t", type=int, default=2)
    avalanche.add_argument(
        "--adversary", choices=sorted(ADVERSARY_CHOICES), default="splitter"
    )
    avalanche.add_argument("--rounds", type=int, default=8)

    events = commands.add_parser(
        "events",
        help="query a recorded event log (see docs/observability.md)",
    )
    events_sub = events.add_subparsers(dest="events_command", required=True)
    export = events_sub.add_parser(
        "export",
        help="export to Chrome-trace/Perfetto JSON (see "
        "docs/observability.md, 'Exporting a trace')",
    )
    export.add_argument(
        "path",
        help="event log to read (file, rotated parts, or directory)",
    )
    export.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="output JSON path (default: stdout)",
    )

    status = commands.add_parser(
        "status",
        help="report a finished or in-flight run from its event log "
        "alone: traffic, cells, counters, cache hit rates, spans, "
        "pools and what was skipped or degraded (exit 1 if the log "
        "is in flight or a line was skipped: one that does not parse, "
        f"fails event schema v{EVENT_SCHEMA_VERSION} or does not "
        "advance the logical clock)",
    )
    status.add_argument(
        "path",
        help="event log: a JSONL file, a rotated .part-N sequence, or "
        "a directory of logs (torn final lines of a killed run are "
        "skipped and named)",
    )
    status.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )

    lint = commands.add_parser(
        "lint",
        help="protocol-aware static analysis (see docs/statics.md)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (json is the machine-readable schema, "
        "sarif is SARIF 2.1.0 for code-scanning upload)",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="package directory to lint (default: the installed repro "
        "package)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        help="suppression file (default: tools/lint_baseline.json if "
        "present)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept all current findings into the baseline file",
    )

    fuzz = commands.add_parser(
        "fuzz",
        help="seeded adversarial fuzzing (see docs/fuzzing.md)",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--cases",
        type=int,
        default=25,
        help="scenarios per protocol (default 25)",
    )
    fuzz.add_argument(
        "--protocol",
        action="append",
        default=None,
        metavar="NAME",
        help="fuzz this registered protocol (repeatable; default: "
        "avalanche, compact-ba, eig)",
    )
    fuzz.add_argument("--n", type=int, default=4)
    fuzz.add_argument("--t", type=int, default=1)
    fuzz.add_argument("--workers", type=int, default=1)
    fuzz.add_argument(
        "--shrink",
        action="store_true",
        help="minimize failing cases before reporting them",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="write shrunk counterexamples here as replayable cases",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="replay one saved case file (or every case in a "
        "directory) instead of running a campaign",
    )
    fuzz.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="campaign report format",
    )
    fuzz.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="record the campaign's structured event log to PATH "
        "(JSONL; includes per-protocol telemetry rollups for "
        "`repro status`)",
    )
    fuzz.add_argument(
        "--events-cap",
        type=int,
        default=None,
        metavar="BYTES",
        help="rotate the event log into PATH.part-N files once a file "
        "would exceed BYTES (requires --events)",
    )

    return parser


def _command_table1(args) -> _Output:
    from repro.analysis.report import format_table
    from repro.core.rounds import BlockSchedule

    schedule = BlockSchedule(args.k)
    return format_table(
        schedule.table(args.rounds),
        columns=["r", "block", "prior", "phase", "simul"],
        title=f"Table 1 — {args.rounds} rounds, k = {args.k}",
    )


def _command_run_ba(args) -> _Output:
    import contextlib

    from repro.types import SystemConfig

    n = args.n if args.n is not None else 3 * args.t + 1
    config = SystemConfig(n=n, t=args.t)
    inputs = {p: p % 2 for p in config.process_ids}
    faulty = list(range(1, args.t + 1))
    meter_adversary = getattr(args, "include_adversary_traffic", False)
    events_path = getattr(args, "events", None)
    record = events_path is not None
    events_cap = getattr(args, "events_cap", None)
    if events_cap is not None and not record:
        return "error: --events-cap requires --events", 2
    adversary = _adversary(args.adversary, faulty)

    scope: Any
    if record:
        from repro.obs.core import Observer, observing
        from repro.obs.events import EventLog

        scope = observing(
            Observer(events=EventLog(events_path, cap_bytes=events_cap))
        )
    else:
        scope = contextlib.nullcontext()
    with scope:
        if getattr(args, "authenticated", False):
            from repro.compact.authenticated_variant import (
                auth_compact_ba_factory,
                auth_sizer,
            )
            from repro.runtime.crypto import SignatureOracle
            from repro.runtime.engine import run_protocol

            result = run_protocol(
                auth_compact_ba_factory(
                    config, [0, 1], SignatureOracle(), k=args.k or 1
                ),
                config,
                inputs,
                adversary=adversary,
                max_rounds=config.t + 2,
                sizer=auth_sizer(config, 2),
                seed=args.seed,
                meter_adversary=meter_adversary,
            )
            variant = "authenticated (zero overhead)"
        else:
            from repro.compact.byzantine_agreement import (
                run_compact_byzantine_agreement,
            )

            kwargs = {}
            if args.k is None and args.epsilon is None:
                kwargs["epsilon"] = 1.0
            elif args.k is not None:
                kwargs["k"] = args.k
            else:
                kwargs["epsilon"] = args.epsilon
            result = run_compact_byzantine_agreement(
                config,
                inputs,
                value_alphabet=[0, 1],
                adversary=adversary,
                seed=args.seed,
                meter_adversary=meter_adversary,
                **kwargs,
            )
            variant = "compact (Corollary 10)"
    lines = [
        f"n = {n}, t = {args.t}, variant = {variant}, "
        f"adversary = {args.adversary} (faulty = {faulty})",
        f"decisions: {dict(sorted(result.decisions.items()))}",
        f"rounds: {result.rounds}",
        f"message bits: {result.metrics.total_bits}",
    ]
    if meter_adversary:
        lines.append("(metering includes adversary traffic)")
    if record:
        lines.append(f"events: wrote {events_path}")
    return "\n".join(lines)


def _command_compare(args) -> _Output:
    from repro.analysis.compare import comparison_table, measured_comparison
    from repro.analysis.report import format_table
    from repro.analysis.sweeps import standard_adversary_makers

    output = format_table(
        comparison_table(args.t),
        title=f"Section 5.6 comparison, analytic (t = {args.t})",
    )
    if args.measured:
        measured = measured_comparison(
            args.t, dict(standard_adversary_makers())["equivocator"]
        )
        output += "\n\n" + format_table(
            measured,
            columns=["protocol", "rounds", "bits", "decisions"],
            title="measured under equivocating faults",
        )
    return output


def _command_tradeoff(args) -> _Output:
    from repro.analysis.report import format_table
    from repro.analysis.tradeoff import epsilon_table

    return format_table(
        epsilon_table((2.0, 1.0, 0.5, 0.25), t=args.t),
        title=f"eps <-> k tradeoff at t = {args.t}",
    )


def _command_crossover(args) -> _Output:
    from repro.analysis.figures import crossover_chart

    return crossover_chart(max_t=args.max_t, k=args.k)


def _command_avalanche(args) -> _Output:
    from repro.avalanche.protocol import avalanche_factory
    from repro.runtime.engine import run_protocol
    from repro.types import SystemConfig

    config = SystemConfig(n=3 * args.t + 1, t=args.t)
    inputs = {
        p: ("v" if p % 3 else "w") for p in config.process_ids
    }
    faulty = list(range(1, args.t + 1))
    adversary = _adversary(args.adversary, faulty)
    result = run_protocol(
        avalanche_factory(),
        config,
        inputs,
        adversary=adversary,
        run_full_rounds=args.rounds,
    )
    lines = [
        f"avalanche agreement: n = {config.n}, t = {config.t}, "
        f"adversary = {args.adversary}",
        f"inputs: {inputs}",
        f"decisions: {dict(sorted(result.decisions.items()))}",
        f"decision rounds: {dict(sorted(result.decision_rounds.items()))}",
    ]
    return "\n".join(lines)


def _command_events(args) -> _Output:
    import json
    import pathlib

    from repro.obs.events import scan_log
    from repro.obs.export import chrome_trace, validate_chrome_trace

    try:
        records, skipped = scan_log(args.path)
    except OSError as error:
        return f"error: {error}", 2
    payload = chrome_trace(records)
    problems = validate_chrome_trace(payload)
    if problems:
        body = "\n".join(problems)
        return f"error: exported trace is invalid:\n{body}", 1
    rendered = json.dumps(payload, indent=1, sort_keys=True)
    code = 1 if skipped else 0
    if args.output is None:
        return rendered, code
    target = pathlib.Path(args.output)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(rendered + "\n")
    lines = [f"wrote chrome export of {len(records)} record(s) to {target}"]
    lines.extend(f"skipped {problem}" for problem in skipped)
    return "\n".join(lines), code


def _command_status(args) -> _Output:
    import json
    import pathlib

    from repro.obs.rollup import load_status, render_status

    path = pathlib.Path(args.path)
    if not path.exists():
        return f"error: {path} does not exist", 2
    try:
        status = load_status(path)
    except OSError as error:
        return f"error: {error}", 2
    # Fail closed: a report of an unfinished or partly unread log is
    # printed in full but does not pass for a complete one.
    code = 1 if status["phase"] != "complete" or status["skipped_lines"] else 0
    if args.format == "json":
        return json.dumps(status, indent=2), code
    return render_status(status), code


def _command_lint(args) -> _Output:
    import json
    import pathlib

    from repro.statics.baseline import Baseline, write_baseline
    from repro.statics.report import render_json, render_sarif, render_text
    from repro.statics.runner import (
        collect_findings,
        default_package_root,
        find_default_baseline,
        lint_tree,
    )

    root = (
        pathlib.Path(args.root).resolve()
        if args.root
        else default_package_root()
    )
    if not root.is_dir():
        return f"error: lint root {root} is not a directory", 2
    baseline_path = (
        pathlib.Path(args.baseline)
        if args.baseline
        else find_default_baseline(root)
    )
    try:
        if baseline_path is not None and (
            baseline_path.is_file() or not args.update_baseline
        ):
            baseline = Baseline.load(baseline_path)
        else:
            baseline = Baseline()
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as error:
        return f"error: cannot load baseline: {error}", 2

    if args.update_baseline:
        target = (
            baseline_path
            if baseline_path is not None
            else pathlib.Path.cwd() / "tools" / "lint_baseline.json"
        )
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            findings = collect_findings(root)
        except SyntaxError as error:
            return _unparsable(error), 2
        write_baseline(target, findings, previous=baseline)
        return (
            f"wrote {len(findings)} suppression(s) to {target} — fill in "
            "any TODO justifications",
            0,
        )

    try:
        result = lint_tree(root, baseline)
    except SyntaxError as error:
        return _unparsable(error), 2
    if args.format == "json":
        rendered = render_json(result)
    elif args.format == "sarif":
        rendered = render_sarif(result)
    else:
        rendered = render_text(result)
    return rendered, result.exit_code


def _unparsable(error):
    # A file no pass can read fails the whole lint run, for every pass.
    return f"error: {error.filename}: {error.msg} (line {error.lineno})"


def _command_fuzz(args) -> _Output:
    import pathlib

    from repro.fuzz.campaign import CampaignSettings, replay_case, run_campaign
    from repro.fuzz.case import load_case, load_corpus
    from repro.fuzz.protocols import DEFAULT_PROTOCOLS

    if args.replay is not None:
        path = pathlib.Path(args.replay)
        if path.is_dir():
            entries = load_corpus(path)
            if not entries:
                return f"error: no fuzz cases under {path}", 2
        elif path.is_file():
            entries = [(path, load_case(path))]
        else:
            return f"error: {path} is neither a case file nor a corpus", 2
        lines = []
        failures = 0
        for case_path, case in entries:
            outcome = replay_case(case)
            if outcome.failed:
                failures += 1
                lines.append(f"FAIL {case_path.name}")
                lines.extend(f"  - {text}" for text in outcome.violations)
            else:
                lines.append(f"ok   {case_path.name}")
        lines.append(
            f"{len(entries)} case(s) replayed, {failures} still failing"
        )
        return "\n".join(lines), (1 if failures else 0)

    if args.events_cap is not None and args.events is None:
        return "error: --events-cap requires --events", 2
    protocols = tuple(args.protocol) if args.protocol else DEFAULT_PROTOCOLS
    settings = CampaignSettings(
        seed=args.seed,
        cases=args.cases,
        protocols=protocols,
        n=args.n,
        t=args.t,
        workers=args.workers,
        shrink=args.shrink or args.corpus is not None,
        corpus_dir=args.corpus,
    )
    scope: Any
    if args.events is not None:
        from repro.obs.core import Observer, observing
        from repro.obs.events import EventLog

        scope = observing(
            Observer(
                events=EventLog(args.events, cap_bytes=args.events_cap)
            )
        )
    else:
        import contextlib

        scope = contextlib.nullcontext()
    with scope:
        report = run_campaign(settings)
    if args.format == "json":
        rendered = report.to_json()
    else:
        rendered = report.render_text().rstrip("\n")
    if args.events is not None and args.format != "json":
        rendered += f"\nevents: wrote {args.events}"
    return rendered, (0 if report.clean else 1)


_HANDLERS = {
    "table1": _command_table1,
    "run-ba": _command_run_ba,
    "compare": _command_compare,
    "tradeoff": _command_tradeoff,
    "crossover": _command_crossover,
    "avalanche": _command_avalanche,
    "events": _command_events,
    "status": _command_status,
    "lint": _command_lint,
    "fuzz": _command_fuzz,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Handlers return either the report text (exit code 0) or a
    ``(text, exit_code)`` pair — ``lint`` uses the latter so CI can
    gate on findings.  A :class:`ConfigurationError` from any handler
    is reported as ``error: <message>`` with exit code 2.
    """
    args = _build_parser().parse_args(argv)
    try:
        output = _HANDLERS[args.command](args)
    except ConfigurationError as error:
        # Fail closed at the boundary: a configuration no protocol
        # accepts is a usage error, not a traceback.
        output = f"error: {error}", 2
    code = 0
    if isinstance(output, tuple):
        output, code = output
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``).  Point stdout at
        # devnull so the interpreter's exit-time flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

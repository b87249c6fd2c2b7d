"""Protocol code computes; it does not act, and it does not remember.

Section 3.1 defines a protocol by functions (``mu``, ``delta``,
``gamma``), and Theorem 2 replays them in contexts the original run
never saw, so a function that prints, opens a file, starts a process
or touches a socket means something different on every replay, and so
does one whose result depends on what earlier calls left in ``self``
or in a module global.  These checks run the code and watch: a
registry campaign, and every ``AutomatonProtocol`` subclass in
``src/`` natively, as its full-information form and as its canonical
form.  Under an audit hook and with file descriptors 1 and 2
captured, no I/O event may fire and no byte may reach either
descriptor; and a run must leave the protocol object, the defaults of
its class's functions and its modules' plain-data globals as it found
them.

Audit hooks cannot be removed, so one hook is installed per process
and reports only while :data:`_RECORDED` is a list.
"""

import copy
import importlib
import inspect
import pkgutil
import sys
from typing import List, Optional

import repro
from repro.adversary import RandomGarbageAdversary
from repro.agreement.approximate import ApproximateAgreementAutomaton
from repro.agreement.eig_agreement import ExponentialAgreementAutomaton
from repro.core.automaton import AutomatonProtocol, automaton_factory
from repro.core.transform import canonical_form, full_information_form
from repro.fuzz.campaign import CampaignSettings, run_campaign
from repro.fuzz.protocols import get_spec, protocol_names
from repro.fullinfo.decision import make_eig_decision_rule
from repro.fullinfo.protocol import FullInformationAutomaton
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig

#: The I/O events watched for, by prefix; ``os.listdir``/``os.scandir``
#: only list a directory.
_IO_PREFIXES = ("open", "os.", "subprocess.Popen", "socket.")
_LISTING = ("os.listdir", "os.scandir")

#: The events seen while armed, or ``None`` while disarmed.
_RECORDED: Optional[List[str]] = None
_HOOKED = False


def _hook(event, args):
    if _RECORDED is not None and event.startswith(_IO_PREFIXES):
        if event not in _LISTING:
            _RECORDED.append(f"{event}{args!r}"[:200])


def _io_events(work) -> List[str]:
    """The I/O audit events ``work()`` fires."""
    global _RECORDED, _HOOKED
    if not _HOOKED:
        sys.addaudithook(_hook)
        _HOOKED = True
    _RECORDED = []
    try:
        work()
        return _RECORDED
    finally:
        _RECORDED = None


CONFIG = SystemConfig(n=4, t=1)

#: One instance (and the horizon it runs to) per ``AutomatonProtocol``
#: subclass in ``src/``; a new subclass fails the coverage test below
#: until it is added here.
AUTOMATA = {
    ApproximateAgreementAutomaton: lambda: (
        ApproximateAgreementAutomaton(CONFIG, grid=range(5), rounds=2), 2
    ),
    ExponentialAgreementAutomaton: lambda: (
        ExponentialAgreementAutomaton(CONFIG, (0, 1)), CONFIG.t + 1
    ),
    FullInformationAutomaton: lambda: (
        FullInformationAutomaton(
            CONFIG, (0, 1),
            decision_rule=make_eig_decision_rule(CONFIG.t, default=0),
            horizon=CONFIG.t + 1,
        ),
        CONFIG.t + 1,
    ),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _source_automata():
    """Every ``AutomatonProtocol`` subclass defined under ``repro``."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    return {
        cls for cls in _subclasses(AutomatonProtocol)
        if cls.__module__.startswith("repro.")
    }


def _registry_campaign():
    names = tuple(
        name for name in protocol_names()
        if get_spec(name).supports(SystemConfig(n=7, t=2)) is None
    )
    report = run_campaign(
        CampaignSettings(seed=2026, cases=4, protocols=names, n=7, t=2)
    )
    assert report.clean


def _run_three_ways(protocol, horizon, adversary=lambda: None):
    """``protocol`` natively and through both transforms."""
    inputs = {
        p: protocol.input_values[p % len(protocol.input_values)]
        for p in CONFIG.process_ids
    }
    run_protocol(
        automaton_factory(protocol), CONFIG, inputs,
        adversary=adversary(), run_full_rounds=horizon,
    )
    full_information_form(protocol, horizon=horizon).run(
        inputs, adversary=adversary()
    )
    canonical_form(protocol, k=1, horizon=horizon).run(
        inputs, adversary=adversary()
    )


def _every_automaton():
    for build in AUTOMATA.values():
        _run_three_ways(*build())


#: Module globals of these types are compared before and after a run.
_PLAIN = (bool, int, float, str, bytes, tuple, list, dict, set, frozenset)


def _traces(protocol):
    """Everything a run could leave behind: the protocol's attributes,
    its class's function defaults and its modules' plain globals."""
    classes = [
        cls for cls in type(protocol).__mro__
        if cls.__module__.startswith("repro.")
    ]
    defaults = {
        f"{cls.__name__}.{name}": (function.__defaults__, function.__kwdefaults__)
        for cls in classes
        for name, function in vars(cls).items()
        if inspect.isfunction(function)
    }
    plain_globals = {
        module: {
            name: value for name, value in vars(sys.modules[module]).items()
            if type(value) in _PLAIN and not name.startswith("__")
        }
        for module in {cls.__module__ for cls in classes}
    }
    return copy.deepcopy((vars(protocol), defaults, plain_globals))


def test_a_run_leaves_no_trace():
    for cls, build in AUTOMATA.items():
        protocol, horizon = build()
        before = _traces(protocol)
        _run_three_ways(
            protocol, horizon, lambda: RandomGarbageAdversary([2])
        )
        assert _traces(protocol) == before, cls.__name__


def test_every_source_automaton_is_exercised():
    assert _source_automata() == set(AUTOMATA)


def test_protocol_runs_do_no_io(capfd):
    # Warm every lazy import first: an import opens its source file.
    _registry_campaign()
    _every_automaton()
    capfd.readouterr()
    assert _io_events(_registry_campaign) == []
    assert _io_events(_every_automaton) == []
    out, err = capfd.readouterr()
    assert (out, err) == ("", "")

"""Plant each class of determinism, purity, input-validation and memo-key
bug as a mutant; see which runtime check kills it.

A mutant is one small, deliberate bug: a find string in one file and
its replacement.  For each mutant this script copies the repository
into a temporary directory, applies the edit, then runs the runtime
checks in order: CI's fuzz-smoke corpus replay and registry campaigns
at n = 9 and n = 13, then tier-1 (``pytest -x -q`` without the anchor
test below), its run checks first: ``test_no_io.py`` (no I/O, no
state left behind) and ``test_determinism.py`` (the two-process
hash-seed replay).  The first check that fails kills the mutant; a
check that outlives its wall-clock cap is reported as ``cap hit``,
not as a kill.  A first ``(control)`` row runs the unmutated copy,
which must survive.

Run it from anywhere, with no arguments: ``python tools/mutants.py``
(about 15 minutes on two cores, plus one tier-1 run per mutant that
no run check kills).  It needs no PYTHONPATH.
``tests/test_mutant_anchors.py`` checks that every find string occurs
exactly once, so code motion cannot turn a mutant into a no-op.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    #: The retired static-analysis pass whose finding class it plants
    #: (DET, PUR or TAINT): each row is evidence that a runtime check
    #: kills what that pass used to flag.  MEMO rows drop a field a
    #: memo's answer depends on from its key, which no pass flagged.
    family: str
    path: str
    find: str
    replace: str


_PK, _ST = "agreement/phase_king.py", "agreement/srikanth_toueg.py"
_ES, _AP = "agreement/early_stopping.py", "agreement/approximate.py"
_OBS, _CAMPAIGN = "obs/core.py", "fuzz/campaign.py"
_APPROX_DECISION = (
    "    def decision(self, process_id: ProcessId, state: Any) -> Value:\n"
    "        round_number, value = self._parse(state)\n"
)
_APPROX_MIDPOINT = "        midpoint = _trimmed_midpoint(values, self.config.t)\n"

MUTANTS = tuple(Mutant(id, family, "src/repro/" + path, find, replace) for (
    id, family, path, find, replace,
) in (
    ("pk-king-raw", "TAINT", _PK, "king_bit = _as_bit(incoming[king])",
     "king_bit = incoming[king]"),
    ("crusader-r1-bypass", "TAINT", "agreement/crusader.py",
     "if self._scalar(message):", "if message is not None:"),
    ("st-bypass", "TAINT", _ST, "if not self._well_formed(item):",
     "if not (isinstance(item, tuple) and len(item) == 4):"),
    ("driver-bypass", "TAINT", "compact/driver.py",
     "if not self._usable(main, depth, block):", "if main is BOTTOM:"),
    ("compact-gate-bypass", "TAINT", "compact/protocol.py",
     "core = self._value_gate.admit(main, expected_depth)", "core = main"),
    ("row-memo-phase", "MEMO", "compact/protocol.py",
     "(block, expected_depth, view, tuple(map(id, row)))",
     "(view, tuple(map(id, row)))"),
    ("eig-gate-bypass", "TAINT", "fullinfo/protocol.py",
     "message = gate.admit(incoming[sender], expected_depth)",
     "message = incoming[sender]"),
    ("approx-bypass", "TAINT", _AP, "number = _as_number(incoming[sender])",
     "number = incoming[sender]"),
    ("det-random-tiebreak", "DET", "avalanche/protocol.py",
     "best = min(\n"
     "                (v for v, c in counts.items() if c == best_count), key=repr",
     "import random\n\n            best = random.choice(\n"
     "                [v for v, c in counts.items() if c == best_count]"),
    ("det-clock-run-start", "DET", _OBS,
     "        self.emit(\n            \"run_start\",",
     "        import time\n\n        self.emit(\n"
     "            \"run_start\", started=time.time(),"),
    ("det-garbage-set", "DET", "fuzz/adversary.py", "(\"two\", \"values\"),",
     "tuple({\"two\", \"values\"}),"),
    ("det-random-registered", "DET", _PK,
     "self.value = king_bit if king_bit is not None else 0",
     "import random\n\n                self.value = (\n"
     "                    king_bit if king_bit is not None "
     "else random.randint(0, 1)\n                )"),
    ("det-clock-registered", "DET", "agreement/ben_or.py",
     "        return BenOrProcess(\n            process_id,\n"
     "            config,\n            input_value,\n"
     "            rng=derive_rng(seed,",
     "        import time\n\n        return BenOrProcess(\n"
     "            process_id,\n            config,\n            input_value,\n"
     "            rng=derive_rng(time.time_ns(),"),
    ("det-set-registered", "DET", _ST,
     "        items = self.primitive.outgoing_items(round_number)\n",
     "        items = self.primitive.outgoing_items(round_number)\n"
     "        kinds = [kind for kind in {\"init\", \"echo\"}]\n"
     "        items = frozenset(sorted(\n"
     "            items, key=lambda item: (kinds.index(item[0]), repr(item))\n"
     "        )[: self.config.n])\n"),
    ("det-random-unregistered", "DET", _ES,
     "self.decide(min(self.values, key=repr), round_number)",
     "import random\n\n            self.decide(\n"
     "                random.choice(sorted(self.values, key=repr)), "
     "round_number\n            )"),
    ("det-clock-unregistered", "DET", _AP,
     "values.append(number if number is not None else self.value)",
     "import time\n\n            values.append(\n"
     "                number if number is not None\n"
     "                else self.value + time.time() % 1e-6\n            )"),
    ("det-set-unregistered", "DET", _ES,
     "        return broadcast(self.values, self.config)\n",
     "        texts = [text for text in {repr(value) for value in self.values}]\n"
     "        relayed = frozenset(\n            value for value in self.values\n"
     "            if repr(value) in texts[: self.config.t + 1]\n        )\n"
     "        return broadcast(relayed, self.config)\n"),
    ("det-numpy-registered", "DET", "agreement/ben_or.py",
     "int(self._rng.integers(0, 2))", "int(np.random.randint(0, 2))"),
    ("det-pop-unregistered", "DET", _ES, "min(self.values, key=repr)",
     "next(iter(self.values))"),
    ("det-random-worker", "DET", _CAMPAIGN,
     "case_seed = int(rng.integers(0, 2 ** 31))",
     "import random\n\n        case_seed = random.randrange(2 ** 31)"),
    ("det-clock-worker", "DET", _OBS, "self._run = f\"r{self._run_seq}\"",
     "import time\n\n        "
     "self._run = f\"r{self._run_seq}-{int(time.time() * 1000)}\""),
    ("det-set-worker", "DET", _CAMPAIGN,
     "for name in settings.protocols:\n        spec = get_spec(name)\n",
     "for name in set(settings.protocols):\n        spec = get_spec(name)\n"),
    ("pur-self-decision", "PUR", _AP,
     "            return BOTTOM\n        return value\n",
     "            return getattr(self, \"_decided\", BOTTOM)\n"
     "        self._decided = value\n        return value\n"),
    ("pur-worker-global", "PUR", "analysis/parallel.py",
     "def run_cell(context: SweepContext, cell: SweepCell) -> SweepOutcome:\n",
     "_CELLS = 0\n\n\n"
     "def run_cell(context: SweepContext, cell: SweepCell) -> SweepOutcome:\n"
     "    global _CELLS\n    _CELLS += 1\n"
     "    cell = dataclasses.replace(cell, seed=cell.seed + _CELLS % 2)\n"),
    ("pur-print-message", "PUR", "fullinfo/protocol.py",
     "        return state  # broadcast the entire state",
     "        print(\"message\", sender, receiver)\n"
     "        return state  # broadcast the entire state"),
    ("pur-mutable-default", "PUR", _AP,
     "    def _snap(self, value: float) -> int:\n        return min(self._grid,",
     "    def _snap(self, value: float, _memo={}) -> int:\n"
     "        if value not in _memo:\n            _memo[value] = min(\n"
     "                self._grid,\n"
     "                key=lambda point: (abs(point - value), point))\n"
     "        return _memo[value]\n        return min(self._grid,"),
    ("pur-self-write", "PUR", _AP, _APPROX_MIDPOINT,
     _APPROX_MIDPOINT + "        self._grid = [\n"
     "            point for point in self._grid\n"
     "            if min(values) <= point <= max(values)\n"
     "        ] or self._grid\n"),
    ("pur-global-write", "PUR", _AP, _APPROX_MIDPOINT,
     _APPROX_MIDPOINT + "        global _LAST_MIDPOINT\n"
     "        midpoint = (midpoint + globals().get(\"_LAST_MIDPOINT\", "
     "midpoint)) / 2\n        _LAST_MIDPOINT = midpoint\n"),
    ("pur-automaton-default", "PUR", _AP, _APPROX_DECISION,
     "    def decision(\n        self, process_id: ProcessId, state: Any, "
     "_memo={}\n    ) -> Value:\n        round_number, value = "
     "_memo.setdefault(repr(state), self._parse(state))\n"),
))

#: CI's registry campaign, over every protocol the registry supports
#: at ``(n, t)`` (.github/workflows/ci.yml, fuzz-smoke).
_REGISTRY = (
    "from repro.fuzz.protocols import get_spec, protocol_names\n"
    "from repro.types import SystemConfig\n"
    "config = SystemConfig(n={n}, t={t})\n"
    "print(' '.join('--protocol ' + name for name in protocol_names()\n"
    "      if get_spec(name).supports(config) is None))"
)

_PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]

#: (name, argv after ``python``, wall-clock cap in seconds, registry n/t).
CHECKS: Tuple[Tuple[str, List[str], int, Optional[Tuple[int, int]]], ...] = (
    ("corpus replay", ["-m", "repro", "fuzz", "--replay", "tests/fuzz/corpus"],
     300, None),
    ("registry n=9", ["-m", "repro", "fuzz", "--seed", "2026", "--cases", "20",
                      "--n", "9", "--t", "2"], 600, (9, 2)),
    ("registry n=13", ["-m", "repro", "fuzz", "--seed", "2026", "--cases", "3",
                       "--n", "13", "--t", "4"], 600, (13, 4)),
    ("tier-1 run checks", _PYTEST + ["tests/integration/test_no_io.py",
                                     "tests/integration/test_determinism.py"],
     300, None),
    # The anchor test fails on every mutant by construction.
    ("tier-1", _PYTEST + ["--ignore=tests/test_mutant_anchors.py"], 600, None),
)
_CAMPAIGN_FLAGS = ["--workers", "2", "--shrink", "--corpus", "fuzz-artifacts"]


def _run(argv: List[str], cwd: Path, cap: int) -> Tuple[Optional[int], str]:
    """``(exit code, output)``; the code is ``None`` when the cap hit."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    process = subprocess.Popen(
        [sys.executable, *argv], cwd=cwd, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return None, ""
    return process.returncode, output


#: A frame of a test function in a faulthandler stack.
_TEST_FRAME = re.compile(r'^File ".*/tests/.*", line \d+ in test_')

#: The temp copy's root, ``<tmp>/mutant-<random>/repo/``, in a path.
_COPY_ROOT = re.compile(r'[^\s"]*/mutant-[^/\s"]*/repo/')


def _reason(output: str) -> str:
    """The line of ``output`` that says what failed, as a table cell.

    A check ended by a test's own alarm prints no pytest marker, only
    faulthandler's stack, most recent call first: its first frame in a
    test function names the test.  Paths into the temp copy are made
    repo-relative, so a row reads the same on every run.
    """
    lines = [line.strip() for line in output.splitlines() if line.strip()]
    for marker in ("FAILED ", "ERROR ", "FAIL", "Error"):
        for line in lines:
            if marker in line:
                return _cell(line)
    for line in lines:
        if _TEST_FRAME.match(line):
            return _cell(line)
    return _cell(lines[-1]) if lines else "(no output)"


def _cell(line: str) -> str:
    """``line`` repo-relative, cut to 160 characters, with no ``|``."""
    return _COPY_ROOT.sub("", line)[:160].replace("|", "/")


def judge(mutant: Optional[Mutant]) -> str:
    """The runtime verdict for one mutant (``None``: the control)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            "fuzz-artifacts"))
        if mutant is not None:
            target = copy / mutant.path
            source = target.read_text()
            if source.count(mutant.find) != 1:
                return "anchor lost: the find string is not unique"
            target.write_text(source.replace(mutant.find, mutant.replace))
        for name, argv, cap, registry in CHECKS:
            if registry is not None:
                n, t = registry
                code, listing = _run(
                    ["-c", _REGISTRY.format(n=n, t=t)], copy, 120)
                if code != 0:
                    return f"killed: {name}: {_reason(listing)}"
                argv = argv + listing.split() + _CAMPAIGN_FLAGS
            code, output = _run(argv, copy, cap)
            if code is None:
                return f"cap hit: {name} ({cap} s)"
            if code != 0:
                return f"killed: {name}: {_reason(output)}"
        return "survived"


def main() -> int:
    print("| mutant | family | runtime verdict |")
    print("| --- | --- | --- |")
    for mutant in (None, *MUTANTS):
        verdict = judge(mutant)
        name, family = (mutant.id, mutant.family) if mutant else ("(control)", "-")
        print(f"| `{name}` | {family} | {verdict} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

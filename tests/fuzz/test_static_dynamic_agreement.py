"""Static/dynamic cross-validation (satellite of ISSUE 6).

protoflow certifies protocols canonical *statically*; the fuzz corpus
exercises them *dynamically* against differential oracles.  These
tests tie the two together: replaying the regression corpus must not
produce an oracle violation in any protocol whose committed
certificate passes ``is_certified_canonical`` — if it ever does,
either the oracle or the static analysis is wrong, and that
disagreement is exactly the signal worth failing loudly on.
"""

import json
import pathlib

import pytest

from repro.fuzz.campaign import replay_case
from repro.fuzz.case import load_corpus
from repro.fuzz.protocols import get_spec, protocol_names

from tests.statics.test_certificates import is_certified_canonical

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CERTIFICATES = REPO_ROOT / "tools" / "protoflow_certificates.json"

_ENTRIES = load_corpus(CORPUS_DIR)


@pytest.fixture(scope="module")
def certificates():
    return json.loads(CERTIFICATES.read_text(encoding="utf-8"))["protocols"]


def test_every_fuzz_target_maps_to_committed_certificates(certificates):
    for name in protocol_names():
        keys = get_spec(name).certificates
        assert keys, f"{name} declares no certificate"
        for key in keys:
            assert key in certificates, f"{name} maps to unknown {key}"


@pytest.mark.parametrize(
    "path,case",
    _ENTRIES,
    ids=[path.name for path, _ in _ENTRIES],
)
def test_no_corpus_violation_touches_a_certified_protocol(
    path, case, certificates
):
    outcome = replay_case(case)
    if not outcome.violations:
        return
    involved = get_spec(case.protocol).certificates
    certified = [
        key for key in involved if is_certified_canonical(certificates[key])
    ]
    assert not certified, (
        f"{path.name}: oracle violations {outcome.violations} in a run "
        f"of statically certified protocol(s) {certified} — the "
        "certificate and the dynamic oracle disagree; one of them is "
        "wrong"
    )


def test_corpus_exercises_certified_canonical_protocols(certificates):
    # The cross-check above is vacuous if nothing in the corpus is
    # certified; pin that replayed targets include canonical ones.
    assert _ENTRIES, "fuzz regression corpus is empty"
    exercised = {
        key
        for _, case in _ENTRIES
        for key in get_spec(case.protocol).certificates
    }
    assert any(
        is_certified_canonical(certificates[key]) for key in exercised
    )

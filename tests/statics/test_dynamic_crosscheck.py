"""Static FLOW certificates vs dynamic closedness — the agreement gate.

Every corpus case replays under a tracing observer; the observed
execution must be communication-closed whenever protoflow certified
(or a human waived) the protocol text.  A disagreement here means
either the tracer, the static analysis, or the protocol regressed —
it fails the suite, it is never a warning.
"""

import pathlib

from repro.fuzz.case import load_corpus
from repro.fuzz.protocols import get_spec, protocol_names
from repro.statics.crosscheck import (
    DEFAULT_CERTIFICATES,
    check_case,
    cross_check_corpus,
    load_certificates,
    render_cross_check,
)

CORPUS = pathlib.Path("tests/fuzz/corpus")


class TestCertificateCatalog:
    def test_committed_catalog_loads(self):
        certificates = load_certificates()
        assert certificates

    def test_every_fuzz_protocol_maps_to_known_certificates(self):
        certificates = load_certificates()
        for protocol in protocol_names():
            keys = get_spec(protocol).certificates
            assert keys, f"{protocol} is certified by nothing"
            for key in keys:
                entry = certificates.get(key)
                assert entry is not None, (protocol, key)
                assert entry["flow"]["verdict"] in (
                    "closed", "waived", "open"
                )


class TestCorpusCrossCheck:
    def test_every_corpus_case_agrees_with_its_certificate(self):
        """The acceptance gate: no static/dynamic disagreement."""
        report = cross_check_corpus(CORPUS)
        assert report["cases"], "corpus unexpectedly empty"
        rendered = render_cross_check(report)
        assert report["ok"], rendered
        assert report["disagreements"] == []

    def test_replays_produce_real_traces(self):
        certificates = load_certificates(DEFAULT_CERTIFICATES)
        for _path, case in load_corpus(CORPUS):
            entry = check_case(case, certificates)
            assert entry["deliver_edges"] > 0, entry["case"]
            assert entry["static"], entry["case"]

    def test_certified_closed_case_reports_closed_dynamics(self):
        certificates = load_certificates()
        checked = [
            check_case(case, certificates)
            for _path, case in load_corpus(CORPUS)
        ]
        certified = [
            entry for entry in checked
            if any(v == "closed" for v in entry["static"].values())
        ]
        assert certified
        for entry in certified:
            assert entry["dynamic"] == "closed", entry
            assert entry["problems"] == []

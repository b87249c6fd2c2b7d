"""The event log: the schema, sinks, and validation."""

import enum
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import status_from_records
from repro.obs.core import Observer
from repro.obs.events import (
    EVENT_FIELDS,
    NONDETERMINISTIC_KINDS,
    SCHEMA_VERSION,
    EventLog,
    json_safe,
    read_log,
    scan_log,
    validate_record,
)
from repro.types import BOTTOM


def _record(kind="round_start", step=1, **fields):
    base = {"v": SCHEMA_VERSION, "kind": kind, "run": "r1", "round": 0,
            "step": step}
    base.update(fields)
    return base


class TestJsonSafe:
    def test_scalars_pass_through(self):
        for value in (None, True, 0, 1.5, "x"):
            assert json_safe(value) is value

    def test_structures_become_repr(self):
        assert json_safe((1, 2)) == "(1, 2)"
        assert json_safe(BOTTOM) == repr(BOTTOM)

    def test_non_finite_floats_become_repr(self):
        # NaN / Infinity have no JSON spelling
        assert json_safe(float("nan")) == "nan"
        assert json_safe(float("inf")) == "inf"
        assert json_safe(float("-inf")) == "-inf"


class TestEventLog:
    def test_in_memory_accumulates(self):
        log = EventLog()
        log.write({"a": 1})
        log.write({"b": 2})
        assert log.records == [{"a": 1}, {"b": 2}]

    def test_streams_to_path(self, tmp_path):
        path = tmp_path / "nested" / "events.jsonl"
        log = EventLog(path)
        log.write(_record())
        log.write(_record(step=2))
        log.close()
        assert log.records == []  # streamed, not retained
        assert read_log(path) == [_record(), _record(step=2)]

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.write(_record())
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == _record()


    def test_closed_streamed_log_raises(self, tmp_path):
        # a closed path-backed log must not turn into a memory sink
        path = tmp_path / "events.jsonl"
        observer = Observer(events=EventLog(path), spans=False)
        observer.emit("round_start")
        observer.close()
        for write in (
            lambda: observer.emit("round_start"),
            lambda: observer.emit(
                "send", sender=1, faulty=False, messages=[[2, 8, True]]
            ),
            lambda: observer.events.write(_record(step=9)),
        ):
            with pytest.raises(ValueError, match="closed file"):
                write()
        assert observer.events.records == []
        assert len(path.read_text().splitlines()) == 1

    def test_closed_memory_log_keeps_recording(self):
        log = EventLog()
        log.close()
        log.write(_record())
        assert log.records == [_record()]

    def test_non_finite_float_is_refused_not_written(self, tmp_path):
        path = tmp_path / "events.jsonl"
        observer = Observer(events=EventLog(path))
        observer.emit("decide", process=1, value=json_safe(float("nan")))
        for value in (float("nan"), float("inf"), [float("-inf")]):
            with pytest.raises(ValueError, match="not JSON compliant"):
                observer.emit("decide", process=1, value=value)
        observer.events.close()
        assert status_from_records(read_log(path))["degraded"] == []
        assert [r["value"] for r in read_log(path)] == ["nan"]

    def test_payload_may_not_shadow_the_envelope(self, tmp_path):
        for log in (EventLog(), EventLog(tmp_path / "events.jsonl")):
            with pytest.raises(ValueError, match="shadow the envelope"):
                Observer(events=log).emit("round_start", step=7)
            log.close()


# -- encoder equivalence ----------------------------------------------------


class _Int(int):
    pass


class _Str(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


_TEXT = st.one_of(
    st.text(),
    # what the default alphabet leaves out or rarely draws: controls and
    # lone surrogates (low ones only — a high one followed by a low one
    # would read back as a single astral character)
    st.text(st.sampled_from(
        ["\udc80", "\udfff", "\x00", "\x1f", "\x7f", "\u2028", "\xe9",
         "\U0001f600", '"', "\\", "/"]
    )),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-10, max_value=10),
    st.floats(allow_nan=False, allow_infinity=False),
    _TEXT,
    st.integers().map(_Int),
    _TEXT.map(_Str),
    st.just(_Level.LOW),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=8,
)
@st.composite
def _events(draw):
    """One event: ``(run?, round, kind, fields)`` with arbitrary values."""
    kind = draw(st.sampled_from(sorted(EVENT_FIELDS)))
    fields = {name: draw(_VALUES) for name in EVENT_FIELDS[kind]}
    if kind in NONDETERMINISTIC_KINDS:
        fields = dict(nondeterministic=True, **fields)
    return draw(st.booleans()), draw(st.integers(0, 12)), kind, fields


def _replay(observer, events):
    """Emit ``events``, each inside a run of its own when drawn so."""
    for in_run, round_number, kind, fields in events:
        if in_run:
            observer.begin_run(4, 1, 0, "A", [])
        observer.set_round(round_number)
        observer.emit(kind, **fields)
        if in_run:
            observer.end_run(1, 4, 0, 0, 0)


class TestEncoderEquivalence:
    """The streamed line is exactly the stdlib encoding of the record."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_events(), min_size=1, max_size=6))
    def test_streamed_lines_equal_json_dumps_of_memory_records(self, events):
        memory = EventLog()
        _replay(Observer(events=memory), events)
        with tempfile.TemporaryDirectory() as directory:
            streamed = EventLog(f"{directory}/events.jsonl")
            _replay(Observer(events=streamed), events)
            streamed.close()
            with open(streamed.path, newline="") as handle:
                lines = handle.readlines()
        assert lines == [
            json.dumps(record, separators=(", ", ": ")) + "\n"
            for record in memory.records
        ]
        assert [json.loads(line) for line in lines] == memory.records

    def test_traffic_kinds_stream_their_schema_order(self, tmp_path):
        # the network emits ``send`` fields in the schema's order
        from repro.analysis.sweeps import standard_adversary_makers
        from repro.avalanche.protocol import avalanche_factory
        from repro.obs.core import observing
        from repro.runtime.engine import run_protocol
        from repro.types import SystemConfig

        config = SystemConfig(n=4, t=1)
        log = EventLog(tmp_path / "events.jsonl")
        with observing(Observer(events=log)):
            run_protocol(
                avalanche_factory(), config,
                {p: p % 2 for p in config.process_ids},
                adversary=dict(standard_adversary_makers())["splitter"]([4]),
                run_full_rounds=2,
            )
        sends = [r for r in read_log(log.path) if r["kind"] == "send"]
        assert {record["faulty"] for record in sends} == {False, True}
        for record in sends:
            assert list(record)[5:] == list(EVENT_FIELDS["send"])
            assert validate_record(record) == []


class TestValidateRecord:
    def test_valid_round_start(self):
        assert validate_record(_record()) == []

    def test_every_kind_has_a_field_table(self):
        # the closed-schema invariant the validator relies on
        assert "send" in EVENT_FIELDS
        assert NONDETERMINISTIC_KINDS <= set(EVENT_FIELDS)

    def test_missing_envelope_field(self):
        record = _record()
        del record["step"]
        assert any("step" in p for p in validate_record(record))

    def test_wrong_schema_version(self):
        problems = validate_record(_record(v=99))
        assert any("schema version" in p for p in problems)

    def test_unknown_kind_rejected(self):
        problems = validate_record(_record(kind="telemetry"))
        assert problems == ["unknown event kind 'telemetry'"]

    def test_missing_payload_field(self):
        record = _record(kind="send", sender=1, faulty=False)
        problems = validate_record(record)
        assert any("messages" in p for p in problems)

    def test_bool_is_not_an_int(self):
        # bool subclasses int; the schema keeps them apart
        record = _record(kind="send", sender=True, faulty=False, messages=[])
        assert any("sender" in p for p in validate_record(record))

    @pytest.mark.parametrize("faulty,entry", [
        (False, [2, 8, True]),
        (True, [2, 8, True, "(0, 1)"]),
    ])
    def test_send_entries_have_the_sender_kind_shape(self, faulty, entry):
        record = _record(kind="send", sender=1, faulty=faulty,
                         messages=[entry])
        assert validate_record(record) == []
        record["faulty"] = not faulty
        assert validate_record(record) == [
            "send: message 0 is not [receiver, bits, non_null"
            + ("]" if faulty else ", summary]")
        ]

    @pytest.mark.parametrize("entry", [
        [2, 8], [2, 8, 1], [True, 8, True], [2, "8", True], {"2": 8}, 2,
    ])
    def test_malformed_send_entry_rejected(self, entry):
        record = _record(kind="send", sender=1, faulty=False,
                         messages=[[3, 8, True], entry])
        assert validate_record(record) == [
            "send: message 1 is not [receiver, bits, non_null]"
        ]

    @pytest.mark.parametrize("processes,valid", [
        ([1, 2, 3], True), ([], True), ([1, True], False), ([1, "2"], False),
    ])
    def test_state_lists_integer_processes(self, processes, valid):
        record = _record(kind="state", processes=processes)
        assert validate_record(record) == (
            [] if valid else ["state: processes are not all integers"]
        )

    def test_nullable_run(self):
        record = _record()
        record["run"] = None
        assert validate_record(record) == []
        record["run"] = 7
        assert any("run" in p for p in validate_record(record))

    def test_nondeterministic_kind_requires_flag(self):
        record = _record(kind="profile", spans={}, gauges={})
        assert any("nondeterministic" in p for p in validate_record(record))
        record["nondeterministic"] = True
        assert validate_record(record) == []

    def test_deterministic_kind_rejects_flag(self):
        record = _record(nondeterministic=True)
        assert any("wrongly flagged" in p for p in validate_record(record))


class TestValidateRecords:
    def test_step_must_strictly_increase(self):
        records = [_record(step=1), _record(step=1)]
        problems = status_from_records(records)["degraded"]
        assert any("logical clock" in p for p in problems)

    def test_problems_carry_record_index(self):
        problems = status_from_records([_record(kind="nope")])["degraded"]
        assert problems[0].startswith("record 0:")


class TestReadJsonl:
    """One line parser, two sides: ``read_log`` raises at the first bad
    line, ``scan_log`` skips it and names it."""

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="bad.jsonl:1: not valid JSON"):
            read_log(path)

    def test_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not a JSON object"):
            read_log(path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_bare_non_finite_constants(self, tmp_path, constant):
        path = tmp_path / "bad.jsonl"
        record = json.dumps(_record(kind="decide", process=1, value=0.5))
        path.write_text(record.replace("0.5", constant) + "\n")
        with pytest.raises(ValueError, match="not valid JSON") as error:
            read_log(path)
        assert constant in str(error.value)
        assert scan_log(path) == (
            [], [f"{path}:1: not valid JSON: {constant} is not JSON"],
        )

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(_record()) + "\n\n")
        assert len(read_log(path)) == 1
        assert scan_log(path) == ([_record()], [])

    def test_scan_names_each_skipped_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = json.dumps(_record())
        path.write_text(f"{good}\n[1, 2]\n\n{good}\n{good[:9]}")
        records, skipped = scan_log(path)
        assert records == [_record(), _record()]
        assert skipped[0] == f"{path}:2: record is not a JSON object"
        assert skipped[1].startswith(f"{path}:5: not valid JSON")
        assert len(skipped) == 2

    def test_a_line_that_is_not_utf8_is_one_bad_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = json.dumps(_record()).encode()
        path.write_bytes(good + b"\n" + good.replace(b"r1", b"r\xff") + b"\n")
        with pytest.raises(ValueError, match="log.jsonl:2: not valid JSON"):
            read_log(path)
        records, skipped = scan_log(path)
        assert records == [_record()]
        assert skipped[0].startswith(f"{path}:2: not valid JSON")

"""repro.obs — run-scoped observability: events, spans, instruments.

Three pillars, one activation point:

* a **structured event log** (:mod:`repro.obs.events`) — append-only
  JSONL stamped with a logical clock, deterministic and diffable;
* **hierarchical timing spans** (:mod:`repro.obs.spans`) — perf_counter
  aggregates per span path, explicitly nondeterministic;
* an **instrumentation registry** (:mod:`repro.obs.registry`) —
  counters and gauges absorbing the runtime's bit meters and every
  kernel cache's hit/miss split.

The default is the **null observer**: until :func:`~repro.obs.core
.activate` (or the :func:`~repro.obs.core.observing` context manager)
installs an :class:`~repro.obs.core.Observer`, every instrumented
path reduces to one ``is None`` check and produces byte-identical
results to uninstrumented code.  See ``docs/observability.md``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "core": (
        "Observer",
        "activate",
        "active",
        "deactivate",
        "observing",
        "span",
    ),
    "events": (
        "SCHEMA_VERSION",
        "EventLog",
        "log_paths",
        "read_jsonl",
        "read_jsonl_lenient",
        "read_log",
        "validate_records",
    ),
    "export": ("chrome_trace", "speedscope_profile", "validate_chrome_trace"),
    "registry": ("InstrumentRegistry",),
    "rollup": ("load_status", "render_status", "status_from_records"),
    "spans": ("NULL_SPAN", "SpanProfile", "profile_dict"),
    "trace": ("CausalDag", "CausalEdge", "build_dags", "check_closedness"),
})

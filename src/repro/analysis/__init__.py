"""Analytic cost models and the Section 5.6 comparison machinery.

* :mod:`repro.analysis.complexity` — closed-form message-bit models
  for the exponential baseline, the compact protocol (Corollary 10)
  and the Srikanth–Toueg comparator,
* :mod:`repro.analysis.tradeoff` — the ``eps <-> k`` time/communication
  tradeoff,
* :mod:`repro.analysis.compare` — builds the Section 5.6 comparison
  table, analytic and (optionally) measured,
* :mod:`repro.analysis.report` — plain-text table rendering shared by
  the benchmarks and EXPERIMENTS.md.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "complexity": (
        "compact_bits_estimate",
        "eig_total_bits",
        "full_information_message_bits",
        "st_bits_estimate",
    ),
    "tradeoff": (
        "achieved_round_factor",
        "epsilon_table",
        "message_size_exponent",
    ),
    "compare": ("comparison_table", "measured_comparison"),
    "report": ("format_table",),
})

"""Deliberately non-canonical fixture: violates the TAINT rule family.

``GullibleProcess`` relays a received value verbatim (TAINT002) and
decides on it without any sanitizer (TAINT001); the module also
declares a sanitizer that does not exist (TAINT003).  Flow is kept
clean.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.runtime.node import Process
from repro.types import ProcessId, Round, SystemConfig, Value

TAINT_SANITIZERS = {
    "_missing_check": "claims to validate receptions but is never defined",
}

# No size declaration: message sizes are judged on fuzzed runs.


class GullibleProcess(Process):
    """Echoes whatever the lowest-id sender said, then decides on it."""

    def __init__(
        self, process_id: ProcessId, config: SystemConfig, input_value: Value
    ):
        super().__init__(process_id, config)
        self.echo: Any = input_value

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return {pid: self.echo for pid in self.config.process_ids}

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        self.echo = incoming[self.config.process_ids[0]]
        if round_number >= 2 and not self.has_decided():
            self.decide(self.echo, round_number)

"""The adversary interface.

An adversary owns a fixed set of faulty processors for the whole
execution (the paper's fault set ``F``) and, each round, chooses the
messages those processors deliver to every destination.  It is handed
a :class:`RoundContext` exposing:

* the system configuration and the inputs (including the faulty
  processors' own inputs, which exist in the input vector ``I``),
* the messages all *correct* processors are sending this round —
  fixed before the adversary speaks, so the adversary "rushes",
* read access to correct processors' protocol objects for
  state-inspecting strategies (e.g. a vote splitter that keeps the
  correct population divided).

Correct-process code never sees this module; the network applies it.
"""

from __future__ import annotations

import abc
import types
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Union,
)

from repro.errors import ConfigurationError
from repro.runtime.rng import make_rng
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value

if TYPE_CHECKING:
    import numpy as np


class RoundContext:
    """Everything an adversary may look at when choosing messages."""

    def __init__(
        self,
        config: SystemConfig,
        round_number: Round,
        correct_outgoing: Mapping[ProcessId, Mapping[ProcessId, Any]],
        processes: Mapping[ProcessId, Any],
        inputs: Mapping[ProcessId, Value],
    ):
        self.config = config
        self.round_number = round_number
        # Read-only views, not copies: the network delivers from these
        # same dicts *after* the adversary speaks, so a mutating
        # strategy writing through this mapping would silently corrupt
        # correct processors' sends.  MappingProxyType blocks writes at
        # zero copying cost (contexts are built every round).
        self._correct_outgoing = types.MappingProxyType({
            sender: types.MappingProxyType(messages)
            for sender, messages in correct_outgoing.items()
        })
        self._processes = processes
        self.inputs = dict(inputs)

    @property
    def correct_outgoing(
        self,
    ) -> Mapping[ProcessId, Mapping[ProcessId, Any]]:
        """All correct traffic this round, as a read-only mapping."""
        return self._correct_outgoing

    def correct_message(self, sender: ProcessId, receiver: ProcessId) -> Any:
        """The message a correct ``sender`` is sending ``receiver`` now."""
        sender_row = self._correct_outgoing.get(sender)
        if sender_row is None:
            return BOTTOM
        return sender_row.get(receiver, BOTTOM)

    def correct_senders(self) -> Iterable[ProcessId]:
        """Ids of correct processors with traffic this round."""
        return self._correct_outgoing.keys()

    def sample_correct_message(self, receiver: ProcessId) -> Any:
        """Any one correct processor's message to ``receiver``.

        Convenient for strategies that mimic plausible traffic; returns
        :data:`BOTTOM` if no correct processor sent anything.
        """
        for sender in sorted(self._correct_outgoing):
            message = self._correct_outgoing[sender].get(receiver, BOTTOM)
            if message is not BOTTOM:
                return message
        return BOTTOM

    def process(self, process_id: ProcessId) -> Any:
        """Read access to a correct processor's protocol object."""
        return self._processes.get(process_id)


class Adversary(abc.ABC):
    """Chooses the faulty processors' messages each round."""

    def __init__(self, faulty_ids: Iterable[ProcessId]):
        self.faulty_ids = frozenset(faulty_ids)
        self._rng: Optional[np.random.Generator] = None
        self._make_rng: Callable[[], np.random.Generator] = make_rng
        self._config: Optional[SystemConfig] = None

    def bind(
        self,
        config: SystemConfig,
        rng: Union[np.random.Generator, Callable[[], np.random.Generator]],
    ) -> None:
        """Attach configuration and an RNG substream (engine calls this).

        ``rng`` is the substream itself or a function building it; the
        engine passes the latter, so a strategy that never draws never
        builds a generator (nor imports numpy).
        """
        if len(self.faulty_ids) > config.t:
            raise ConfigurationError(
                f"adversary corrupts {len(self.faulty_ids)} processors but "
                f"t={config.t}"
            )
        for process_id in self.faulty_ids:
            if not 1 <= process_id <= config.n:
                raise ConfigurationError(
                    f"faulty id {process_id} outside 1..{config.n}"
                )
        self._config = config
        if callable(rng):
            self._rng, self._make_rng = None, rng
        else:
            self._rng = rng

    @property
    def rng(self) -> np.random.Generator:
        """The adversary's RNG substream, built on first use and kept.

        Unbound, it is ``make_rng(0)``.
        """
        if self._rng is None:
            self._rng = self._make_rng()
        return self._rng

    @property
    def config(self) -> SystemConfig:
        if self._config is None:
            raise ConfigurationError("adversary used before bind()")
        return self._config

    @abc.abstractmethod
    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        """Messages faulty ``sender`` delivers this round.

        Destinations omitted from the returned map deliver
        :data:`BOTTOM` (i.e. the recipient detects a missing message,
        as the synchronous model permits).
        """

    def observe_round(
        self,
        round_number: Round,
        context: RoundContext,
        faulty_outgoing: Mapping[ProcessId, Mapping[ProcessId, Any]],
    ) -> None:
        """Hook called once per round after all messages are fixed.

        Benign-fault adversaries (crash, omission) run "ghost" copies
        of the real protocol for their processors; this hook feeds the
        ghosts their incoming messages so they stay in step.  The
        default is a no-op.
        """


class PassiveAdversary(Adversary):
    """No faults at all — the fault-free baseline execution."""

    def __init__(self) -> None:
        super().__init__(faulty_ids=())

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        raise AssertionError("PassiveAdversary owns no processors")

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
        # zero copying cost (contexts are built every round).  A
        # Broadcast row is wrapped too: its items refuse writes, but its
        # ``message`` slot is the one delivery reads, and only the proxy
        # keeps a strategy from reassigning it.
        self._correct_outgoing = types.MappingProxyType({
            sender: types.MappingProxyType(messages)
            for sender, messages in correct_outgoing.items()
        })
        self._processes = processes
        self.inputs: Mapping[ProcessId, Value] = types.MappingProxyType(inputs)

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


# Builds a ghost process: (process_id, config, input_value) -> Process.
GhostFactory = Callable[[ProcessId, SystemConfig, Value], Any]


class GhostAdversary(Adversary):
    """Honest **ghost** copies of the protocol for the faulty ids.

    Each ghost is built with the same factory as the correct
    processors and fed exactly the messages a real processor in its
    position would receive, so its ``outgoing`` is what an honest
    processor would send.  A benign fault model (crash, omission) is
    then only its drop rule, :meth:`_deliver`, and when a ghost stops
    taking steps, :meth:`_steps`.
    """

    def __init__(self, faulty_ids: Iterable[ProcessId], factory: GhostFactory):
        super().__init__(faulty_ids)
        self._factory = factory
        self._ghosts: Optional[Dict[ProcessId, Any]] = None

    def ghost(self, process_id: ProcessId) -> Any:
        """The ghost process object (for tests), or ``None`` pre-start."""
        if self._ghosts is None:
            return None
        return self._ghosts.get(process_id)

    def _steps(self, process_id: ProcessId, round_number: Round) -> bool:
        """Whether ``process_id``'s ghost sends and receives this round."""
        return True

    @abc.abstractmethod
    def _deliver(
        self, round_number: Round, sender: ProcessId, honest: Dict[ProcessId, Any]
    ) -> Dict[ProcessId, Any]:
        """The part of a ghost's honest messages that is delivered."""

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        if self._ghosts is None:
            self._ghosts = {
                process_id: self._factory(
                    process_id, self.config, context.inputs[process_id]
                )
                for process_id in sorted(self.faulty_ids)
            }
        if not self._steps(sender, round_number):
            return {}
        honest = dict(self._ghosts[sender].outgoing(round_number))
        return self._deliver(round_number, sender, honest)

    def observe_round(
        self,
        round_number: Round,
        context: RoundContext,
        faulty_outgoing: Mapping[ProcessId, Mapping[ProcessId, Any]],
    ) -> None:
        """Feed each stepping ghost its incoming messages.

        A ghost's view combines correct traffic (from the context) and
        what fellow faulty processors delivered to it (a crashed peer
        that cut its broadcast reaches ghosts per the same cut).
        """
        if self._ghosts is None:
            return
        for process_id, ghost in self._ghosts.items():
            if not self._steps(process_id, round_number):
                continue
            incoming: Dict[ProcessId, Any] = {}
            for sender in self.config.process_ids:
                if sender in self.faulty_ids:
                    incoming[sender] = faulty_outgoing.get(sender, {}).get(
                        process_id, BOTTOM
                    )
                else:
                    incoming[sender] = context.correct_message(sender, process_id)
            ghost.receive(round_number, incoming)


class PassiveAdversary(Adversary):
    """No faults at all — the fault-free baseline execution."""

    def __init__(self) -> None:
        super().__init__(faulty_ids=())

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        raise AssertionError("PassiveAdversary owns no processors")

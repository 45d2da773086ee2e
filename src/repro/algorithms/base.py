"""The automaton contract every consensus algorithm implements.

The kernel drives each process's automaton through rounds: first
:meth:`Automaton.payload` (send phase), then :meth:`Automaton.deliver_view`
(receive phase, handed a structured :class:`~repro.sim.view.RoundView`).
Automata are strictly deterministic — their behaviour is a function of
(pid, n, t, proposal) and the delivered messages — which is what makes
run views comparable across schedules.

``deliver_view`` is the one receive hook.  Callers holding a flat,
already-ordered message tuple (the reference kernel, hand-built test
inboxes) wrap it with :meth:`~repro.sim.view.RoundView.from_messages`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import AlgorithmError
from repro.types import Payload, ProcessId, Round, Value, validate_system_size

if TYPE_CHECKING:  # import cycle: repro.sim.view never imports algorithms
    from repro.sim.phase1_plane import Phase1Plane, PlaneRounds
    from repro.sim.view import RoundView


class Automaton(ABC):
    """One process's deterministic state machine.

    Subclasses implement :meth:`payload` and :meth:`deliver_view`, report
    decisions via :meth:`_decide`, and signal that the process *returns*
    from the consensus invocation via :meth:`_halt` (after which the kernel
    stops driving the automaton — it sends nothing and receives nothing).
    """

    #: The run's shared Phase-1 plane once :meth:`bind_phase1_plane`
    #: ran, else ``None`` (per-automaton delivery).
    _plane: "Phase1Plane | None" = None

    def __init__(self, pid: ProcessId, n: int, t: int, proposal: Value):
        validate_system_size(n, t)
        if not 0 <= pid < n:
            raise AlgorithmError(f"pid {pid} out of range 0..{n - 1}")
        self.pid = pid
        self.n = n
        self.t = t
        self.proposal = proposal
        self._decision: Value | None = None
        self._decision_round: Round | None = None
        self._halted = False

    # -- kernel-facing API ---------------------------------------------------

    @abstractmethod
    def payload(self, k: Round) -> Payload | None:
        """The payload to broadcast in round *k*.

        Returning ``None`` means the algorithm generates no message; the
        kernel substitutes a dummy (the paper's footnote 1 keeps the
        all-to-all exchange pattern alive for suspicion semantics).
        """

    @abstractmethod
    def deliver_view(self, k: Round, view: "RoundView") -> None:
        """Process the messages received in round *k* (receive phase).

        *view* carries the round-k messages delivered in round k **and**
        any earlier-round messages whose delayed delivery lands in round
        k, pre-partitioned: current items by tag, delayed items
        separate, the present-sender set; ``view.messages`` is the same
        delivery as one canonically ordered flat tuple.  Round-based
        algorithms typically act on current-round items and on control
        messages such as DECIDE regardless of age.  See
        :class:`~repro.sim.view.RoundView`.
        """

    def bind_phase1_plane(self, plane: "Phase1Plane") -> None:
        """Accept the run's shared plane (kernel, once per run, only for
        classes with :meth:`plane_rounds`)."""
        self._plane = plane

    @classmethod
    def plane_rounds(cls, t: int) -> "PlaneRounds | None":
        """What the run plane may claim of this class's rounds; ``None``
        (the default) opts the class out of the plane.

        Declaring anything is the whole opt-in, and this contract
        (:mod:`repro.sim.phase1_plane`), for rounds in which no process
        has decided:

        * In a ``compute`` round the automaton's payload is
          ``self.state.payload(k)`` and its receive phase is
          ``compute()`` and nothing else.  A class with ``compute``
          rounds keeps an :class:`~repro.algorithms.suspicion.
          EstimateState` at ``self.state`` for the run's lifetime, every
          ESTIMATE payload it sends is ``self.state.payload(k)``, and
          its Phase-1 state changes go through
          ``self._plane.compute_view`` when a plane is bound.
        * In a round a fold owns, the automaton's payload and receive
          phase are what that :class:`~repro.sim.phase1_plane.RoundFold`
          reproduces; the receive phase may decide but never halts.

        The plane then sends and receives those rounds itself: neither
        :meth:`payload` nor :meth:`deliver_view` is called.  A subclass
        that breaks any of this must return ``None`` (or drop the rounds
        it changes).
        """
        return None

    # -- decision / halting -----------------------------------------------

    @property
    def decision(self) -> Value | None:
        return self._decision

    @property
    def decision_round(self) -> Round | None:
        return self._decision_round

    @property
    def decided(self) -> bool:
        return self._decision is not None

    @property
    def halted(self) -> bool:
        return self._halted

    def _decide(self, value: Value, k: Round) -> None:
        """Record a decision.  Deciding twice with different values is a bug."""
        if self._decision is not None:
            if self._decision != value:
                raise AlgorithmError(
                    f"p{self.pid} decided {self._decision!r} at round "
                    f"{self._decision_round} and now {value!r} at round {k}"
                )
            return
        self._decision = value
        self._decision_round = k

    def _halt(self) -> None:
        self._halted = True

    def __repr__(self) -> str:
        state = "halted" if self._halted else (
            f"decided={self._decision!r}" if self.decided else "running"
        )
        return f"{type(self).__name__}(p{self.pid}, {state})"


AlgorithmFactory = Callable[[ProcessId, int, int, Value], Automaton]
"""Constructor signature shared by all algorithms: (pid, n, t, proposal)."""


def make_automata(
    factory: AlgorithmFactory,
    n: int,
    t: int,
    proposals: Sequence[Value],
) -> list[Automaton]:
    """Instantiate one automaton per process for a run.

    ``proposals[i]`` is process i's proposal; its length must be *n*.
    """
    if len(proposals) != n:
        raise AlgorithmError(
            f"need {n} proposals, got {len(proposals)}"
        )
    return [factory(pid, n, t, proposals[pid]) for pid in range(n)]

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
from typing import TYPE_CHECKING, Callable, ClassVar, Collection, Sequence

from repro.errors import AlgorithmError
from repro.types import Payload, ProcessId, Round, Value, validate_system_size

if TYPE_CHECKING:  # import cycle: repro.sim.view never imports algorithms
    from repro.sim.phase1_plane import Phase1Plane
    from repro.sim.view import RoundView


class Automaton(ABC):
    """One process's deterministic state machine.

    Subclasses implement :meth:`payload` and :meth:`deliver_view`, report
    decisions via :meth:`_decide`, and signal that the process *returns*
    from the consensus invocation via :meth:`_halt` (after which the kernel
    stops driving the automaton — it sends nothing and receives nothing).
    """

    #: The run-level batched-delivery protocol this automaton class
    #: speaks, or ``None`` (the default — per-automaton delivery only).
    #: When every automaton in a run declares the same known protocol,
    #: the kernel builds one shared plane for the run and hands it to
    #: each automaton via :meth:`bind_phase1_plane`; see
    #: :mod:`repro.sim.phase1_plane`.  In the rounds every class in the
    #: run lists in :meth:`phase1_plane_rounds`, and only while nobody
    #: has decided, the plane claims the whole round and the kernel
    #: calls no :meth:`deliver_view` at all.  Declaring a protocol is a
    #: contract about the automaton's state layout and its plane
    #: rounds — subclasses of a declaring class that change Phase-1
    #: state handling must reset this to ``None``.
    phase1_plane_protocol: ClassVar[str | None] = None

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
        """Accept the run's shared Phase-1 plane (kernel, once per run).

        Called only on automata whose class declares a
        :attr:`phase1_plane_protocol`; such classes must override this
        to stash the plane and route their Phase-1 updates through it.
        The base implementation refuses — declaring a protocol without
        implementing the bind is a bug, not a silent fallback.
        """
        raise AlgorithmError(
            f"{type(self).__name__} declares plane protocol "
            f"{type(self).phase1_plane_protocol!r} but does not "
            f"implement bind_phase1_plane"
        )

    @classmethod
    def phase1_plane_rounds(cls, t: int) -> Collection[Round]:
        """The rounds whose receive phase, while no process has decided,
        is exactly the plane's ``compute()`` for every receiver (none by
        default).  Read only for classes declaring a
        :attr:`phase1_plane_protocol`.

        In these rounds, while undecided, :meth:`payload` must be
        ``self.state.payload(k)``: in lean runs the plane builds those
        payloads itself and never calls :meth:`payload`.
        """
        return ()

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

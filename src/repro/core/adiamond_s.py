"""A_◇S — the ◇S transposition of A_{t+2} (paper, Section 5.1 / Figure 3).

The paper shows A_{t+2} transfers to the asynchronous round-based model
enriched with an eventually strong failure detector ◇S via two
modifications (Figure 3, replacing Figure 2's lines 6 and 15): in each
round a process waits for at least n − t messages *and* for a message from
every process its local ◇S module does not currently suspect.

Under the Section-4 simulation that this repository executes — the failure
detector output in round k is exactly the set of processes from which no
round-k message arrived in round k — that receive condition coincides with
ES's t-resilience guarantee, so A_◇S behaves like A_{t+2} driven by the
simulated detector.  What the class adds over :class:`~repro.core.att2.ATt2`
is the explicit ◇S interface: it records the simulated failure-detector
output round by round (:attr:`fd_history`), which the detector property
checkers consume, and defaults the underlying consensus C′ to the
Hurfin–Raynal-style ◇S algorithm, as suggested in the paper ("substitute C
by any ◇S-based consensus algorithm C′").

A_◇S retains fast decision — global decision at round t + 2 in synchronous
runs — because synchronous runs give strictly stronger guarantees than ◇S
asynchronous rounds (Section 5.1).  Its predecessor, the Hurfin–Raynal
algorithm, needs 2t + 2 rounds in its worst synchronous run (experiment E6).
"""

from __future__ import annotations

from repro.algorithms.base import AlgorithmFactory
from repro.algorithms.hurfin_raynal import HurfinRaynalES
from repro.core.att2 import ATt2
from repro.sim.bitset import iter_bits
from repro.sim.phase1_plane import Phase1Plane
from repro.sim.view import RoundView
from repro.types import ProcessId, Round, Value


class ADiamondS(ATt2):
    """A_◇S: A_{t+2} over the simulated ◇S detector (Figure 3).

    Attributes:
        fd_history: per-round output of the simulated failure detector at
            this process — ``fd_history[k]`` is the set of processes
            suspected in round k (no round-k message received in round k).
            The rows are stored as int masks and built into frozensets
            only when this mapping is read.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Value,
        underlying: AlgorithmFactory = HurfinRaynalES,
        allow_unsafe_resilience: bool = False,
    ):
        super().__init__(
            pid,
            n,
            t,
            proposal,
            underlying=underlying,
            allow_unsafe_resilience=allow_unsafe_resilience,
        )
        self._fd_masks: dict[Round, int] = {}

    @property
    def fd_history(self) -> dict[Round, frozenset[ProcessId]]:
        return {
            k: frozenset(iter_bits(mask))
            for k, mask in self._fd_masks.items()
        }

    def bind_phase1_plane(self, plane: Phase1Plane) -> None:
        super().bind_phase1_plane(plane)
        # Rounds the plane claims skip round_deliver_view below (Phase
        # 1, round t + 2, and C's rounds when C is Chandra–Toueg, as the
        # registry's factory makes it), so the plane writes this
        # detector history in them.
        plane.log_suspicions(self.pid, self._fd_masks)

    def round_deliver_view(self, k: Round, view: RoundView) -> None:
        # One mask operation off the view's absent mask; the detector
        # never suspects the process itself.
        self._fd_masks[k] = view.absent_mask & ~(1 << self.pid)
        super().round_deliver_view(k, view)

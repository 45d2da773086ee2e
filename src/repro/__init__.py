"""repro — a reproduction of Dutta & Guerraoui, "The inherent price of indulgence".

The paper (PODC 2002; Distributed Computing 18(1), 2005) proves that
consensus algorithms tolerating unreliable failure detection — *indulgent*
algorithms, formalized in the round-based eventually synchronous model ES —
need **t + 2** rounds to decide even in runs that happen to be synchronous,
one round more than the classic t + 1 bound of the synchronous model; and
it exhibits the matching algorithm A_{t+2}.

This package provides:

* a deterministic round-based simulation substrate for the SCS and ES
  models (:mod:`repro.model`, :mod:`repro.sim`);
* the paper's algorithms — A_{t+2}, its failure-free optimization, the ◇S
  transposition A_◇S, and A_{f+2} (:mod:`repro.core`);
* the published baselines they are measured against — FloodSet,
  FloodSetWS, Chandra–Toueg-style and Hurfin–Raynal-style rotating
  coordinators, the Mostéfaoui–Raynal leader-based algorithm
  (:mod:`repro.algorithms`);
* failure-detector simulation and property checking (:mod:`repro.detectors`);
* the lower-bound machinery — exhaustive serial-run enumeration, valency
  and bivalency computation, the Figure-1 five-run construction
  (:mod:`repro.lowerbound`);
* workload generators and analysis utilities (:mod:`repro.workloads`,
  :mod:`repro.analysis`);
* a batch execution engine — declarative case grids, seeded schedule
  families, parallel execution with serial-identical output
  (:mod:`repro.engine`, ``python -m repro sweep``).

Quickstart::

    from repro import ATt2, Schedule, run_algorithm

    schedule = Schedule.synchronous(n=5, t=2, horizon=10,
                                    crashes={0: (1, [1])})
    trace = run_algorithm(ATt2.factory(), schedule, proposals=[3, 1, 4, 1, 5])
    print(trace.decisions)              # everyone decides 1 ...
    print(trace.global_decision_round())  # ... by round t + 2 = 4
"""

from repro.algorithms import available_algorithms, get_factory, make_automata
from repro.algorithms.base import Automaton
from repro.algorithms.chandra_toueg import ChandraTouegES
from repro.algorithms.early_deciding import EarlyDecidingSCS
from repro.algorithms.floodset import FloodSet
from repro.algorithms.floodset_ws import FloodSetWS
from repro.algorithms.hurfin_raynal import HurfinRaynalES
from repro.algorithms.amr_leader import AMRLeaderES
from repro.core import ADiamondS, AFPlus2, ATt2, ATt2Optimized
from repro.errors import (
    AlgorithmError,
    ConsensusViolation,
    ModelViolation,
    ReproError,
    ScheduleError,
    SimulationError,
)
from repro.engine import (
    BatchResult,
    Case,
    GridSpec,
    expand_grid,
    run_batch,
)
from repro.model import CrashSpec, Message, Schedule, ScheduleBuilder
from repro.model.es import check_es, enforce_es, is_es
from repro.model.scs import check_scs, enforce_scs, is_scs
from repro.sim import (
    CompiledSchedule,
    RoundRecord,
    Trace,
    compile_schedule,
    execute,
)
from repro.sim.kernel import run_algorithm
from repro.types import BOTTOM, is_bottom

__version__ = "1.0.0"

__all__ = [
    # algorithms
    "ATt2", "ATt2Optimized", "ADiamondS", "AFPlus2",
    "FloodSet", "FloodSetWS", "EarlyDecidingSCS",
    "ChandraTouegES", "HurfinRaynalES", "AMRLeaderES",
    "Automaton", "available_algorithms", "get_factory", "make_automata",
    # model
    "Schedule", "ScheduleBuilder", "CrashSpec", "Message",
    "check_es", "enforce_es", "is_es", "check_scs", "enforce_scs", "is_scs",
    # simulation
    "execute", "run_algorithm", "Trace", "RoundRecord",
    "CompiledSchedule", "compile_schedule",
    # batch engine
    "BatchResult", "Case", "GridSpec", "expand_grid", "run_batch",
    # values
    "BOTTOM", "is_bottom",
    # errors
    "ReproError", "ScheduleError", "ModelViolation", "SimulationError",
    "AlgorithmError", "ConsensusViolation",
    "__version__",
]

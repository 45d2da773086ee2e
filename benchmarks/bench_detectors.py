"""E11 — Section 4: ES simulates ◇P (and hence ◇S).

On families of generated schedules, the simulated detector (suspect =
"no current-round message") satisfies:

* on SCS-legal synchronous runs — the *perfect* detector P (this is why
  Halt sets in synchronous runs only ever contain crashed processes,
  Claim 13.1);
* on ES-legal runs — ◇P: strong completeness plus eventual strong
  accuracy, with the accuracy round no later than the schedule's synchrony
  round once crashes have settled.

The census table is :func:`repro.analysis.experiments.detector_simulation`.
"""

from repro.analysis.experiments import detector_simulation, render

from conftest import emit


def test_simulated_detector_properties(benchmark):
    table = benchmark.pedantic(detector_simulation, rounds=1, iterations=1)
    emit(render(table))
    _title, _headers, rows = table
    for prop, satisfied, checked in rows:
        assert satisfied == checked > 0, prop

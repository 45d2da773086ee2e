"""E5 — the headline table: the inherent price of indulgence.

Reproduces the paper's central comparison (Sections 1.3–1.4): worst-case
global decision round over synchronous runs, per algorithm and model.

    FloodSet (SCS)        : t + 1   — the synchronous optimum
    A_{t+2} (ES)          : t + 2   — the paper's algorithm, tight
    A_◇S (ES/◇S)          : t + 2   — Figure 3 transposition
    Hurfin-Raynal (ES/◇S) : 2t + 2  — previously best indulgent algorithm
    Chandra-Toueg (ES/◇S) : 3t + 3  — classic rotating coordinator

The price of indulgence is exactly one round.  The table is
:func:`repro.analysis.experiments.price_of_indulgence`; this bench times
it and asserts every row against its ``paper`` column.
"""

import pytest

from repro.analysis.experiments import price_of_indulgence, render

from conftest import emit


@pytest.mark.smoke
def test_price_of_indulgence(benchmark):
    table = benchmark(price_of_indulgence)
    emit(render(table))
    _title, _headers, rows = table
    for name, worst, expected, _witness in rows:
        assert worst == expected, (name, worst, expected)
    # The headline: one-round gap between SCS optimum and ES optimum.
    by_name = {name: worst for name, worst, _e, _w in rows}
    assert by_name["A_t+2 (ES)"] - by_name["FloodSet (SCS)"] == 1

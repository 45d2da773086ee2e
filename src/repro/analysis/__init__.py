"""Analysis: consensus property checking, sweeps, and table rendering."""

from repro.analysis.metrics import (
    DecisionSummary,
    assert_consensus,
    check_agreement,
    check_consensus,
    check_termination,
    check_validity,
    summarize,
)
from repro.analysis.sweep import SweepRecord, run_case
from repro.analysis.tables import format_records, format_table

__all__ = [
    "DecisionSummary",
    "check_validity",
    "check_agreement",
    "check_termination",
    "check_consensus",
    "assert_consensus",
    "summarize",
    "SweepRecord",
    "run_case",
    "format_table",
    "format_records",
]

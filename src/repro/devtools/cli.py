"""``repro lint`` — the command-line face of :mod:`repro.devtools`.

Argument wiring lives in :mod:`repro.cli` next to the other
subcommands; this module owns the behavior so tests can drive it
without a subprocess.

Exit codes: 0 clean (after noqa filtering), 1 findings, 2 usage error
(unknown path, unknown rule code).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, TextIO

from repro.devtools.analyzer import LintReport, lint_paths
from repro.devtools.rules import Rule, all_rules

__all__ = ["run_lint"]


def _make_select(codes: str | None) -> Callable[[Rule], bool] | None:
    """Build a rule predicate from a ``--select DET001,BIT002`` string."""
    if codes is None:
        return None
    wanted = frozenset(
        code.strip().upper() for code in codes.split(",") if code.strip()
    )
    known = {rule.code for rule in all_rules()}
    unknown = sorted(wanted - known)
    if unknown:
        raise SystemExit(
            f"repro lint: unknown rule code(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return lambda rule: rule.code in wanted


def _print_rules(stream: TextIO) -> None:
    for rule in all_rules():
        scope = "everywhere" if rule.domains is None else (
            ", ".join(rule.domains)
        )
        stream.write(f"{rule.code}  {rule.name}  [{scope}]\n")
        stream.write(f"    {rule.rationale}\n")


def _print_report(report: LintReport, stream: TextIO) -> None:
    for finding in report.findings:
        stream.write(finding.describe() + "\n")
    counts = report.counts_by_code()
    summary = ", ".join(f"{code}: {n}" for code, n in counts.items())
    if report.findings:
        stream.write(
            f"{len(report.findings)} finding(s) in "
            f"{report.files_checked} file(s)"
            + (f" ({summary})" if summary else "")
            + "\n"
        )
    else:
        stream.write(f"clean: {report.files_checked} file(s)\n")


def run_lint(
    args: argparse.Namespace, stream: TextIO | None = None
) -> int:
    """Execute ``repro lint`` for parsed *args*; returns the exit code."""
    out = stream if stream is not None else sys.stdout
    if args.list_rules:
        _print_rules(out)
        return 0

    try:
        select = _make_select(args.select)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    try:
        report = lint_paths(args.paths, select=select)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_data(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    _print_report(report, out)
    return 0 if report.clean else 1


"""Lint findings: what a rule reports.

A :class:`Finding` pins down one rule violation: file, position, rule
code, message, and the stripped source text of the offending line
(reported alongside the position in ``repro lint --json``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: normalized (posix-separator) path of the linted file, as
            as reported to the user.
        line: 1-based line of the violation.
        col: 0-based column of the violation.
        code: the rule code (``DET001``, ``BIT002``, ...).
        message: the human-readable explanation, naming the fix.
        source_line: the stripped text of the offending line.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    source_line: str = ""

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"

    def to_data(self) -> dict:
        """A JSON-safe representation (``repro lint --json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "source_line": self.source_line,
        }

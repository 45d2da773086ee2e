"""Tests for space-time diagram rendering."""

from repro import ATt2, FloodSet, Schedule
from repro.analysis.diagram import render_run
from repro.model.schedule import ScheduleBuilder
from repro.sim.kernel import run_algorithm


class TestRenderRun:
    def test_grid_shape(self):
        schedule = Schedule.failure_free(3, 1, 6)
        trace = run_algorithm(FloodSet, schedule, [1, 2, 3])
        text = render_run(trace)
        lines = text.splitlines()
        assert lines[0].startswith("proc")
        process_rows = [
            line for line in lines
            if line[:2] in {"p0", "p1", "p2"}
        ]
        assert len(process_rows) == 3

    def test_crash_glyph(self):
        schedule = Schedule.synchronous(3, 1, 6, crashes={2: (1, [])})
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        text = render_run(trace)
        p2_line = next(l for l in text.splitlines() if l.startswith("p2"))
        assert "X" in p2_line
        assert "." in p2_line  # silent afterwards

    def test_decision_glyph(self):
        schedule = Schedule.failure_free(3, 1, 6)
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        text = render_run(trace)
        assert "D=1" in text
        assert "H" in text

    def test_delay_annotations(self):
        builder = ScheduleBuilder(3, 1, 8)
        builder.delay(0, 1, 1, 3)
        trace = run_algorithm(ATt2.factory(), builder.build(), [1, 2, 3])
        text = render_run(trace)
        assert "r1 0->1 arrives r3" in text

    def test_crash_round_delay_annotation(self):
        builder = ScheduleBuilder(3, 1, 8)
        builder.crash(0, 1, delayed={1: 3})
        trace = run_algorithm(ATt2.factory(), builder.build(), [1, 2, 3])
        text = render_run(trace)
        assert "(crash-round)" in text

    def test_upto_truncates(self):
        schedule = Schedule.failure_free(3, 1, 6)
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        text = render_run(trace, upto=2)
        assert "r2" in text
        assert "r3" not in text

    def test_title(self):
        schedule = Schedule.failure_free(3, 1, 6)
        trace = run_algorithm(FloodSet, schedule, [1, 2, 3])
        assert render_run(trace, title="hello").startswith("hello")


def render_side_by_side(traces, *, upto=None):
    """Render several runs one after another with their names."""
    return "\n\n".join(
        render_run(trace, upto=upto, title=f"--- {name} ---")
        for name, trace in traces.items()
    )


class TestSideBySide:
    def test_multiple_runs(self):
        schedule = Schedule.failure_free(3, 1, 6)
        a = run_algorithm(FloodSet, schedule, [1, 2, 3])
        b = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        text = render_side_by_side({"floodset": a, "att2": b})
        assert "--- floodset ---" in text
        assert "--- att2 ---" in text


class TestLeanTraceRejected:
    def test_render_run_refuses_lean_traces(self):
        import pytest

        from repro.errors import SimulationError

        trace = run_algorithm(
            FloodSet, Schedule.failure_free(3, 1, 4), [0, 1, 2],
            trace="lean",
        )
        with pytest.raises(SimulationError, match="requires a full trace"):
            render_run(trace)

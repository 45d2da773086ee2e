# fixture-path: src/repro/engine/executors.py
"""ORC002 good: broad catches record the failure; narrow catches may
drop (an OSError on a best-effort touch is legitimately ignorable)."""


def run_attempt(task, failures):
    try:
        return task()
    except Exception as exc:
        failures.append(exc)
        return None


def best_effort_touch(path):
    try:
        path.touch()
    except OSError:
        pass

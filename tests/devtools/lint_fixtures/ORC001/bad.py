# fixture-path: src/repro/engine/executors.py
"""ORC001 bad: a bare except makes the worker loop unkillable."""


def run_attempt(task):
    try:
        return task()
    except:  # noqa: E722 (flake8 code, not ours -- must still fire)
        return None

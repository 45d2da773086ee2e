# fixture-path: src/repro/engine/executors.py
"""ORC001 good: exception types are named, so SIGINT still kills."""


def run_attempt(task, failures):
    try:
        return task()
    except OSError as exc:
        failures.append(exc)
        return None

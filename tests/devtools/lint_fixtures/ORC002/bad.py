# fixture-path: src/repro/engine/executors.py
"""ORC002 bad: the broadest classes swallowed silently."""


def run_attempt(task):
    try:
        return task()
    except Exception:
        pass
    try:
        return task()
    except BaseException:
        pass

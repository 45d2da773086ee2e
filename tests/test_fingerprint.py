"""Tests for the package's one SHA-256 entry point (repro.fingerprint)."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.engine import grids
from repro.engine.grids import (
    RECIPE_SCHEME,
    GridSpec,
    case_seed,
    expand_grid,
    family,
)
from repro.fingerprint import sha256

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Whether the entry point is CPython's builtin module, not hashlib's.
BUILTIN = sha256.__module__ in ("_sha2", "_sha256")

INPUTS = [
    b"",
    b"repro-sweep-cache-v1\natt2",
    "A_{t+2} ◇S ⊥ décide".encode(),
    bytes(range(256)) * 4099,  # just over 1 MB
]


class TestEntryPoint:
    @pytest.mark.parametrize("data", INPUTS, ids=lambda data: str(len(data)))
    def test_equals_hashlib(self, data):
        expected = hashlib.sha256(data)
        assert sha256(data).digest() == expected.digest()
        assert sha256(data).hexdigest() == expected.hexdigest()

    def test_updates_equal_one_shot_hashing(self):
        data = INPUTS[-1]
        digest = sha256(b"")
        for start in range(0, len(data), 4097):
            digest.update(data[start:start + 4097])
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


class TestGridDigests:
    def test_derived_seeds_equal_hashlib(self):
        for master, name, index in [(0, "es", 0), (3, "scs", 17),
                                    (2**40, "es/proposals", 249)]:
            key = f"{master}:{name}:{index}".encode()
            expected = int.from_bytes(
                hashlib.sha256(key).digest()[:8], "big"
            )
            assert case_seed(master, name, index) == expected

    def test_recipe_keys_equal_hashlib(self):
        spec = GridSpec(
            n=5, t=2, algorithms=("att2",),
            families=(family("es", "random_es", count=3),
                      family("ff", "failure_free")),
            seed=11,
        )
        fingerprint = grids.generator_source_hash()
        assert fingerprint is not None
        for case in expand_grid(spec):
            payload = "\n".join(
                (RECIPE_SCHEME, fingerprint, *case.recipe.content())
            )
            assert case.recipe.key() == (
                hashlib.sha256(payload.encode()).hexdigest()
            )


#: Child driver: log every attempt to import hashlib or OpenSSL's module,
#: from this process or any pool worker forked from it, then run the CLI
#: and report which of the two the driver holds when it is done.
_CHILD = """\
import json, os, sys

LOG = sys.argv[1]


class Watch:
    def find_spec(self, name, path=None, target=None):
        if name in ("hashlib", "_hashlib"):
            with open(LOG, "a", encoding="ascii") as log:
                log.write(f"{os.getpid()} {name}\\n")
        return None


sys.meta_path.insert(0, Watch())
from repro.cli import main

rc = main(sys.argv[2:])
loaded = sorted({"hashlib", "_hashlib"} & set(sys.modules))
print(json.dumps({"rc": rc, "loaded": loaded}))
"""


@pytest.mark.skipif(not BUILTIN, reason="no builtin SHA-256 module")
@pytest.mark.parametrize("backend", [
    ("--backend", "serial"),
    ("--backend", "processes", "--workers", "2"),
], ids=["serial", "pooled"])
def test_sweep_never_imports_hashlib(tmp_path, backend):
    log = tmp_path / "imports.log"
    log.touch()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part
    )
    for run in ("cold", "warm"):
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(log),
             "sweep", "--n", "5", "--t", "2", "--cases-per-family", "2",
             *backend, "--cache", str(tmp_path / "cache"),
             "--spool", str(tmp_path / f"{run}.jsonl"),
             "--json", str(tmp_path / f"{run}.json")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"rc": 0, "loaded": []}, run
        assert log.read_text() == "", run
    assert (tmp_path / "cold.json").read_bytes() == (
        tmp_path / "warm.json"
    ).read_bytes()

"""SHA-256 for every content address the package computes.

Cache keys, schedule recipe keys, derived seeds, schedule digests and
source fingerprints are all SHA-256, and all of them come from
:func:`sha256`.  It is the constructor of CPython's builtin SHA-256
module (``_sha2`` from 3.12, ``_sha256`` before), which :mod:`random`
also prefers: importing :mod:`hashlib` maps OpenSSL's libcrypto, which
costs every sweep process 3-4 MB of resident memory.  Only an
interpreter built without the builtin falls back to :mod:`hashlib`.
Either way the digests are the same bytes.

The builtin is several times slower per byte than OpenSSL, so large
inputs are hashed once: :mod:`repro.algorithms.registry` digests each
module's source once per process.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Protocol


class Hash(Protocol):
    """The part of a SHA-256 hash object the package uses."""

    def update(self, data: bytes, /) -> None: ...

    def digest(self) -> bytes: ...

    def hexdigest(self) -> str: ...


def _constructor() -> Callable[[bytes], Hash]:
    # The builtin's name depends on the running interpreter, so it is
    # imported by name: the type checker needs no stub for either.
    name = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    try:
        module = importlib.import_module(name)
    except ImportError:
        from hashlib import sha256 as fallback

        return fallback
    constructor: Callable[[bytes], Hash] = module.sha256
    return constructor


#: ``sha256(data)``: a SHA-256 hash object that has absorbed *data*.
sha256 = _constructor()

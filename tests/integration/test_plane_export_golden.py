"""A pinned export for the four algorithms that run the Phase-1 plane.

The CI pins in ``sweepbench/pins.json`` cover only the default five
algorithms, so ``floodset_ws`` — whose round-(t+1) decision is the edge
of the rounds the plane may claim — had no byte-level guard.  This
sweep runs ``att2``, ``att2_optimized``, ``adiamond_s`` and
``floodset_ws`` at n = 9, t = 4 and must reproduce the digest of the
export written before the kernel let the plane claim whole rounds,
including ``floodset_ws``'s three safety violations on ES schedules
(it is safe only in SCS).
"""

import hashlib

from repro.cli import main

#: SHA-256 of the ``--json`` export of ``ARGS``.
GOLDEN_SHA256 = (
    "8bf0f6f7065ad5cd73c6247b0923a7c11eb2c90bb8f4b896465619272b480490"
)

ARGS = [
    "sweep", "--n", "9", "--t", "4",
    "--algorithms", "att2,att2_optimized,adiamond_s,floodset_ws",
    "--cases-per-family", "40", "--seed", "1", "--backend", "serial",
]

VIOLATIONS = [
    "SAFETY VIOLATIONS in 3 cases:",
    "  - floodset_ws on es[4]@6757808306159132819",
    "  - floodset_ws on es[23]@3499942983271978391",
    "  - floodset_ws on es[29]@935246790174218219",
]


def test_four_plane_algorithms_export_is_pinned(tmp_path, capsys):
    export = tmp_path / "four.json"
    # Exit 1: the sweep reports floodset_ws's violations.
    assert main([*ARGS, "--json", str(export)]) == 1
    out = capsys.readouterr().out
    assert "340 cases (4 algorithms x 85 schedules)" in out
    assert out.rstrip("\n").splitlines()[-len(VIOLATIONS):] == VIOLATIONS
    digest = hashlib.sha256(export.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256

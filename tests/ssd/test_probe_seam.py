"""The event-driven device sees observability through one probe.

The simulator, its FTL controller and that controller's garbage
collector hold one shared ``_probe`` (``None`` on a bare device), and no
module of :mod:`repro.ssd` reads an observability pillar itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.obs import DeviceProbe, Observability
from repro.ssd import SSDConfig
from repro.ssd.simulator import SSDSimulator

SSD = Path(repro.__file__).resolve().parent / "ssd"

#: attributes that name an observability pillar of ``Observability``
PILLARS = frozenset({
    "registry", "telemetry", "flight_recorder", "attribution", "slo",
})


def _pillar_reads(path: Path):
    """(line, attribute) of every pillar attribute read in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in PILLARS:
            yield node.lineno, node.attr


def test_device_layer_reads_no_obs_pillar():
    offenders = [
        f"{path.relative_to(SSD.parent).as_posix()}:{line} reads .{attr}"
        for path in sorted(SSD.rglob("*.py"))
        for line, attr in _pillar_reads(path)
    ]
    assert offenders == []


def _holders(sim):
    return sim._probe, sim.controller._probe, sim.controller.gc._probe


def test_bare_device_holds_no_probe():
    sim = SSDSimulator(SSDConfig.small(), {0: [0, 1], 1: [2, 3]})
    assert _holders(sim) == (None, None, None)


def test_instrumented_device_shares_one_probe():
    sim = SSDSimulator(
        SSDConfig.small(), {0: [0, 1], 1: [2, 3]}, obs=Observability()
    )
    probe, controller_probe, gc_probe = _holders(sim)
    assert isinstance(probe, DeviceProbe)
    assert controller_probe is probe and gc_probe is probe

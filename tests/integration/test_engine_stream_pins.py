"""Pins for the simulator's event stream itself.

Profile and state pins catch a change in what a run recorded; these
catch a change in how the engine got there.  For every capture in
``ENGINE_STREAM_CAPTURES`` the number of engine events, the number of
context switches and the exact final simulated time must match
``engine_pins.json``.  The file was generated before the simulator's
dispatch path was rewritten for speed, so any optimisation of the hot
loop must reproduce the stream event for event.  Regenerate it only for
a change that intends to alter simulated behaviour::

    PYTHONPATH=src python -c "import json, sys; \\
        sys.path.insert(0, 'tests/integration'); \\
        from pinning import ENGINE_STREAM_CAPTURES as C; \\
        print(json.dumps({n: C[n]() for n in sorted(C)}, indent=2))" \\
        > tests/integration/engine_pins.json
"""

import json
from pathlib import Path

import pytest

from .pinning import ENGINE_STREAM_CAPTURES

ENGINE_PINS = json.loads(
    (Path(__file__).parent / "engine_pins.json").read_text())


def test_every_engine_stream_capture_is_pinned():
    assert sorted(ENGINE_PINS) == sorted(ENGINE_STREAM_CAPTURES)


@pytest.mark.parametrize("name", sorted(ENGINE_STREAM_CAPTURES))
def test_engine_stream_matches_pin(name):
    assert ENGINE_STREAM_CAPTURES[name]() == ENGINE_PINS[name], (
        f"the event stream of {name!r} moved: an event was added, "
        f"dropped or reordered")

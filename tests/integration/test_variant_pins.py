"""Pins for the Section 5.2 instrumentation ladder.

Each non-default variant (``off``, ``empty``, ``tsc_only``) is run on
randomread and postmark; the driver-layer profile digest and the exact
final simulated time must match ``variant_pins.json``.  A change to the
per-hook CPU cost of any variant moves the clock, so these pins catch
slips the ``full``-only profile pins cannot see.
"""

import json
from pathlib import Path

import pytest

from .pinning import PINNED_VARIANTS, VARIANT_CAPTURES

VARIANT_PINS = json.loads(
    (Path(__file__).parent / "variant_pins.json").read_text())


def test_every_variant_capture_is_pinned():
    assert sorted(VARIANT_PINS) == sorted(VARIANT_CAPTURES)


@pytest.mark.parametrize("name", sorted(VARIANT_CAPTURES))
def test_variant_run_matches_pin(name):
    assert VARIANT_CAPTURES[name]() == VARIANT_PINS[name], (
        f"variant run {name!r} moved: the per-hook cost of its "
        f"instrumentation variant changed")


def test_variants_are_distinguishable():
    """Every pinned rung differs from every other, per workload."""
    for workload in ("randomread", "postmark"):
        rows = [VARIANT_PINS[f"{workload}-{v}"] for v in PINNED_VARIANTS]
        assert len({row["now"] for row in rows}) == len(rows)
        assert len({row["driver"] for row in rows}) == len(rows)

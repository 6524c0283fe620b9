"""The package's public names: every exported name resolves, no removed one returns."""

import medsched

REMOVED = {
    "Trip",
    "TripSegmentation",
    "Violation",
    "ViolationKind",
    "gap_minutes",
    "ConstraintFlags",
    "constraint_fulfillment",
    "ActOrder",
    "idle_time_ratio",
    "trip_count",
}


def test_every_exported_name_resolves():
    missing = [name for name in medsched.__all__ if not hasattr(medsched, name)]
    assert missing == []


def test_removed_names_stay_removed():
    assert REMOVED.isdisjoint(medsched.__all__)
    assert not any(hasattr(medsched, name) for name in REMOVED)

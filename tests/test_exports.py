"""The package's public names: every exported name resolves, no removed one returns."""

import medsched
from medsched import constraints, model, worldio

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
    "find_overlaps",
    "check_incompatibilities",
    "segment_trips",
    "check_travel_gaps",
    "slots_overlap",
}

# Names that moved to the tests' oracle (``tests/oracle.py``) or beside the
# test that uses them, by the module that defined them.
MOVED = {
    constraints: (
        "find_overlaps",
        "_separation",
        "check_incompatibilities",
        "segment_trips",
        "check_travel_gaps",
        "idle_minutes",
    ),
    model: ("slots_overlap",),
    worldio: ("world_to_dict",),
}


def test_every_exported_name_resolves():
    missing = [name for name in medsched.__all__ if not hasattr(medsched, name)]
    assert missing == []


def test_removed_names_stay_removed():
    assert REMOVED.isdisjoint(medsched.__all__)
    assert not any(hasattr(medsched, name) for name in REMOVED)


def test_moved_names_are_not_defined_in_the_package():
    for module, names in MOVED.items():
        assert [name for name in names if hasattr(module, name)] == [], module.__name__

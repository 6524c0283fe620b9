"""File formats: world/request/solution JSON documents and CSV tables.

Instants appear twice in JSON: as the absolute minute offset (exact integer
used by all arithmetic) and as a ``<day>T<minute-of-day>`` label such as
``"3T630"`` (day 3, 10:30) for human readers.  JSON is dumped with sorted
keys and a trailing newline so identical inputs produce byte-identical
files; CSV uses LF line endings and '.' decimals.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields, replace
from operator import length_hint
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .datagen import World, WorldConfig
from .fitness import PenaltyBreakdown
from .metrics import SolutionMetrics
from .model import (
    MINUTES_PER_DAY,
    ExamType,
    Facility,
    IncompatibilityRule,
    RuleLogic,
    Schedule,
    ScheduleRequest,
    Specialty,
    TimeSlot,
)


class WorldFormatError(ValueError):
    """A world document with an entry that does not describe a valid value."""


class RequestError(ValueError):
    """A malformed request, or one that names exams outside the world's catalogue."""


def instant_label(minutes: int) -> str:
    """Label an absolute minute offset as ``<day>T<minute-of-day>``."""
    return f"{minutes // MINUTES_PER_DAY}T{minutes % MINUTES_PER_DAY}"


def parse_instant_label(label: str) -> int:
    """Inverse of :func:`instant_label`."""
    day_part, _, minute_part = label.partition("T")
    day, minute = int(day_part), int(minute_part)
    if not 0 <= minute < MINUTES_PER_DAY:
        raise ValueError(f"minute-of-day out of range in label {label!r}")
    return day * MINUTES_PER_DAY + minute


def _dump_json(document: dict[str, Any], path: Path) -> None:
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _slot_to_dict(slot: TimeSlot) -> dict[str, Any]:
    return {
        "id": slot.id,
        "exam": slot.exam,
        "facility": slot.facility,
        "room": slot.room,
        "practitioner": slot.practitioner,
        "start": slot.start,
        "start_label": instant_label(slot.start),
        "duration_minutes": slot.duration_minutes,
    }


def _slot_from_dict(entry: dict[str, Any]) -> TimeSlot:
    return TimeSlot(
        id=entry["id"],
        exam=entry["exam"],
        facility=entry["facility"],
        room=entry["room"],
        practitioner=entry["practitioner"],
        start=entry["start"],
        duration_minutes=entry["duration_minutes"],
    )


# The tuple-valued ``WorldConfig`` fields are JSON lists.
_CONFIG_FIELDS = [
    (entry.name, isinstance(entry.default, tuple)) for entry in fields(WorldConfig)
]


def world_to_dict(world: World) -> dict[str, Any]:
    cfg = world.config
    return {
        "config": {
            name: list(getattr(cfg, name)) if is_tuple else getattr(cfg, name)
            for name, is_tuple in _CONFIG_FIELDS
        },
        "exams": [
            {"id": e.id, "name": e.name, "specialty": e.specialty.value}
            for e in world.exams
        ],
        "rules": [
            {
                "first": r.first,
                "second": r.second,
                "logic": r.logic.value,
                "gap_minutes": r.gap_minutes,
            }
            for r in world.rules
        ],
        "facilities": [
            {"id": f.id, "name": f.name, "rooms": list(f.rooms)}
            for f in world.facilities
        ],
        "slots": [_slot_to_dict(s) for s in world.slots],
    }


def _exam_from_dict(entry: dict[str, Any]) -> ExamType:
    return ExamType(
        id=entry["id"], name=entry["name"], specialty=Specialty(entry["specialty"])
    )


def _rule_from_dict(entry: dict[str, Any]) -> IncompatibilityRule:
    return IncompatibilityRule(
        first=entry["first"],
        second=entry["second"],
        logic=RuleLogic(entry["logic"]),
        gap_minutes=entry["gap_minutes"],
    )


def _facility_from_dict(entry: dict[str, Any]) -> Facility:
    return Facility(id=entry["id"], name=entry["name"], rooms=tuple(entry["rooms"]))


_ENTRY_BUILDERS: dict[str, Callable[[Any], Any]] = {
    "exams": _exam_from_dict,
    "rules": _rule_from_dict,
    "facilities": _facility_from_dict,
    "slots": _slot_from_dict,
}


def world_from_dict(document: dict[str, Any]) -> World:
    """Build a world, or raise ``WorldFormatError`` naming the first bad entry.

    Any ``TypeError``, ``ValueError`` or ``KeyError`` raised while building
    is re-raised as that one error, so a wrongly typed, missing or
    out-of-range field never escapes as a bare Python exception.
    """
    # No per-entry bookkeeping: when an entry fails, the section's iterator
    # has yielded it last, so the entries it has left give its index.
    entry, cursor = "config", None
    try:
        cfg = document["config"]
        config = WorldConfig(
            **{
                name: tuple(cfg[name]) if is_tuple else cfg[name]
                for name, is_tuple in _CONFIG_FIELDS
            }
        )
        sections = {}
        for entry, build in _ENTRY_BUILDERS.items():
            items = document[entry]
            cursor = iter(items)
            sections[entry] = tuple(build(item) for item in cursor)
            cursor = None
    except (TypeError, ValueError, KeyError) as exc:
        if cursor is not None:
            entry = f"{entry}[{len(items) - length_hint(cursor) - 1}]"
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise WorldFormatError(f"malformed world entry {entry}: {reason}") from exc
    return World(config=config, **sections)


def save_world(world: World, path: Path) -> None:
    _dump_json(world_to_dict(world), path)


def load_world(path: Path) -> World:
    return world_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def request_to_dict(request: ScheduleRequest) -> dict[str, Any]:
    return {
        "acts": list(request.acts),
        "start_day": request.start_day,
        "preferred_facilities": (
            sorted(request.preferred_facilities)
            if request.preferred_facilities is not None
            else None
        ),
        "preferred_practitioners": (
            sorted(request.preferred_practitioners)
            if request.preferred_practitioners is not None
            else None
        ),
    }


def _strings(value: Any) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise TypeError(f"expected a list of strings, got {value!r}")
    return tuple(value)


def request_from_dict(document: dict[str, Any]) -> ScheduleRequest:
    """Build a request, or raise ``RequestError`` naming the first bad field.

    Each field is set, and checked by ``ScheduleRequest``, in turn; any
    ``TypeError``, ``ValueError`` or ``KeyError`` on the way is re-raised as
    that one error.
    """
    field = "acts"
    try:
        request = ScheduleRequest(acts=_strings(document["acts"]))
        field = "start_day"
        start_day = document.get(field, 0)
        if not isinstance(start_day, int) or isinstance(start_day, bool):
            raise TypeError(f"expected an integer day, got {start_day!r}")
        request = replace(request, start_day=start_day)
        for field in ("preferred_facilities", "preferred_practitioners"):
            preferred = document.get(field)
            if preferred is not None:
                request = replace(request, **{field: frozenset(_strings(preferred))})
    except (TypeError, ValueError, KeyError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise RequestError(f"malformed request field {field}: {reason}") from exc
    return request


def save_request(request: ScheduleRequest, path: Path) -> None:
    _dump_json(request_to_dict(request), path)


def load_request(path: Path) -> ScheduleRequest:
    return request_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def solution_to_dict(
    algorithm: str,
    request: ScheduleRequest,
    schedule: Schedule,
    penalties: PenaltyBreakdown,
    score: float,
    metrics: SolutionMetrics,
) -> dict[str, Any]:
    return {
        "algorithm": algorithm,
        "request": request_to_dict(request),
        "assignments": [
            {"act": act, "slot": _slot_to_dict(slot)}
            for act, slot in schedule.sorted_by_start()
        ],
        "penalties": {
            "missing_slot": penalties.missing_slot,
            "hard_violations": penalties.hard_violations,
            "trips": penalties.trips,
            "travel_gap": penalties.travel_gap,
            "wait": penalties.wait,
            "lead": penalties.lead,
            "total": penalties.total(),
        },
        "fitness": score,
        "metrics": {
            "itr": metrics.itr,
            "trips": metrics.trips,
            "overlap_ok": metrics.overlap_ok,
            "compatibility_ok": metrics.compatibility_ok,
            "travel_ok": metrics.travel_ok,
            "fully_scheduled": metrics.fully_scheduled,
        },
    }


def save_solution(document: dict[str, Any], path: Path) -> None:
    _dump_json(document, path)


def write_csv(
    path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    """Write one CSV table with a header row, LF endings and '.' decimals."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

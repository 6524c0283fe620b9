"""File formats: world/request/solution JSON documents and CSV tables.

Instants appear twice in JSON: as the absolute minute offset (exact integer
used by all arithmetic) and as a ``<day>T<minute-of-day>`` label such as
``"3T630"`` (day 3, 10:30) for human readers; a loaded slot's label must
be the label of its offset.  JSON is dumped with sorted keys and a trailing
newline so identical inputs produce byte-identical files; CSV uses LF line
endings and '.' decimals.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields, replace
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter
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
    SlotTable,
    Specialty,
    TimeSlot,
    collector_paused,
)


class WorldFormatError(ValueError):
    """A world document with an entry that does not describe a valid value."""


class RequestError(ValueError):
    """A malformed request, or one that names exams outside the world's catalogue."""


def instant_label(minutes: int) -> str:
    """Label an absolute minute offset as ``<day>T<minute-of-day>``."""
    return f"{minutes // MINUTES_PER_DAY}T{minutes % MINUTES_PER_DAY}"


def _dump_json(document: dict[str, Any], path: Path) -> None:
    Path(path).write_text(
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


# TimeSlot's fields in positional order, each with the one JSON type it
# takes: a decoded world holds only exact str and int (never bool or float)
# slot fields, which ``_SLOT_JSON`` renders exactly as ``json.dumps`` does.
_SLOT_COLUMNS = (
    ("id", str),
    ("exam", str),
    ("facility", str),
    ("room", str),
    ("practitioner", str),
    ("start", int),
    ("duration_minutes", int),
)
_slot_row = itemgetter(*(name for name, _ in _SLOT_COLUMNS))

# One slot as ``json.dumps(indent=2, sort_keys=True)`` lays it out in the
# world document's ``slots`` list: keys sorted, strings escaped by the same
# C function ``json.dumps`` uses.
_SLOT_JSON = """    {
      "duration_minutes": %d,
      "exam": %s,
      "facility": %s,
      "id": %s,
      "practitioner": %s,
      "room": %s,
      "start": %d,
      "start_label": "%dT%d"
    }"""


def _typed(value: Any, kind: type, name: str) -> Any:
    """``value`` if its type is exactly ``kind`` (so no bool for int), else ``TypeError``."""
    if type(value) is not kind:
        raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _typed_list(value: Any, kind: type, name: str) -> tuple:
    """A JSON list of exactly-``kind`` items, as a tuple, else ``TypeError``."""
    if type(value) is not list or any(type(item) is not kind for item in value):
        raise TypeError(f"{name} must be a list of {kind.__name__}, got {value!r}")
    return tuple(value)


def _slot_from_dict(
    entry: dict[str, Any],
    seen_ids: set[str],
    exam_ids: set[str],
    facility_ids: set[str],
    rooms: set[tuple[str, str]],
) -> TimeSlot:
    """One slot, checked field by field; the reference for ``_slots_from_list``."""
    values = _slot_row(entry)
    for value, (name, kind) in zip(values, _SLOT_COLUMNS):
        _typed(value, kind, name)
    slot_id, exam, facility, room, _, start = values[:6]
    if entry["start_label"] != instant_label(start):
        raise ValueError(
            f"start_label {entry['start_label']!r} is not {instant_label(start)!r}, "
            f"the label of start {start}"
        )
    if slot_id in seen_ids:
        raise ValueError(f"duplicate slot id {slot_id!r}")
    seen_ids.add(slot_id)
    if exam not in exam_ids:
        raise ValueError(f"unknown exam {exam!r}")
    if facility not in facility_ids:
        raise ValueError(f"unknown facility {facility!r}")
    if (facility, room) not in rooms:
        raise ValueError(f"room {room!r} is not in facility {facility!r}")
    return TimeSlot(*values)


def _slots_from_list(
    items: Any,
    exam_ids: set[str],
    facility_ids: set[str],
    rooms: set[tuple[str, str]],
) -> tuple[TimeSlot, ...]:
    """Every slot, checked a column at a time; entry by entry only on failure.

    The column checks accept exactly the lists ``_slot_from_dict`` accepts
    for every entry, so a failure here is found again, and named, by the
    entry-by-entry pass.
    """
    _typed(items, list, "slots")  # a list: walked once per column, and again on failure
    try:
        columns = [list(map(itemgetter(name), items)) for name, _ in _SLOT_COLUMNS]
        if all(set(map(type, c)) <= {kind} for c, (_, kind) in zip(columns, _SLOT_COLUMNS)):
            memo: dict[str, str] = {}  # one object per repeated string value
            columns[1:5] = [list(map(memo.setdefault, c, c)) for c in columns[1:5]]
            ids, exams, facilities, room_names, _, starts = columns[:6]
            labels = {start: instant_label(start) for start in set(starts)}
            if (
                list(map(itemgetter("start_label"), items)) == list(map(labels.get, starts))
                and len(set(ids)) == len(items)
                and set(exams) <= exam_ids
                and set(zip(facilities, room_names)) <= rooms
            ):
                return SlotTable.from_columns(columns)
    except (TypeError, ValueError, KeyError):
        pass
    build = partial(
        _slot_from_dict,
        seen_ids=set(),
        exam_ids=exam_ids,
        facility_ids=facility_ids,
        rooms=rooms,
    )
    return _entries("slots", items, build)


def _check_rooms_free(slots: Sequence[TimeSlot]) -> None:
    """Raise ``WorldFormatError`` unless each room's slots are disjoint in time.

    This is the one room-overlap check, one sort per room.  Each room's
    slots, rooms in first-appearance order, are sorted by start, ties in
    document order.  Until the first overlap they are disjoint, so the slot
    before ends last; the error names the slot that starts before it ends,
    that slot, and the room.
    """
    rooms: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    for index, (_, _, facility, room, _, start, duration) in enumerate(slots):
        rooms.setdefault((facility, room), []).append((start, index, duration))
    for (facility, room), spans in rooms.items():
        until = previous = 0
        for start, index, duration in sorted(spans):
            if start < until:
                reason = f"overlaps slots[{previous}] in room {room!r} of facility {facility!r}"
                raise _format_error(f"slots[{index}]", ValueError(reason))
            until, previous = start + duration, index


# The tuple-valued ``WorldConfig`` fields are JSON lists; every value is an int.
_CONFIG_FIELDS = [
    (entry.name, isinstance(entry.default, tuple)) for entry in fields(WorldConfig)
]


def _head_to_dict(world: World) -> dict[str, Any]:
    """Every section of the world document but ``slots``."""
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
    }


def _exam_from_dict(entry: dict[str, Any]) -> ExamType:
    return ExamType(
        id=_typed(entry["id"], str, "id"),
        name=_typed(entry["name"], str, "name"),
        specialty=Specialty(entry["specialty"]),
    )


def _rule_from_dict(entry: dict[str, Any], exam_ids: set[str]) -> IncompatibilityRule:
    rule = IncompatibilityRule(
        first=entry["first"],
        second=entry["second"],
        logic=RuleLogic(entry["logic"]),
        gap_minutes=_typed(entry["gap_minutes"], int, "gap_minutes"),
    )
    for exam in (rule.first, rule.second):
        if exam not in exam_ids:
            raise ValueError(f"unknown exam {exam!r}")
    return rule


def _facility_from_dict(entry: dict[str, Any]) -> Facility:
    return Facility(
        id=_typed(entry["id"], str, "id"),
        name=_typed(entry["name"], str, "name"),
        rooms=_typed_list(entry["rooms"], str, "rooms"),
    )


def _format_error(entry: str, exc: Exception) -> WorldFormatError:
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return WorldFormatError(f"malformed world entry {entry}: {reason}")


def _entries(section: str, items: Any, build: Callable[[Any], Any]) -> tuple:
    """Build each entry in turn, or raise ``WorldFormatError`` naming the first bad one."""
    _typed(items, list, section)
    built = []
    for index, item in enumerate(items):
        try:
            built.append(build(item))
        except (TypeError, ValueError, KeyError) as exc:
            raise _format_error(f"{section}[{index}]", exc) from exc
    return tuple(built)


def _unique_ids(section: str, entries: tuple, kind: str) -> set[str]:
    """The entries' ids, or ``WorldFormatError`` naming the first repeated one."""
    ids: set[str] = set()
    for index, entry in enumerate(entries):
        if entry.id in ids:
            raise _format_error(
                f"{section}[{index}]", ValueError(f"duplicate {kind} id {entry.id!r}")
            )
        ids.add(entry.id)
    return ids


def world_from_dict(document: dict[str, Any]) -> World:
    """Build a world, or raise ``WorldFormatError`` naming the first bad entry.

    Any ``TypeError``, ``ValueError`` or ``KeyError`` raised while building
    is re-raised as that one error, so a wrongly typed, missing or
    out-of-range field never escapes as a bare Python exception.  Each
    section is a list, and each field has its one JSON type: config values
    are integers (lists of integers for the choices), ids, names and rooms
    are strings, and a gap is an integer, never a float or a bool.  Exam,
    facility and slot ids must each be unique, every exam, facility and
    room a rule or slot names must be in the world, each slot's
    ``start_label`` must be the label of its ``start``, and no two slots of
    one room may overlap in time.
    """
    entry = "config"
    try:
        cfg = document["config"]
        config = WorldConfig(
            **{
                name: _typed_list(cfg[name], int, name) if is_tuple else _typed(cfg[name], int, name)
                for name, is_tuple in _CONFIG_FIELDS
            }
        )
        entry = "exams"
        exams = _entries(entry, document[entry], _exam_from_dict)
        exam_ids = _unique_ids(entry, exams, "exam")
        entry = "rules"
        rules = _entries(entry, document[entry], partial(_rule_from_dict, exam_ids=exam_ids))
        entry = "facilities"
        facilities = _entries(entry, document[entry], _facility_from_dict)
        facility_ids = _unique_ids(entry, facilities, "facility")
        rooms = {(f.id, room) for f in facilities for room in f.rooms}
        entry = "slots"
        slots = _slots_from_list(document[entry], exam_ids, facility_ids, rooms)
        _check_rooms_free(slots)
    except WorldFormatError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise _format_error(entry, exc) from exc
    return World(
        config=config, exams=exams, rules=rules, facilities=facilities, slots=slots
    )


def save_world(world: World, path: Path) -> None:
    """Write the world document: its head sections and its ``slots``, each
    slot's fields plus ``start_label``.

    The bytes are ``json.dumps(document, indent=2, sort_keys=True)`` and a
    newline, but each slot is one ``%`` format: ``json.dumps`` runs its
    pure-Python encoder whenever ``indent`` is set, and ``slots`` is nearly
    all of the document.  A slot is a tuple, so its fields are unpacked in
    one step rather than read one getter at a time.
    """
    head = json.dumps(_head_to_dict(world), indent=2, sort_keys=True)
    enc = encode_basestring_ascii
    slots = ",\n".join(
        [
            _SLOT_JSON
            % (
                duration,
                enc(exam),
                enc(facility),
                enc(slot_id),
                enc(practitioner),
                enc(room),
                start,
                *divmod(start, MINUTES_PER_DAY),
            )
            for slot_id, exam, facility, room, practitioner, start, duration in (
                world.slots
            )
        ]
    )
    # "slots" sorts last, so it replaces the head's closing "\n}".
    body = f"[\n{slots}\n  ]" if slots else "[]"
    Path(path).write_text(f'{head[:-2]},\n  "slots": {body}\n}}\n', encoding="utf-8")


def _read_json(path: Path, error: type[ValueError], kind: str) -> Any:
    """``path``'s JSON document; text that is not UTF-8 raises ``error`` naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"malformed {kind} file {path}: {exc}") from exc
    return json.loads(text)


def load_world(path: Path) -> World:
    with collector_paused():
        return world_from_dict(_read_json(path, WorldFormatError, "world"))


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


def request_from_dict(document: dict[str, Any]) -> ScheduleRequest:
    """Build a request, or raise ``RequestError`` naming the first bad field.

    Each field is set, and checked by ``ScheduleRequest``, in turn; any
    ``TypeError``, ``ValueError`` or ``KeyError`` on the way is re-raised as
    that one error.
    """
    field = "acts"
    try:
        request = ScheduleRequest(acts=_typed_list(document[field], str, field))
        field = "start_day"
        request = replace(request, start_day=_typed(document.get(field, 0), int, field))
        for field in ("preferred_facilities", "preferred_practitioners"):
            preferred = document.get(field)
            if preferred is not None:
                preferred = frozenset(_typed_list(preferred, str, field))
                request = replace(request, **{field: preferred})
    except (TypeError, ValueError, KeyError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise RequestError(f"malformed request field {field}: {reason}") from exc
    return request


def save_request(request: ScheduleRequest, path: Path) -> None:
    _dump_json(request_to_dict(request), path)


def load_request(path: Path) -> ScheduleRequest:
    return request_from_dict(_read_json(path, RequestError, "request"))


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
        "penalties": {**asdict(penalties), "total": penalties.total()},
        "fitness": score,
        "metrics": asdict(metrics),
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

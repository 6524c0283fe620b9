"""File formats: world/request/solution JSON documents and CSV tables.

A world document says it is ``WORLD_FORMAT``: its head sections as
``json.dumps(indent=2, sort_keys=True)`` lays them out, then ``slots``, one
column per ``TimeSlot`` field, each one JSON array on one line.  Instants are
absolute minute offsets (exact integers used by all arithmetic); the solution
document also labels each slot's start as ``<day>T<minute-of-day>``, such as
``"3T630"`` (day 3, 10:30), for human readers.  JSON is dumped with sorted
keys and a trailing newline so identical inputs produce byte-identical files;
CSV uses LF line endings and '.' decimals.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn, Sequence

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


# The world document layout ``save_world`` writes, and the only one
# ``load_world`` reads.
WORLD_FORMAT = 2

# TimeSlot's fields in positional order, each with the one JSON type its
# column holds: exact str or int, never bool or float.
_SLOT_COLUMNS = (
    ("id", str),
    ("exam", str),
    ("facility", str),
    ("room", str),
    ("practitioner", str),
    ("start", int),
    ("duration_minutes", int),
)


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


def _first_fault(
    section: str, values: Sequence[Any], passes: Callable[[Any], Any], reason: Callable[[Any], str]
) -> NoReturn:
    """Raise ``WorldFormatError`` naming the first of ``values`` that ``passes`` rejects."""
    index = next(i for i, value in enumerate(values) if not passes(value))
    raise _format_error(f"{section}[{index}]", ValueError(reason(values[index])))


def _slots_from_columns(
    slots: Any,
    exam_ids: set[str],
    facility_ids: set[str],
    rooms: set[tuple[str, str]],
) -> SlotTable:
    """The slot table of the document's ``slots`` columns, each check made on whole columns.

    Only a check that fails looks for the first row that fails it, so its
    error names that row, ``slots[i]``, and the field.
    """
    _typed(slots, dict, "slots")
    columns = [_typed(slots[name], list, name) for name, _ in _SLOT_COLUMNS]
    if len(slots) > len(columns):
        raise ValueError(f"unknown columns {sorted(set(slots) - set(TimeSlot._fields))}")
    lengths = list(map(len, columns))
    count = min(lengths)  # zip would stop here without a word
    if count < max(lengths):
        short = _SLOT_COLUMNS[lengths.index(count)][0]
        reason = f"missing {short}: its column has {count} entries, not {max(lengths)}"
        raise _format_error(f"slots[{count}]", ValueError(reason))
    for column, (name, kind) in zip(columns, _SLOT_COLUMNS):
        if not set(map(type, column)) <= {kind}:
            message = f"{name} must be {kind.__name__}, got {{!r}}".format
            _first_fault("slots", column, lambda value: type(value) is kind, message)
    memo: dict[str, str] = {}  # one object per repeated string value
    columns[1:5] = [list(map(memo.setdefault, c, c)) for c in columns[1:5]]
    ids, exams, facilities, room_names = columns[:4]
    _unique_ids("slots", ids, "slot")
    if not set(exams) <= exam_ids:
        _first_fault("slots", exams, exam_ids.__contains__, "unknown exam {!r}".format)
    if not set(facilities) <= facility_ids:
        _first_fault("slots", facilities, facility_ids.__contains__, "unknown facility {!r}".format)
    if not set(zip(facilities, room_names)) <= rooms:
        _first_fault(
            "slots",
            list(zip(facilities, room_names)),
            rooms.__contains__,
            lambda place: f"room {place[1]!r} is not in facility {place[0]!r}",
        )
    try:
        return SlotTable.from_columns(columns)
    except ValueError:
        _entries("slots", list(zip(*columns)), TimeSlot._make)  # names the row
        raise


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
    """Every section of the world document but ``slots``, field for field.

    ``json`` writes each str-enum member as its value and each tuple as a list.
    """
    return {
        "format": WORLD_FORMAT,
        "config": asdict(world.config),
        "exams": list(map(asdict, world.exams)),
        "rules": list(map(asdict, world.rules)),
        "facilities": list(map(asdict, world.facilities)),
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


def _unique_ids(section: str, ids: Sequence[str], kind: str) -> set[str]:
    """The ids as a set, or ``WorldFormatError`` naming the first entry that repeats one."""
    unique = set(ids)
    if len(unique) < len(ids):
        seen: set[str] = set()  # ``seen.add`` returns None, so a first sighting passes
        repeats = f"duplicate {kind} id {{!r}}".format
        _first_fault(section, ids, lambda id_: not (id_ in seen or seen.add(id_)), repeats)
    return unique


def world_from_dict(document: dict[str, Any]) -> World:
    """Build a world, or raise ``WorldFormatError`` naming the first bad entry.

    Any ``TypeError``, ``ValueError`` or ``KeyError`` raised while building
    is re-raised as that one error, so a wrongly typed, missing or
    out-of-range field never escapes as a bare Python exception.  Each
    section is a list, and each field has its one JSON type: config values
    are integers (lists of integers for the choices), ids, names and rooms
    are strings, and a gap is an integer, never a float or a bool.  Exam,
    facility and slot ids must each be unique, every exam, facility and
    room a rule or slot names must be in the world, and no two slots of one
    room may overlap in time.  The document's ``format`` must be
    ``WORLD_FORMAT``, and ``slots`` must hold exactly the seven columns, of
    one length.
    """
    version = document.get("format") if type(document) is dict else None
    if type(version) is not int or version != WORLD_FORMAT:
        found = "no format" if version is None else f"format {version!r}"
        reason = f"found {found}; medsched reads world format {WORLD_FORMAT} only, as gen-world writes it"
        raise _format_error("format", ValueError(reason))
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
        exam_ids = _unique_ids(entry, [e.id for e in exams], "exam")
        entry = "rules"
        rules = _entries(entry, document[entry], partial(_rule_from_dict, exam_ids=exam_ids))
        entry = "facilities"
        facilities = _entries(entry, document[entry], _facility_from_dict)
        facility_ids = _unique_ids(entry, [f.id for f in facilities], "facility")
        rooms = {(f.id, room) for f in facilities for room in f.rooms}
        entry = "slots"
        slots = _slots_from_columns(document[entry], exam_ids, facility_ids, rooms)
        _check_rooms_free(slots)
    except WorldFormatError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise _format_error(entry, exc) from exc
    return World(
        config=config, exams=exams, rules=rules, facilities=facilities, slots=slots
    )


def save_world(world: World, path: Path) -> None:
    """Write the world document in ``WORLD_FORMAT``.

    The head sections are ``json.dumps(indent=2, sort_keys=True)``.
    ``slots``, which sorts last, holds one column per ``TimeSlot`` field, in
    sorted key order, each written on one line by ``json.dumps`` without
    ``indent``: only then does it run its C encoder, and the columns are
    nearly all of the document.
    """
    head = json.dumps(_head_to_dict(world), indent=2, sort_keys=True)
    with collector_paused():  # the transposition makes one tracked iterator per slot
        columns = list(zip(*world.slots)) or [()] * len(TimeSlot._fields)
    body = ",\n".join(
        f'    "{name}": {json.dumps(column)}'
        for name, column in sorted(zip(TimeSlot._fields, columns))
    )
    # "slots" sorts last, so it replaces the head's closing "\n}".
    Path(path).write_text(f'{head[:-2]},\n  "slots": {{\n{body}\n  }}\n}}\n', encoding="utf-8")


def _load(path: Path, build: Callable[[Any], Any], error: type[ValueError], kind: str) -> Any:
    """``build`` of ``path``'s JSON document; every ``error`` on the way names the file."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"malformed {kind} file {path}: {exc}") from exc
    try:
        return build(document)
    except error as exc:
        raise error(f"{kind} file {path}: {exc}") from exc


def load_world(path: Path) -> World:
    with collector_paused():
        return _load(path, world_from_dict, WorldFormatError, "world")


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
    return _load(path, request_from_dict, RequestError, "request")


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
            {"act": act, "slot": {**slot._asdict(), "start_label": instant_label(slot.start)}}
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

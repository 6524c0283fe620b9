"""Domain vocabulary: exams, incompatibility rules, facilities, slots, requests.

All instants are integer minutes counted from 00:00 of day 0 of the planning
horizon, so every gap and penalty computation is exact integer arithmetic.
Slot intervals are half-open [start, end): two slots that meet exactly at a
boundary do not overlap.
"""

from __future__ import annotations

import gc
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from operator import add, itemgetter, mod
from typing import Any, Iterable, Iterator, Sequence

MINUTES_PER_DAY = 1440


class Specialty(str, Enum):
    RADIOLOGY = "Radiology"
    CARDIOLOGY = "Cardiology"
    DERMATOLOGY = "Dermatology"
    GENERAL_PRACTICE = "GeneralPractice"
    GASTROENTEROLOGY = "Gastroenterology"


class RuleLogic(str, Enum):
    """How an incompatibility rule constrains its ordered exam pair.

    BEFORE: the first exam must end at least ``gap_minutes`` before the
    second starts.  AFTER: the second exam must end at least ``gap_minutes``
    before the first starts.  BOTH: whichever exam comes first, the gap
    between its end and the other's start must be at least ``gap_minutes``.
    """

    BEFORE = "before"
    AFTER = "after"
    BOTH = "both"


@dataclass(frozen=True)
class ExamType:
    """One bookable kind of medical act."""

    id: str
    name: str
    specialty: Specialty


@dataclass(frozen=True)
class IncompatibilityRule:
    """Mandatory temporal separation between an ordered pair of exam types."""

    first: str
    second: str
    logic: RuleLogic
    gap_minutes: int

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError(f"rule pairs an exam with itself: {self.first}")
        if self.gap_minutes <= 0:
            raise ValueError(f"gap must be positive, got {self.gap_minutes}")


@dataclass(frozen=True)
class Facility:
    id: str
    name: str
    rooms: tuple[str, ...]


class TimeSlot(
    namedtuple(
        "TimeSlot", "id exam facility room practitioner start duration_minutes"
    )
):
    """One bookable interval in one room.

    ``start`` is absolute minutes since the horizon epoch; the slot covers
    [start, start + duration_minutes) and never spans midnight.

    A slot is an immutable tuple of its seven fields, read through the C
    getters ``namedtuple`` makes, so it is cheap to build: a world holds
    tens of thousands.  Its hash is the hash of that tuple, and it equals
    the plain tuple of its fields.  Every way of making one, positional,
    keyword, ``_make``, ``_replace``, ``pickle`` and ``copy``, goes through
    ``__new__`` and its range checks; ``SlotTable.from_columns`` runs them per column.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        exam: str,
        facility: str,
        room: str,
        practitioner: str,
        start: int,
        duration_minutes: int,
    ) -> TimeSlot:
        if start < 0:
            raise ValueError(f"slot {id} starts before the horizon epoch")
        if duration_minutes <= 0:
            raise ValueError(f"slot {id} has non-positive duration")
        last_minute = start + duration_minutes - 1
        if start // MINUTES_PER_DAY != last_minute // MINUTES_PER_DAY:
            raise ValueError(f"slot {id} crosses midnight")
        return tuple.__new__(
            cls, (id, exam, facility, room, practitioner, start, duration_minutes)
        )

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> TimeSlot:
        # namedtuple's own ``_make`` (which ``_replace`` calls) skips ``__new__``.
        return cls(*iterable)

    @property
    def end(self) -> int:
        return self.start + self.duration_minutes

    @property
    def day(self) -> int:
        return self.start // MINUTES_PER_DAY


# A slot's start and id, read by position: a slot is a tuple, and these C
# getters make a sort key far cheaper than ``attrgetter`` or a key tuple.
_START = itemgetter(TimeSlot._fields.index("start"))
_ID = itemgetter(TimeSlot._fields.index("id"))


def _exam_index(table: SlotTable) -> dict[str, tuple[TimeSlot, ...]]:
    """Every exam's slots sorted by (start, id)."""
    ordered = sorted(table, key=_ID)  # whole-table sorts merge a few long room runs
    ordered.sort(key=_START)  # stable, so equal starts stay in id order
    groups: defaultdict[str, list[TimeSlot]] = defaultdict(list)
    for slot in ordered:
        groups[slot.exam].append(slot)
    return {exam: tuple(group) for exam, group in groups.items()}


class SlotTable(tuple):
    """A slot inventory that finds each exam's slots without rescanning.

    To every reader it is the plain tuple of its slots: ``len``, iteration,
    indexing, equality and hashing are the tuple's.  ``exam_slots`` adds an
    index, built on its first call and kept: one tuple per exam of its slots
    sorted by (start, id), made in one pass over the whole table, so each
    later call is one dict lookup.  The index lives in the instance
    ``__dict__`` and is a cache only; ``pickle`` and ``copy`` rebuild the
    table from its slots, so a copy starts with no index.
    """

    @cached_property
    def _exams(self) -> dict[str, tuple[TimeSlot, ...]]:
        return _exam_index(self)

    def exam_slots(self, exam: str) -> tuple[TimeSlot, ...]:
        """``exam``'s slots sorted by (start, id), one tuple kept per exam; ``()`` if none."""
        return self._exams.get(exam, ())

    def __reduce__(self) -> tuple[type, tuple[tuple[TimeSlot, ...]]]:
        return type(self), (tuple(self),)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Any]]) -> SlotTable:
        """The slots whose seven fields, in order, are ``columns``, of checked types.

        ``TimeSlot``'s range checks run per column and ``__new__`` is skipped;
        if a check fails, ``TimeSlot`` itself names the first bad row.
        """
        *_, starts, durations = columns
        day_ends = map(add, map(mod, starts, repeat(MINUTES_PER_DAY)), durations)
        if starts and (min(starts) < 0 or min(durations) <= 0 or max(day_ends) > MINUTES_PER_DAY):
            return cls(map(TimeSlot, *columns))
        return cls(map(tuple.__new__, repeat(TimeSlot), zip(*columns)))


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector for a phase that allocates many containers of
    numbers and strings and nothing that refers back to itself: it makes no cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class ScheduleRequest:
    """A patient's booking request: which acts, from when, with what filters.

    ``acts`` may repeat an exam type; each occurrence is a distinct act with
    its own slot selection.  ``start_day`` is the first day index eligible
    for booking.  Preference sets of ``None`` mean "no restriction".
    """

    acts: tuple[str, ...]
    start_day: int = 0
    preferred_facilities: frozenset[str] | None = None
    preferred_practitioners: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if not self.acts:
            raise ValueError("request must name at least one act")
        if self.start_day < 0:
            raise ValueError("start_day must be non-negative")


@dataclass(frozen=True)
class Schedule:
    """Slot assignments for a request: one (act index, slot) pair per act.

    Every act is booked, so act ``i`` is at position ``i``: anything other
    than act indices ``0..n-1`` in order, with ``n >= 1``, raises ``ValueError``.
    """

    assignments: tuple[tuple[int, TimeSlot], ...]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("a schedule books at least one act")
        for position, (act, _) in enumerate(self.assignments):
            if act != position:
                raise ValueError(f"act {act} at position {position}: act i must be at position i")

    def __len__(self) -> int:
        return len(self.assignments)


"""Seed-driven synthetic world generation: catalog, rules, slots, requests.

Every generator is a pure function of its config and seed, built on Python's
Mersenne Twister (``random.Random``) with a distinct string-derived stream
per generator, so re-running any of them reproduces identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any

from .model import (
    MINUTES_PER_DAY,
    ExamType,
    Facility,
    IncompatibilityRule,
    RuleLogic,
    ScheduleRequest,
    SlotTable,
    Specialty,
    TimeSlot,
    collector_paused,
)

_SPECIALTIES = tuple(Specialty)
_LOGICS = (RuleLogic.BEFORE, RuleLogic.AFTER, RuleLogic.BOTH)


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for the synthetic world; defaults reproduce the benchmark setup."""

    seed: int = 42
    horizon_days: int = 30
    facilities: int = 4
    rooms_per_facility: int = 3
    day_open: int = 540
    day_close: int = 1260
    practitioner_pool: int = 4
    rule_count: int = 15
    specialties: int = 5
    exams_per_specialty: int = 10
    duration_choices: tuple[int, ...] = (15, 30, 45, 60, 90)
    gap_choices: tuple[int, ...] = (30, 60, 1440)

    def __post_init__(self) -> None:
        counts = {
            "horizon_days": self.horizon_days,
            "facilities": self.facilities,
            "rooms_per_facility": self.rooms_per_facility,
            "practitioner_pool": self.practitioner_pool,
            "specialties": self.specialties,
            "exams_per_specialty": self.exams_per_specialty,
        }
        for name, value in counts.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.rule_count < 0:
            raise ValueError("rule_count must be non-negative")
        if self.specialties > len(_SPECIALTIES):
            raise ValueError(f"at most {len(_SPECIALTIES)} specialties are defined")
        if not 0 <= self.day_open < self.day_close <= MINUTES_PER_DAY:
            raise ValueError("need 0 <= day_open < day_close <= 1440")
        if not self.duration_choices or min(self.duration_choices) <= 0:
            raise ValueError("duration_choices must be positive minutes")
        if max(self.duration_choices) > self.day_close - self.day_open:
            raise ValueError("longest duration does not fit the operating window")
        if not self.gap_choices or min(self.gap_choices) <= 0:
            raise ValueError("gap_choices must be positive minutes")


@dataclass(frozen=True)
class World:
    """A fully generated instance: catalog, rules, facilities and slot inventory.

    ``slots`` is always a ``SlotTable``, so every request filtered against
    one world shares that world's exam index, built in one pass on the
    first request.  ``generate_world`` and ``worldio.world_from_dict`` both
    build the table from columns, with ``SlotTable.from_columns``, and the
    world keeps that table as it is, without the index; any other slot
    sequence, from a hand-built world or ``dataclasses.replace``, is copied
    into a new table, which starts with no index.
    """

    config: WorldConfig
    exams: tuple[ExamType, ...]
    rules: tuple[IncompatibilityRule, ...]
    facilities: tuple[Facility, ...]
    slots: SlotTable = field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.slots, SlotTable):
            object.__setattr__(self, "slots", SlotTable(self.slots))


def _stream(config: WorldConfig, label: str, seed: int | None = None) -> random.Random:
    base = config.seed if seed is None else seed
    return random.Random(f"{base}/{label}")


def generate_catalog(config: WorldConfig) -> list[ExamType]:
    """The exam catalog: ``exams_per_specialty`` exams for each specialty."""
    catalog = []
    for s_idx in range(config.specialties):
        specialty = _SPECIALTIES[s_idx]
        for k in range(config.exams_per_specialty):
            idx = s_idx * config.exams_per_specialty + k
            catalog.append(
                ExamType(
                    id=f"E{idx:02d}",
                    name=f"{specialty.value} exam {k + 1}",
                    specialty=specialty,
                )
            )
    return catalog


def generate_facilities(config: WorldConfig) -> list[Facility]:
    """Facility roster with fixed room ids per facility."""
    facilities = []
    for f in range(1, config.facilities + 1):
        rooms = tuple(f"F{f}-R{r}" for r in range(1, config.rooms_per_facility + 1))
        facilities.append(Facility(id=f"F{f}", name=f"Facility {f}", rooms=rooms))
    return facilities


def generate_rules(
    catalog: list[ExamType], config: WorldConfig
) -> list[IncompatibilityRule]:
    """``rule_count`` incompatibility rules over distinct ordered exam pairs.

    Pairs come from one rejection sampler at every density, up to all
    n(n-1) ordered pairs: each try draws two uniform exam indices and keeps
    the pair unless it repeats an exam or an earlier pair.  Then each rule's
    logic and gap are drawn uniformly, in pair order.  (A, B) and (B, A) may
    both occur.
    """
    if not catalog and config.rule_count > 0:
        raise ValueError("cannot generate rules from an empty catalog")
    n = len(catalog)
    max_pairs = n * (n - 1)
    if config.rule_count > max_pairs:
        raise ValueError(
            f"rule_count {config.rule_count} exceeds the {max_pairs} distinct ordered pairs"
        )
    rng = _stream(config, "rules")
    chosen: dict[tuple[int, int], None] = {}  # distinct pairs, in first-draw order
    while len(chosen) < config.rule_count:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i != j:
            chosen[i, j] = None
    return [
        IncompatibilityRule(
            first=catalog[i].id,
            second=catalog[j].id,
            logic=rng.choice(_LOGICS),
            gap_minutes=rng.choice(config.gap_choices),
        )
        for i, j in chosen
    ]


def generate_slots(catalog: list[ExamType], config: WorldConfig) -> SlotTable:
    """The slot inventory: every room-day packed back-to-back from opening time.

    Durations, practitioners and exam types are uniform draws; a room-day
    stops as soon as the next drawn duration would cross closing time, so
    slots within one room never overlap.

    Each draw is ``rng.choice`` or ``rng.randrange`` written out as the
    ``getrandbits`` loop CPython runs underneath (see the note in ``ga``),
    so the stream and the slots are those of the plain calls.  Everything a
    slot takes from the config is looked up in tables built once.  The
    slots are drawn into columns, one list per ``TimeSlot`` field, and
    built by ``SlotTable.from_columns``, as ``worldio`` builds a loaded
    world's, so ``TimeSlot``'s range checks run once per column.
    """
    if not catalog:
        raise ValueError("cannot generate slots from an empty catalog")
    rng = _stream(config, "slots")
    getrandbits = rng.getrandbits
    durations = config.duration_choices
    practitioners = [f"P{n}" for n in range(1, config.practitioner_pool + 1)]
    exam_ids = [exam.id for exam in catalog]
    n_durations = len(durations)
    n_practitioners = len(practitioners)
    n_exams = len(exam_ids)
    duration_bits = n_durations.bit_length()
    practitioner_bits = n_practitioners.bit_length()
    exam_bits = n_exams.bit_length()
    # One more than a room-day can hold, so every day ends on the draw that
    # does not fit, as in a plain ``while True`` loop.
    per_day = (config.day_close - config.day_open) // min(durations) + 1
    seqs = [f"{seq:02d}" for seq in range(per_day)]
    columns: list[list[Any]] = [[] for _ in TimeSlot._fields]
    ids, exams, facility_ids, rooms, slot_practitioners, starts, slot_durations = columns
    for facility in generate_facilities(config):
        facility_id = facility.id
        for room in facility.rooms:
            room_start = len(ids)
            for day in range(config.horizon_days):
                prefix = f"{room}-d{day:02d}-"
                cursor = day * MINUTES_PER_DAY + config.day_open
                close = day * MINUTES_PER_DAY + config.day_close
                for seq in seqs:
                    pick = getrandbits(duration_bits)
                    while pick >= n_durations:
                        pick = getrandbits(duration_bits)
                    duration = durations[pick]
                    if cursor + duration > close:
                        break
                    pick = getrandbits(practitioner_bits)
                    while pick >= n_practitioners:
                        pick = getrandbits(practitioner_bits)
                    slot_practitioners.append(practitioners[pick])
                    pick = getrandbits(exam_bits)
                    while pick >= n_exams:
                        pick = getrandbits(exam_bits)
                    exams.append(exam_ids[pick])
                    ids.append(prefix + seq)
                    starts.append(cursor)
                    slot_durations.append(duration)
                    cursor += duration
            room_slots = len(ids) - room_start
            facility_ids.extend(repeat(facility_id, room_slots))
            rooms.extend(repeat(room, room_slots))
    return SlotTable.from_columns(columns)


def generate_request(
    catalog: list[ExamType],
    config: WorldConfig,
    n_acts: int,
    seed: int | None = None,
) -> ScheduleRequest:
    """A request for ``n_acts`` distinct exam types, searching from day 0.

    ``seed`` overrides ``config.seed`` so a benchmark can draw a fresh
    request per trial against one fixed world.
    """
    if not 1 <= n_acts <= len(catalog):
        raise ValueError(f"n_acts must be in [1, {len(catalog)}], got {n_acts}")
    rng = _stream(config, "request", seed)
    acts = tuple(exam.id for exam in rng.sample(catalog, n_acts))
    return ScheduleRequest(acts=acts, start_day=0)


def generate_world(config: WorldConfig) -> World:
    """Catalog, rules, facilities and slots bundled as one reproducible instance."""
    catalog = generate_catalog(config)
    with collector_paused():
        return World(
            config=config,
            exams=tuple(catalog),
            rules=tuple(generate_rules(catalog, config)),
            facilities=tuple(generate_facilities(config)),
            slots=generate_slots(catalog, config),
        )

"""Core vocabulary: slots, rules, requests, schedules, time arithmetic."""

import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medsched.model import (
    MINUTES_PER_DAY,
    IncompatibilityRule,
    RuleLogic,
    Schedule,
    ScheduleRequest,
    SlotTable,
    Specialty,
    TimeSlot,
)

from conftest import make_schedule, make_slot
from oracle import reference_exam_slots, slots_overlap

@st.composite
def valid_slots(draw):
    day = draw(st.integers(min_value=0, max_value=5))
    duration = draw(st.integers(min_value=1, max_value=120))
    minute = draw(st.integers(min_value=0, max_value=MINUTES_PER_DAY - duration))
    slot_id = draw(st.text(st.characters(categories=("Lu", "Nd")), min_size=1, max_size=6))
    return make_slot(id=slot_id, start=day * MINUTES_PER_DAY + minute, duration=duration)


class TestTimeSlot:
    def test_derived_properties(self):
        slot = make_slot(start=3 * MINUTES_PER_DAY + 630, duration=45)
        assert slot.day == 3
        assert slot.end == 3 * MINUTES_PER_DAY + 675

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            make_slot(start=-1)

    @pytest.mark.parametrize("duration", [0, -15])
    def test_rejects_nonpositive_duration(self, duration):
        with pytest.raises(ValueError):
            make_slot(duration=duration)

    def test_rejects_midnight_crossing(self):
        with pytest.raises(ValueError):
            make_slot(start=MINUTES_PER_DAY - 10, duration=20)
        make_slot(start=MINUTES_PER_DAY - 10, duration=10)  # flush to midnight is fine


# Field values that break each of the three range checks, with the message.
BAD_SLOT_FIELDS = [
    (("S9", "E00", "F1", "F1-R1", "P1", -1, 30), "slot S9 starts before the horizon epoch"),
    (("S9", "E00", "F1", "F1-R1", "P1", 540, 0), "slot S9 has non-positive duration"),
    (("S9", "E00", "F1", "F1-R1", "P1", MINUTES_PER_DAY - 10, 20), "slot S9 crosses midnight"),
]
FIELD_NAMES = ("id", "exam", "facility", "room", "practitioner", "start", "duration_minutes")


def forged(fields):
    """A slot built around ``__new__``, as a tampered pickle would hold it."""
    return tuple.__new__(TimeSlot, fields)


class TestTimeSlotContract:
    """A slot is an immutable tuple of its fields, checked however it is made.

    It equals, and hashes as, the plain tuple of its seven fields, which is
    the hash the frozen dataclass it replaced had.
    """

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda fields: TimeSlot(*fields), id="positional"),
            pytest.param(lambda fields: TimeSlot(**dict(zip(FIELD_NAMES, fields))), id="keyword"),
            pytest.param(TimeSlot._make, id="make"),
            pytest.param(
                lambda fields: make_slot()._replace(**dict(zip(FIELD_NAMES, fields))),
                id="replace",
            ),
            pytest.param(lambda fields: pickle.loads(pickle.dumps(forged(fields))), id="pickle"),
            pytest.param(lambda fields: copy.copy(forged(fields)), id="copy"),
            pytest.param(lambda fields: copy.deepcopy(forged(fields)), id="deepcopy"),
        ],
    )
    @pytest.mark.parametrize(("fields", "message"), BAD_SLOT_FIELDS)
    def test_range_checks_on_every_construction_path(self, build, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(fields)

    def test_valid_slot_survives_every_construction_path(self):
        slot = make_slot(id="S7", start=3 * MINUTES_PER_DAY + 630, duration=45)
        fields = tuple(slot)
        assert TimeSlot(**dict(zip(FIELD_NAMES, fields))) == slot
        assert TimeSlot._make(fields) == slot
        assert slot._replace(start=slot.start) == slot
        assert pickle.loads(pickle.dumps(slot)) == slot
        assert copy.copy(slot) == slot == copy.deepcopy(slot)
        assert type(pickle.loads(pickle.dumps(slot))) is TimeSlot

    def test_immutable_without_instance_dict(self):
        slot = make_slot()
        for name in FIELD_NAMES:
            with pytest.raises(AttributeError):
                setattr(slot, name, getattr(slot, name))
        with pytest.raises(AttributeError):
            slot.extra = 1
        assert not hasattr(slot, "__dict__")

    def test_hash_and_equality_are_the_field_tuple(self):
        slot = make_slot(id="S7", start=600, duration=45)
        fields = ("S7", "E00", "F1", "F1-R1", "P1", 600, 45)
        assert tuple(slot) == fields
        assert slot == fields
        assert hash(slot) == hash(fields)

    def test_repr_unchanged(self):
        assert repr(make_slot(id="S7", start=600, duration=45)) == (
            "TimeSlot(id='S7', exam='E00', facility='F1', room='F1-R1', "
            "practitioner='P1', start=600, duration_minutes=45)"
        )


def columns_of(rows):
    """The seven field columns of ``rows``, as lists."""
    return [list(column) for column in zip(*rows)] or [[] for _ in FIELD_NAMES]


# Rows whose start and duration may break any of the range checks.
slot_rows = st.lists(
    st.tuples(
        st.text("AB", min_size=1, max_size=3),
        st.just("E00"),
        st.just("F1"),
        st.just("F1-R1"),
        st.just("P1"),
        st.integers(-30, 3 * MINUTES_PER_DAY),
        st.integers(-5, 120),
    ),
    max_size=12,
)


class TestSlotTableFromColumns:
    """``from_columns`` builds around ``__new__``, with its checks run per column."""

    @settings(max_examples=200, deadline=None)
    @given(slots=st.lists(valid_slots(), max_size=12))
    def test_equals_slot_by_slot_table(self, slots):
        table = SlotTable.from_columns(columns_of(slots))
        assert type(table) is SlotTable
        assert table == SlotTable(slots)
        assert [type(slot) for slot in table] == [TimeSlot] * len(slots)

    @pytest.mark.parametrize(("fields", "message"), BAD_SLOT_FIELDS)
    def test_each_range_check_raises_timeslots_message(self, fields, message):
        good = tuple(make_slot(id="S1"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            SlotTable.from_columns(columns_of([good, fields, good]))

    @settings(max_examples=300, deadline=None)
    @given(rows=slot_rows)
    def test_rejects_the_rows_timeslot_rejects(self, rows):
        try:
            expected = SlotTable(TimeSlot(*row) for row in rows)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{error}$"):
                SlotTable.from_columns(columns_of(rows))
        else:
            assert SlotTable.from_columns(columns_of(rows)) == expected

    def test_valid_columns_are_built_around_new(self, monkeypatch):
        # Each at the edge of one range check: epoch, flush to midnight, one minute.
        edges = [(0, 30), (MINUTES_PER_DAY - 30, 30), (MINUTES_PER_DAY, 1)]
        rows = [tuple(make_slot(id=f"S{start}", start=start, duration=d)) for start, d in edges]
        monkeypatch.setattr(TimeSlot, "__new__", staticmethod(pytest.fail))
        assert SlotTable.from_columns(columns_of(rows)) == tuple(rows)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda slot: pickle.loads(pickle.dumps(slot)), id="pickle"),
            pytest.param(copy.copy, id="copy"),
            pytest.param(copy.deepcopy, id="deepcopy"),
            pytest.param(TimeSlot._make, id="make"),
        ],
    )
    def test_other_construction_paths_still_call_new(self, monkeypatch, build):
        (slot,) = SlotTable.from_columns(columns_of([tuple(make_slot(id="S7"))]))
        calls = []
        checked_new = TimeSlot.__new__

        def spy(cls, *fields):
            calls.append(fields)
            return checked_new(cls, *fields)

        monkeypatch.setattr(TimeSlot, "__new__", staticmethod(spy))
        rebuilt = build(slot)
        assert type(rebuilt) is TimeSlot and rebuilt == slot
        assert calls == [tuple(slot)]


INDEX_EXAMS = ("E00", "E01", "E02")


@st.composite
def index_slots(draw):
    """Slots over few ids, exams, rooms and starts, so ids repeat and starts tie."""
    day = draw(st.integers(min_value=0, max_value=2))
    return make_slot(
        id=draw(st.sampled_from(("S1", "S2", "S3"))),
        exam=draw(st.sampled_from(INDEX_EXAMS)),
        room=draw(st.sampled_from(("F1-R1", "F1-R2", "F1-R3"))),
        start=day * MINUTES_PER_DAY + draw(st.sampled_from((540, 600))),
        duration=draw(st.sampled_from((15, 60))),
    )


# One exam's slots at one start, in three rooms, ids out of room order.
EQUAL_STARTS = [
    make_slot(id="C", room="F1-R1"),
    make_slot(id="A", room="F1-R2"),
    make_slot(id="B", room="F1-R3"),
]
# A hand-built table may repeat an id: equal (start, id) pairs, other rooms.
DUPLICATE_IDS = [
    make_slot(id="S1", room="F1-R2"),
    make_slot(id="S1", room="F1-R1"),
    make_slot(id="S0", start=600, room="F1-R3"),
]


class TestSlotTableExamIndex:
    """``exam_slots`` equals a per-exam scan and sort of the table, in any order."""

    @settings(max_examples=300, deadline=None)
    @given(slots=st.lists(index_slots(), max_size=30), rng=st.randoms(use_true_random=False))
    @example(slots=[], rng=random.Random(0))
    @example(slots=EQUAL_STARTS, rng=random.Random(1))
    @example(slots=DUPLICATE_IDS, rng=random.Random(2))
    def test_equals_reference(self, slots, rng):
        shuffled = list(slots)
        rng.shuffle(shuffled)
        for order in (slots, shuffled, slots[::-1]):
            table = SlotTable(order)
            for exam in (*INDEX_EXAMS, "E9"):  # no slot has E9
                assert table.exam_slots(exam) == reference_exam_slots(order, exam)
            assert table == tuple(order)

    def test_equal_starts_across_rooms_keep_id_order(self):
        block = SlotTable(EQUAL_STARTS).exam_slots("E00")
        assert [slot.id for slot in block] == ["A", "B", "C"]
        assert [slot.start for slot in block] == [540, 540, 540]

    def test_duplicate_ids_keep_table_order(self):
        for order in (DUPLICATE_IDS, DUPLICATE_IDS[::-1]):
            block = SlotTable(order).exam_slots("E00")
            tied = [slot for slot in order if slot.id == "S1"]
            assert block == (*tied, DUPLICATE_IDS[2])

    def test_absent_exam_gives_empty_tuple(self):
        for slots in ((), EQUAL_STARTS):
            assert SlotTable(slots).exam_slots("E9") == ()


class TestSlotsOverlap:
    def test_touching_endpoints_half_open(self):
        a = make_slot(start=540, duration=60)
        b = make_slot(start=600, duration=60)
        assert not slots_overlap(a, b)

    def test_strict_containment(self):
        a = make_slot(start=540, duration=60)
        b = make_slot(start=570, duration=60)
        assert slots_overlap(a, b)

    def test_same_window_different_days(self):
        a = make_slot(start=540, duration=60)
        b = make_slot(start=MINUTES_PER_DAY + 540, duration=60)
        assert not slots_overlap(a, b)

    @settings(max_examples=1000, deadline=None)
    @given(a=valid_slots(), b=valid_slots())
    def test_symmetric_and_matches_interval_definition(self, a, b):
        assert slots_overlap(a, b) == slots_overlap(b, a)
        expected = max(a.start, b.start) < min(a.end, b.end)
        assert slots_overlap(a, b) == expected


class TestRuleAndRequest:
    def test_rule_rejects_self_pair(self):
        with pytest.raises(ValueError):
            IncompatibilityRule(first="E01", second="E01", logic=RuleLogic.BOTH, gap_minutes=30)

    def test_rule_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            IncompatibilityRule(first="E01", second="E02", logic=RuleLogic.BOTH, gap_minutes=0)

    def test_request_rejects_empty_acts(self):
        with pytest.raises(ValueError):
            ScheduleRequest(acts=())

    def test_request_rejects_negative_start_day(self):
        with pytest.raises(ValueError):
            ScheduleRequest(acts=("E01",), start_day=-1)

    def test_request_permits_repeated_acts(self):
        request = ScheduleRequest(acts=("E01", "E01"))
        assert request.acts == ("E01", "E01")

    def test_vocabulary_sizes(self):
        assert len(Specialty) == 5
        assert {r.value for r in RuleLogic} == {"before", "after", "both"}


class TestSchedule:
    def test_sorted_by_start_orders_by_start_then_id(self):
        s1 = make_slot(id="B", start=600)
        s2 = make_slot(id="A", start=600)
        s3 = make_slot(id="C", start=540)
        schedule = make_schedule(s1, s2, s3)
        ordered = schedule.sorted_by_start()
        assert [slot.id for _, slot in ordered] == ["C", "A", "B"]
        assert [act for act, _ in ordered] == [2, 1, 0]

    def test_len_counts_assignments(self):
        assert len(make_schedule(make_slot(), make_slot(id="S2", start=700))) == 2

    def test_accepts_act_indices_in_order(self):
        slots = [make_slot(id=f"S{k}", start=540 + 60 * k) for k in range(3)]
        assignments = ((0, slots[0]), (1, slots[1]), (2, slots[2]))
        assert Schedule(assignments=assignments).assignments == assignments

    @pytest.mark.parametrize("acts", [(), (1, 0), (0, 0), (0, 2)])
    def test_rejects_acts_other_than_positions(self, acts):
        # Empty, out of order, repeated and gapped act indices.
        slots = [make_slot(id=f"S{k}", start=540 + 60 * k) for k in range(len(acts))]
        with pytest.raises(ValueError):
            Schedule(assignments=tuple(zip(acts, slots)))

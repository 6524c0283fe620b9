"""JSON and CSV persistence: round-trips, byte determinism, world formats, instant labels."""

import copy
import gc
import hashlib
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsched.datagen import World, WorldConfig, generate_world
from medsched.fitness import compute_penalties, fitness
from medsched.metrics import solution_metrics
from medsched.model import (
    MINUTES_PER_DAY,
    ExamType,
    Facility,
    IncompatibilityRule,
    RuleLogic,
    ScheduleRequest,
    Specialty,
    TimeSlot,
)
from medsched.worldio import (
    RequestError,
    WorldFormatError,
    instant_label,
    load_request,
    load_world,
    request_from_dict,
    request_to_dict,
    save_request,
    save_solution,
    save_world,
    solution_to_dict,
    world_from_dict,
    write_csv,
)

from conftest import (
    collections_during,
    make_schedule,
    make_slot,
    unversioned_world_document,
)

EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "world.example.json"


def set_field(document, section, index, field, value):
    """Set one field of one entry: a slot's is one row of its column."""
    if section == "slots":
        document["slots"][field][index] = value
    else:
        document[section][index][field] = value


class TestInstantLabels:
    @pytest.mark.parametrize(
        "minutes,label",
        [
            (0, "0T0"),
            (540, "0T540"),
            (3 * MINUTES_PER_DAY + 630, "3T630"),
            (29 * MINUTES_PER_DAY + 1259, "29T1259"),
        ],
    )
    def test_known_labels(self, minutes, label):
        assert instant_label(minutes) == label

    @settings(max_examples=1000, deadline=None)
    @given(minutes=st.integers(min_value=0, max_value=100 * MINUTES_PER_DAY))
    def test_round_trip(self, minutes):
        day, minute = map(int, instant_label(minutes).split("T"))
        assert 0 <= minute < MINUTES_PER_DAY
        assert day * MINUTES_PER_DAY + minute == minutes


class TestWorldPersistence:
    def test_round_trip_preserves_world(self, default_world, tmp_path):
        path = tmp_path / "world.json"
        save_world(default_world, path)
        assert load_world(path) == default_world

    def test_serialization_is_byte_deterministic(self, default_world, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_world(default_world, first)
        save_world(default_world, second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().endswith(b"\n")

    def test_document_shape(self, default_world, tmp_path):
        path = tmp_path / "world.json"
        save_world(default_world, path)
        text = path.read_text()
        document = json.loads(text)
        assert set(document) == {"format", "config", "exams", "rules", "facilities", "slots"}
        assert document["format"] == 2
        assert list(document["slots"]) == sorted(TimeSlot._fields)
        for name, column in document["slots"].items():
            assert len(column) == len(default_world.slots)
            assert f'\n    "{name}": {json.dumps(column)}' in text  # one line per column

    def test_config_document_lists_every_field(self, default_world):
        assert world_to_dict(default_world)["config"] == {
            "seed": 42,
            "horizon_days": 30,
            "facilities": 4,
            "rooms_per_facility": 3,
            "day_open": 540,
            "day_close": 1260,
            "practitioner_pool": 4,
            "rule_count": 15,
            "specialties": 5,
            "exams_per_specialty": 10,
            "duration_choices": [15, 30, 45, 60, 90],
            "gap_choices": [30, 60, 1440],
        }

    def test_example_world_loads(self):
        world = load_world(EXAMPLE)
        assert isinstance(world.config.duration_choices, tuple)
        assert world_to_dict(world) == json.loads(EXAMPLE.read_text())

    def test_example_world_is_seed_7_over_2_days_as_saved_today(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(generate_world(WorldConfig(seed=7, horizon_days=2)), path)
        assert path.read_bytes() == EXAMPLE.read_bytes()

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("gap_choices", 5),
            ("day_open", "nine"),
            ("seed", "abc"),
            ("horizon_days", 30.0),
            ("rule_count", True),
            ("gap_choices", [30, 60.5]),
            ("duration_choices", [15, "30"]),
        ],
    )
    def test_bad_config_field_raises_format_error(self, default_world, field, value):
        document = world_to_dict(default_world)
        document["config"][field] = value
        with pytest.raises(WorldFormatError, match=f"entry config: {field} must be"):
            world_from_dict(document)

    @pytest.mark.parametrize("section", ["exams", "rules", "facilities"])
    @pytest.mark.parametrize("value", [{}, "", None])
    def test_section_that_is_not_a_list_raises_format_error(self, default_world, section, value):
        document = world_to_dict(default_world)
        document[section] = value
        with pytest.raises(WorldFormatError, match=f"entry {section}: {section} must be list"):
            world_from_dict(document)

    @pytest.mark.parametrize("value", ["rows", [], "", None])
    def test_slots_that_is_not_an_object_raises_format_error(self, default_world, value):
        document = world_to_dict(default_world)
        if value == "rows":  # the slot list of the unversioned layout
            value = unversioned_world_document(document)["slots"]
        document["slots"] = value
        with pytest.raises(WorldFormatError, match="entry slots: slots must be dict"):
            world_from_dict(document)

    @pytest.mark.parametrize("name", ["id", "start", "duration_minutes"])
    @pytest.mark.parametrize("value", [{}, "", None, 5])
    def test_slot_column_that_is_not_a_list_raises_format_error(self, default_world, name, value):
        document = world_to_dict(default_world)
        document["slots"][name] = value
        with pytest.raises(WorldFormatError, match=f"entry slots: {name} must be list"):
            world_from_dict(document)

    def test_missing_slot_field_raises_format_error(self, default_world):
        document = world_to_dict(default_world)
        del document["slots"]["exam"]
        with pytest.raises(WorldFormatError, match=r"entry slots: missing key 'exam'"):
            world_from_dict(document)

    def test_extra_slot_column_raises_format_error(self, default_world):
        document = world_to_dict(default_world)
        document["slots"]["start_label"] = list(map(instant_label, document["slots"]["start"]))
        with pytest.raises(WorldFormatError, match=r"entry slots: unknown columns \['start_label'\]"):
            world_from_dict(document)

    @pytest.mark.parametrize(("name", "index"), [("exam", 0), ("start", 9), ("room", -1)])
    def test_short_column_raises_naming_the_first_row_it_lacks(self, default_world, name, index):
        document = world_to_dict(default_world)
        del document["slots"][name][index]
        last = len(default_world.slots) - 1
        reason = f"missing {name}: its column has {last} entries, not {last + 1}"
        with pytest.raises(WorldFormatError, match=rf"entry slots\[{last}\]: {reason}$"):
            world_from_dict(document)

    @pytest.mark.parametrize(
        ("version", "rows"),
        [(None, True), (1, True), ("2", False), (2.0, False), (True, False), (3, False)],
        ids=["missing", "1", "str", "float", "bool", "3"],
    )
    def test_other_format_raises_naming_the_file_and_format_2(
        self, default_world, tmp_path, version, rows
    ):
        # None: no "format" key.  rows: the unversioned layout's slot list.
        document = world_to_dict(default_world)
        if rows:
            document = unversioned_world_document(document)
        if version is not None:
            document["format"] = version
        path = tmp_path / "world.json"
        path.write_text(json.dumps(document))
        found = "no format" if version is None else f"format {version!r}"
        with pytest.raises(WorldFormatError) as error:
            load_world(path)
        assert str(error.value) == (
            f"world file {path}: malformed world entry format: found {found}; "
            "medsched reads world format 2 only, as gen-world writes it"
        )

    def test_missing_config_field_raises_format_error(self, default_world):
        document = world_to_dict(default_world)
        del document["config"]["seed"]
        with pytest.raises(WorldFormatError, match="config: missing key 'seed'"):
            world_from_dict(document)

    @pytest.mark.parametrize(
        ("section", "index", "field", "value"),
        [
            ("slots", 7, "start", "abc"),
            ("slots", 0, "duration_minutes", -30),
            ("slots", 2, "start", None),
            ("exams", 4, "specialty", "astrology"),
            ("rules", 1, "logic", "SOMETIMES"),
            ("facilities", 0, "rooms", 3),
        ],
    )
    def test_bad_entry_raises_format_error_naming_it(
        self, default_world, section, index, field, value
    ):
        document = world_to_dict(default_world)
        set_field(document, section, index, field, value)
        with pytest.raises(WorldFormatError, match=rf"{section}\[{index}\]"):
            world_from_dict(document)

    @pytest.mark.parametrize("key", ["config", "exams", "slots"])
    def test_missing_section_raises_format_error(self, default_world, key):
        document = world_to_dict(default_world)
        del document[key]
        with pytest.raises(WorldFormatError, match=f"missing key '{key}'"):
            world_from_dict(document)

    @pytest.mark.parametrize(
        ("section", "index", "field", "value", "reason"),
        [
            ("slots", 9, "start", 5940.0, "start must be int"),
            ("slots", 9, "duration_minutes", True, "duration_minutes must be int"),
            ("slots", 9, "id", 5, "id must be str"),
            ("slots", 9, "room", None, "room must be str"),
            ("slots", 9, "exam", "ZZZ", "unknown exam 'ZZZ'"),
            ("slots", 9, "facility", "ZZZ", "unknown facility 'ZZZ'"),
            ("slots", 9, "room", "ZZZ", "room 'ZZZ' is not in facility"),
            ("rules", 3, "first", "ZZZ", "unknown exam 'ZZZ'"),
            ("rules", 3, "second", 7, "unknown exam 7"),
            ("exams", 7, "id", "E03", "duplicate exam id 'E03'"),
            ("facilities", 2, "id", "F1", "duplicate facility id 'F1'"),
            ("facilities", 0, "rooms", "R1", "rooms must be a list of str"),
            ("facilities", 0, "rooms", ["F1-R1", 2], "rooms must be a list of str"),
            ("facilities", 1, "name", None, "name must be str"),
            ("facilities", 1, "id", 2, "id must be str"),
            ("exams", 2, "name", 5, "name must be str"),
            ("exams", 2, "id", ["E02"], "id must be str"),
            ("rules", 2, "gap_minutes", 30.5, "gap_minutes must be int"),
            ("rules", 2, "gap_minutes", 60.0, "gap_minutes must be int"),
            ("rules", 2, "gap_minutes", True, "gap_minutes must be int"),
        ],
    )
    def test_mistyped_or_dangling_field_raises_naming_entry(
        self, default_world, section, index, field, value, reason
    ):
        document = world_to_dict(default_world)
        set_field(document, section, index, field, value)
        with pytest.raises(WorldFormatError, match=rf"{section}\[{index}\]: {reason}"):
            world_from_dict(document)

    def test_duplicate_slot_id_raises_naming_later_entry(self, default_world):
        document = world_to_dict(default_world)
        ids = document["slots"]["id"]
        ids[9] = ids[4]
        with pytest.raises(WorldFormatError, match=r"slots\[9\]: duplicate slot id"):
            world_from_dict(document)

    def test_overlapping_slots_of_one_room_raise_naming_later_entry(self, default_world):
        document = world_to_dict(default_world)
        columns = document["slots"]
        assert set(zip(columns["facility"][:2], columns["room"][:2])) == {("F1", "F1-R1")}
        columns["start"][1] = columns["start"][0]
        with pytest.raises(
            WorldFormatError,
            match=r"slots\[1\]: overlaps slots\[0\] in room 'F1-R1' of facility 'F1'$",
        ):
            world_from_dict(document)

    def test_overlap_is_checked_per_room_in_start_order(self):
        # slots[0] starts one minute before slots[2] ends, in room R1 of F1;
        # room R1 of F2 is another room.  The later start is the one named.
        slots = (
            make_slot(id="c", facility="F1", room="R1", start=599, duration=30),
            make_slot(id="b", facility="F2", room="R1", start=540, duration=30),
            make_slot(id="a", facility="F1", room="R1", start=540, duration=60),
        )
        document = world_to_dict(
            World(
                config=WorldConfig(),
                exams=(ExamType(slots[0].exam, "x", Specialty.RADIOLOGY),),
                rules=(),
                facilities=(Facility("F1", "one", ("R1",)), Facility("F2", "two", ("R1",))),
                slots=slots,
            )
        )
        with pytest.raises(
            WorldFormatError,
            match=r"slots\[0\]: overlaps slots\[2\] in room 'R1' of facility 'F1'$",
        ):
            world_from_dict(document)
        # Back to back is not an overlap.
        document["slots"]["start"][0] = 600
        assert world_from_dict(document).slots == (slots[0]._replace(start=600), *slots[1:])

    def test_loaded_slots_share_their_strings(self, default_world, tmp_path):
        path = tmp_path / "world.json"
        save_world(default_world, path)
        slots = load_world(path).slots
        for name in ("exam", "facility", "room", "practitioner"):
            values = [getattr(slot, name) for slot in slots]
            assert len(set(map(id, values))) <= len(set(values)), name

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collector_state_is_restored(self, tmp_path, enabled):
        config = WorldConfig(horizon_days=2)
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        save_world(generate_world(config), good)
        document = json.loads(good.read_text())
        document["slots"]["duration_minutes"][3] = 0
        bad.write_text(json.dumps(document))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            load_world(good)
            assert gc.isenabled() is enabled
            with pytest.raises(WorldFormatError, match=r"slots\[3\]: slot .* non-positive duration"):
                load_world(bad)
            assert gc.isenabled() is enabled
            generate_world(config)
            assert gc.isenabled() is enabled
            save_world(generate_world(config), good)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_save_runs_no_collection(self, tmp_path):
        # The columns are built by transposing the slots, one tracked
        # iterator per slot: with the collector running, that alone would
        # trigger collections that walk every live slot.
        world = generate_world(WorldConfig(horizon_days=30))
        assert gc.isenabled()
        gc.collect()
        _, counts = collections_during(save_world, world, tmp_path / "world.json")
        assert counts == Counter()

    def test_example_world_saves_byte_for_byte(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(load_world(EXAMPLE), path)
        assert path.read_bytes() == EXAMPLE.read_bytes()

    # Digests of world format 2, re-recorded when the format changed; the
    # worlds are those of the ``rng.choice`` generator and dataclass slots.
    # A faster generator or writer must reproduce these bytes.
    @pytest.mark.parametrize(
        ("config", "digest"),
        [
            pytest.param(
                WorldConfig(),
                "01885d4ab1b952f0fab8e54fb70dc5cde62e7f5b2fdbff8fb7a048fb8c56150a",
                id="default",
            ),
            pytest.param(
                WorldConfig(seed=3, horizon_days=120),
                "317d5e64476addde29d286e946d6de3137e4dbc6a38dddca4b6f8b1b1e597353",
                id="seed3-120days",
            ),
        ],
    )
    def test_default_world_bytes_pinned(self, tmp_path, config, digest):
        path = tmp_path / "world.json"
        save_world(generate_world(config), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def world_to_dict(world):
    """The world document ``save_world`` renders, built field by field."""
    return {
        "format": 2,
        "config": {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(world.config).items()
        },
        "exams": [
            {"id": e.id, "name": e.name, "specialty": e.specialty.value} for e in world.exams
        ],
        "rules": [
            {"first": r.first, "second": r.second, "logic": r.logic.value, "gap_minutes": r.gap_minutes}
            for r in world.rules
        ],
        "facilities": [
            {"id": f.id, "name": f.name, "rooms": list(f.rooms)} for f in world.facilities
        ],
        "slots": {
            name: [getattr(slot, name) for slot in world.slots] for name in TimeSlot._fields
        },
    }


def reference_bytes(world):
    """What save_world must write, rendered by ``json.dumps`` alone.

    The document goes through ``json.dumps(indent=2, sort_keys=True)`` with
    a placeholder string for each slot column; each placeholder is then
    replaced by ``json.dumps`` of its column, which is one line.
    """
    document = world_to_dict(world)
    columns = document["slots"]
    document["slots"] = {name: f"<column {name}>" for name in columns}
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    for name, column in columns.items():
        text = text.replace(json.dumps(f"<column {name}>"), json.dumps(column))
    return text.encode()


# Strings json.dumps escapes, or that a hand-rolled writer could get wrong:
# non-ASCII, a quote, a backslash, control characters, "</", a line
# separator, a lone surrogate, an astral character and the empty string.
AWKWARD = ["é", "漢字", '"', "\\", "\x00\n\x1f\x7f", "</script>", "\u2028", "\ud800", "\U0001f600", ""]
texts = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=6))


@st.composite
def time_slots(draw):
    begin = draw(st.integers(0, MINUTES_PER_DAY - 1))
    # Slots that end exactly at midnight are drawn as often as the rest.
    duration = draw(
        st.one_of(st.just(MINUTES_PER_DAY - begin), st.integers(1, MINUTES_PER_DAY - begin))
    )
    return TimeSlot(
        *(draw(texts) for _ in range(5)),
        start=draw(st.integers(0, 400)) * MINUTES_PER_DAY + begin,
        duration_minutes=duration,
    )


@st.composite
def rules(draw):
    first = draw(texts)
    return IncompatibilityRule(
        first,
        draw(texts.filter(lambda text: text != first)),
        draw(st.sampled_from(RuleLogic)),
        draw(st.integers(1, 3 * MINUTES_PER_DAY)),
    )


worlds = st.builds(
    World,
    config=st.just(WorldConfig()),
    exams=st.lists(
        st.builds(ExamType, texts, texts, st.sampled_from(Specialty)), max_size=4
    ).map(tuple),
    rules=st.lists(rules(), max_size=3).map(tuple),
    facilities=st.lists(
        st.builds(Facility, texts, texts, st.lists(texts, max_size=3).map(tuple)),
        max_size=3,
    ).map(tuple),
    slots=st.lists(time_slots(), max_size=8).map(tuple),
)


def awkward_world(with_slots):
    """Every awkward string in every string field, rules empty, slots at 0 and ending at midnight."""
    slots = tuple(
        TimeSlot(
            id=f"{text}{index}",
            exam=text,
            facility=text,
            room=text,
            practitioner=text,
            start=index * MINUTES_PER_DAY,
            duration_minutes=MINUTES_PER_DAY if index % 2 else 30,
        )
        for index, text in enumerate(AWKWARD)
    )
    return World(
        config=WorldConfig(),
        exams=tuple(ExamType(text, text, Specialty.RADIOLOGY) for text in AWKWARD),
        rules=(),
        facilities=tuple(Facility(text, text, (text,)) for text in AWKWARD),
        slots=slots if with_slots else (),
    )


@pytest.fixture(scope="module")
def world_path(tmp_path_factory):
    """One file that each hypothesis example overwrites."""
    return tmp_path_factory.mktemp("worlds") / "world.json"


class TestWorldWriter:
    @pytest.mark.parametrize("with_slots", [True, False])
    def test_awkward_world_matches_reference_and_round_trips(self, tmp_path, with_slots):
        world = awkward_world(with_slots)
        path = tmp_path / "world.json"
        save_world(world, path)
        assert path.read_bytes() == reference_bytes(world)
        assert load_world(path) == world

    @settings(max_examples=200, deadline=None)
    @given(world=worlds)
    def test_bytes_equal_json_dumps(self, world_path, world):
        save_world(world, world_path)
        assert world_path.read_bytes() == reference_bytes(world)


SMALL_WORLD = generate_world(
    WorldConfig(seed=11, horizon_days=1, facilities=2, rooms_per_facility=2, rule_count=4)
)
SMALL_DOCUMENT = world_to_dict(SMALL_WORLD)
WRONG_VALUES = [None, True, 1.5, -1, 0, "x", [], {}, ["x"], {"x": 1}]
# Head-section values that a loose loader would take: a string or a dict
# iterates as rooms, and a float, a bool or a number in a string compares or
# prints like the int it replaces.
HEAD_FAULTS = [
    ("facilities", "rooms", ["R1", "", {"R1": 1}, ["R1", None]]),
    ("facilities", "name", [5, None, True, ["F"]]),
    ("exams", "name", [5, None, 1.5, ["E"]]),
    ("rules", "gap_minutes", [30.5, 60.0, True, "60"]),
    ("config", "seed", ["abc", "11", 11.0, True, None]),
    ("config", "horizon_days", [1.0, "1", True]),
    ("config", "gap_choices", [[30.0, 60], [30, "60"], [True], "30"]),
]


@st.composite
def mutated_documents(draw):
    """A small world document with one fault of the kinds a hand edit makes.

    Returns (document, entry, slots): ``entry`` is the entry the loader must
    reject by name, or None where the fault may be harmless; ``slots`` is
    what the document must load as, or None where that is not known.
    """
    document = copy.deepcopy(SMALL_DOCUMENT)
    columns = document["slots"]
    count = len(columns["id"])
    rejected = loads_as = None

    def place(index):
        return columns["facility"][index], columns["room"][index]

    def entry_of(section):
        index = draw(st.integers(0, (count if section == "slots" else len(document[section])) - 1))
        return index, f"{section}[{index}]"

    def column_name():
        return draw(st.sampled_from(sorted(columns)))

    kind = draw(
        st.sampled_from(
            ["drop_key", "wrong_type", "head_type", "duplicate_id", "unknown_reference",
             "overlap", "shuffle", "retime", "zero_duration", "drop_entry", "duplicate_entry",
             "missing_column", "extra_column", "ragged_column", "column_type", "slots_type"]
        )
    )
    if kind == "wrong_type" and draw(st.booleans()):
        # One slot field: one row of its column.
        name = column_name()
        index, entry = entry_of("slots")
        value = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
        if type(value) is not type(columns[name][index]):
            rejected = entry  # each field has one JSON type
        columns[name][index] = value
    elif kind in ("drop_key", "wrong_type"):
        section = draw(st.sampled_from(["document", "config", "exams", "rules", "facilities"]))
        if section == "document":
            target, name = document, None
        elif section == "config":
            target, name = document["config"], "config"
        else:
            index, name = entry_of(section)
            target = document[section][index]
        key = draw(st.sampled_from(sorted(target)))
        name = name or key
        if kind == "drop_key":
            del target[key]
            rejected = name  # every key is required
        else:
            value = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
            if type(value) is not type(target[key]):
                rejected = name  # each field has one JSON type
            target[key] = value
    elif kind == "head_type":
        section, key, values = draw(st.sampled_from(HEAD_FAULTS))
        if section == "config":
            target, rejected = document["config"], "config"
        else:
            index, rejected = entry_of(section)
            target = document[section][index]
        target[key] = copy.deepcopy(draw(st.sampled_from(values)))
    elif kind == "duplicate_id":
        section = draw(st.sampled_from(["exams", "facilities", "slots"]))
        index, _ = entry_of(section)
        other, _ = entry_of(section)
        if section == "slots":
            columns["id"][index] = columns["id"][other]
        else:
            document[section][index]["id"] = document[section][other]["id"]
        if other != index:
            rejected = f"{section}[{max(index, other)}]"  # the later of the two
    elif kind == "unknown_reference":
        section, key = draw(
            st.sampled_from(
                [("rules", "first"), ("rules", "second"), ("slots", "exam"), ("slots", "facility"), ("slots", "room")]
            )
        )
        index, rejected = entry_of(section)
        set_field(document, section, index, key, "ZZZ")
    elif kind == "overlap":
        # Move a slot onto the start of another slot of its room: the later
        # of the two in (room, start, document) order overlaps the earlier.
        index, _ = entry_of("slots")
        other = draw(st.sampled_from([i for i in range(count) if i != index and place(i) == place(index)]))
        columns["start"][index] = columns["start"][other]
        rejected = f"slots[{max(index, other)}]"
    elif kind == "shuffle":
        # Each room's slots may no longer run together or in time order;
        # they are still disjoint, so the room check's sort must accept them.
        order = draw(st.permutations(range(count)))
        for name, column in columns.items():
            columns[name] = [column[i] for i in order]
        loads_as = tuple(SMALL_WORLD.slots[i] for i in order)
    elif kind == "retime":
        # A start that crosses midnight, is negative, or lies inside another
        # slot of the room, past that slot's start.
        index, rejected = entry_of("slots")
        starts, durations = columns["start"], columns["duration_minutes"]
        others = [i for i in range(count) if i != index and place(i) == place(index)]
        starts[index] = draw(
            st.one_of(
                st.builds(
                    lambda day, before: (day + 1) * MINUTES_PER_DAY - before,
                    st.integers(0, 2),
                    st.integers(1, durations[index] - 1),
                ),
                st.integers(-2 * MINUTES_PER_DAY, -1),
                st.sampled_from(others).flatmap(
                    lambda other: st.integers(starts[other] + 1, starts[other] + durations[other] - 1)
                ),
            )
        )
    elif kind == "zero_duration":
        index, rejected = entry_of("slots")
        columns["duration_minutes"][index] = 0
    elif kind in ("drop_entry", "duplicate_entry"):
        section = draw(st.sampled_from(["exams", "rules", "facilities", "slots"]))
        index, _ = entry_of(section)
        for entries in columns.values() if section == "slots" else [document[section]]:
            if kind == "drop_entry":
                del entries[index]
            else:
                entries.insert(index, copy.deepcopy(entries[index]))
    elif kind == "missing_column":
        del columns[column_name()]
        rejected = "slots"
    elif kind == "extra_column":
        name = draw(texts.filter(lambda text: text not in columns))
        columns[name] = copy.deepcopy(draw(st.sampled_from([*WRONG_VALUES, columns["start"]])))
        rejected = "slots"
    elif kind == "ragged_column":
        index, _ = entry_of("slots")
        del columns[column_name()][index]
        rejected = f"slots[{count - 1}]"  # the first row the short column lacks
    elif kind == "column_type":
        columns[column_name()] = copy.deepcopy(
            draw(st.sampled_from([value for value in WRONG_VALUES if type(value) is not list]))
        )
        rejected = "slots"
    else:
        rows = unversioned_world_document(SMALL_DOCUMENT)["slots"]
        document["slots"] = draw(st.sampled_from([rows, [], None, "x", 1.5]))
        rejected = "slots"
    return document, rejected, loads_as


class TestWorldLoadFuzz:
    @settings(max_examples=500, deadline=None)
    @given(case=mutated_documents())
    def test_loads_and_round_trips_or_raises_format_error(self, world_path, case):
        document, rejected, loads_as = case
        try:
            world = world_from_dict(document)
        except WorldFormatError as error:
            assert loads_as is None, f"rejected a valid document: {error}"
            assert rejected is None or f"entry {rejected}: " in str(error)
            return
        assert rejected is None, f"loaded a document with a fault in {rejected}"
        if loads_as is not None:
            assert world.slots == loads_as
        save_world(world, world_path)
        # Equality alone would pass 5940.0 for 5940 and True for 1.
        assert world_path.read_bytes() == reference_bytes(world)
        assert load_world(world_path) == world


class TestRequestPersistence:
    def test_round_trip_with_preferences(self, tmp_path):
        request = ScheduleRequest(
            acts=("E03", "E01", "E03"),
            start_day=2,
            preferred_facilities=frozenset({"F2", "F1"}),
            preferred_practitioners=frozenset({"P4"}),
        )
        path = tmp_path / "request.json"
        save_request(request, path)
        assert load_request(path) == request

    def test_none_preferences_round_trip(self, tmp_path):
        request = ScheduleRequest(acts=("E05",))
        path = tmp_path / "request.json"
        save_request(request, path)
        loaded = load_request(path)
        assert loaded.preferred_facilities is None
        assert loaded.preferred_practitioners is None

    def test_preference_sets_serialized_sorted(self):
        request = ScheduleRequest(
            acts=("E01",), preferred_facilities=frozenset({"F3", "F1", "F2"})
        )
        assert request_to_dict(request)["preferred_facilities"] == ["F1", "F2", "F3"]

    @pytest.mark.parametrize(
        ("document", "field"),
        [
            ({}, "acts"),
            ({"acts": []}, "acts"),
            ({"acts": "E01"}, "acts"),
            ({"acts": ["E01", 7]}, "acts"),
            ({"acts": ["E01", True]}, "acts"),
            ({"acts": ["E01"], "start_day": -1}, "start_day"),
            ({"acts": ["E01"], "start_day": "3"}, "start_day"),
            ({"acts": ["E01"], "start_day": 1.5}, "start_day"),
            ({"acts": ["E01"], "start_day": 1.0}, "start_day"),
            ({"acts": ["E01"], "start_day": True}, "start_day"),
            ({"acts": ["E01"], "preferred_facilities": 5}, "preferred_facilities"),
            ({"acts": ["E01"], "preferred_facilities": "F1"}, "preferred_facilities"),
            ({"acts": ["E01"], "preferred_practitioners": ["P1", 2]}, "preferred_practitioners"),
        ],
    )
    def test_malformed_request_raises_naming_field(self, document, field):
        with pytest.raises(RequestError, match=f"malformed request field {field}:"):
            request_from_dict(document)

    def test_missing_optional_keys_default(self, tmp_path):
        path = tmp_path / "request.json"
        path.write_text(json.dumps({"acts": ["E01", "E02"]}))
        loaded = load_request(path)
        assert loaded == ScheduleRequest(acts=("E01", "E02"))


class TestSolutionDocument:
    def test_shape_and_values(self, tmp_path):
        schedule = make_schedule(
            make_slot(id="B", exam="E02", start=660, duration=60),
            make_slot(id="A", exam="E01", start=540, duration=60),
        )
        request = ScheduleRequest(acts=("E02", "E01"))
        penalties = compute_penalties(schedule, request, [])
        document = solution_to_dict(
            algorithm="fcfs",
            request=request,
            schedule=schedule,
            penalties=penalties,
            score=fitness(penalties),
            metrics=solution_metrics(schedule, [], 2),
        )
        assert document["algorithm"] == "fcfs"
        # Assignments come out in chronological order regardless of act order.
        assert [entry["slot"]["id"] for entry in document["assignments"]] == ["A", "B"]
        assert [entry["act"] for entry in document["assignments"]] == [1, 0]
        assert document["penalties"]["total"] == pytest.approx(
            sum(
                document["penalties"][key]
                for key in ("missing_slot", "hard_violations", "trips", "travel_gap", "wait", "lead")
            )
        )
        assert document["fitness"] == pytest.approx(
            1 / (1 + document["penalties"]["total"])
        )
        assert document["metrics"]["itr"] == pytest.approx(1 / 3)
        path = tmp_path / "solution.json"
        save_solution(document, path)
        assert json.loads(path.read_text()) == document


def test_savers_take_str_paths_as_loaders_do(default_world, tmp_path):
    request = ScheduleRequest(acts=("E02", "E01"), preferred_facilities=frozenset({"F1"}))
    document = {"algorithm": "fcfs", "assignments": []}
    for name, save, value in (
        ("world.json", save_world, default_world),
        ("request.json", save_request, request),
        ("solution.json", save_solution, document),
    ):
        save(value, tmp_path / f"path-{name}")
        save(value, str(tmp_path / name))
        assert (tmp_path / name).read_bytes() == (tmp_path / f"path-{name}").read_bytes()
    assert load_world(str(tmp_path / "world.json")) == default_world
    assert load_request(str(tmp_path / "request.json")) == request
    assert json.loads((tmp_path / "solution.json").read_text()) == document


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["algorithm", "trial", "itr"], [["fcfs", 0, 0.25], ["fcfs", 1, 0.5]])
        assert path.read_bytes() == b"algorithm,trial,itr\nfcfs,0,0.25\nfcfs,1,0.5\n"

    def test_empty_rows_leaves_header_only(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"

"""JSON and CSV persistence: round-trips, byte determinism, instant labels."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsched.fitness import compute_penalties, fitness
from medsched.metrics import solution_metrics
from medsched.model import MINUTES_PER_DAY, ScheduleRequest
from medsched.worldio import (
    RequestError,
    WorldFormatError,
    instant_label,
    load_request,
    load_world,
    parse_instant_label,
    request_from_dict,
    request_to_dict,
    save_request,
    save_solution,
    save_world,
    solution_to_dict,
    world_from_dict,
    world_to_dict,
    write_csv,
)

from conftest import make_schedule, make_slot


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
        assert parse_instant_label(label) == minutes

    def test_rejects_minute_overflow(self):
        with pytest.raises(ValueError):
            parse_instant_label("3T1440")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_instant_label("noon")

    @settings(max_examples=1000, deadline=None)
    @given(minutes=st.integers(min_value=0, max_value=100 * MINUTES_PER_DAY))
    def test_round_trip(self, minutes):
        assert parse_instant_label(instant_label(minutes)) == minutes


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
        document = json.loads(path.read_text())
        assert set(document) == {"config", "exams", "rules", "facilities", "slots"}
        assert len(document["slots"]) == len(default_world.slots)
        sample = document["slots"][0]
        assert sample["start_label"] == instant_label(sample["start"])

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
        example = Path(__file__).resolve().parent.parent / "docs" / "world.example.json"
        world = load_world(example)
        assert isinstance(world.config.duration_choices, tuple)
        assert world_to_dict(world) == json.loads(example.read_text())

    @pytest.mark.parametrize(("field", "value"), [("gap_choices", 5), ("day_open", "nine")])
    def test_bad_config_field_raises_format_error(self, default_world, field, value):
        document = world_to_dict(default_world)
        document["config"][field] = value
        with pytest.raises(WorldFormatError, match="entry config:"):
            world_from_dict(document)

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
        document[section][index][field] = value
        with pytest.raises(WorldFormatError, match=rf"{section}\[{index}\]"):
            world_from_dict(document)

    @pytest.mark.parametrize("key", ["config", "exams", "slots"])
    def test_missing_section_raises_format_error(self, default_world, key):
        document = world_to_dict(default_world)
        del document[key]
        with pytest.raises(WorldFormatError, match=f"missing key '{key}'"):
            world_from_dict(document)

    def test_missing_slot_field_raises_format_error(self, default_world):
        document = world_to_dict(default_world)
        del document["slots"][5]["exam"]
        with pytest.raises(WorldFormatError, match=r"slots\[5\]: missing key 'exam'"):
            world_from_dict(document)


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
            ({"acts": ["E01"], "start_day": -1}, "start_day"),
            ({"acts": ["E01"], "start_day": "3"}, "start_day"),
            ({"acts": ["E01"], "start_day": 1.5}, "start_day"),
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


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["algorithm", "trial", "itr"], [["fcfs", 0, 0.25], ["fcfs", 1, 0.5]])
        assert path.read_bytes() == b"algorithm,trial,itr\nfcfs,0,0.25\nfcfs,1,0.5\n"

    def test_empty_rows_leaves_header_only(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"

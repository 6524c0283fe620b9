"""Synthetic world generator: catalog, rules, slot inventory, requests."""

import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsched.datagen import (
    WorldConfig,
    _stream,
    generate_catalog,
    generate_facilities,
    generate_request,
    generate_rules,
    generate_slots,
    generate_world,
)
from medsched.model import MINUTES_PER_DAY, RuleLogic, Specialty, TimeSlot


class TestWorldConfig:
    def test_defaults(self):
        config = WorldConfig()
        assert config.horizon_days == 30
        assert config.facilities == 4
        assert config.rooms_per_facility == 3
        assert (config.day_open, config.day_close) == (540, 1260)
        assert config.practitioner_pool == 4
        assert config.rule_count == 15
        assert config.duration_choices == (15, 30, 45, 60, 90)
        assert config.gap_choices == (30, 60, 1440)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"horizon_days": 0},
            {"facilities": -1},
            {"rule_count": -1},
            {"specialties": 6},
            {"day_open": 600, "day_close": 600},
            {"day_close": 1441},
            {"duration_choices": ()},
            {"duration_choices": (0, 30)},
            {"duration_choices": (800,)},
            {"gap_choices": (30, -5)},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            WorldConfig(**overrides)


class TestCatalogAndFacilities:
    def test_catalog_shape(self):
        catalog = generate_catalog(WorldConfig())
        assert len(catalog) == 50
        assert [e.id for e in catalog] == [f"E{i:02d}" for i in range(50)]
        by_specialty = Counter(e.specialty for e in catalog)
        assert by_specialty == {s: 10 for s in Specialty}

    def test_facility_rooms(self):
        facilities = generate_facilities(WorldConfig())
        assert [f.id for f in facilities] == ["F1", "F2", "F3", "F4"]
        for facility in facilities:
            assert facility.rooms == tuple(f"{facility.id}-R{r}" for r in (1, 2, 3))


class TestRules:
    def test_count_and_value_domains(self):
        config = WorldConfig()
        rules = generate_rules(generate_catalog(config), config)
        assert len(rules) == 15
        exam_ids = {f"E{i:02d}" for i in range(50)}
        pairs = [(r.first, r.second) for r in rules]
        assert len(set(pairs)) == len(pairs)
        for rule in rules:
            assert rule.first in exam_ids and rule.second in exam_ids
            assert rule.first != rule.second
            assert rule.gap_minutes in (30, 60, 1440)
            assert rule.logic in RuleLogic

    def test_zero_rules(self):
        config = WorldConfig(rule_count=0)
        assert generate_rules(generate_catalog(config), config) == []

    def test_most_pairs_still_distinct(self):
        config = WorldConfig(specialties=1, exams_per_specialty=3, rule_count=4)
        rules = generate_rules(generate_catalog(config), config)
        assert len(rules) == 4
        assert len({(r.first, r.second) for r in rules}) == 4

    @pytest.mark.parametrize(
        "config",
        [
            WorldConfig(specialties=1, exams_per_specialty=3, rule_count=6),
            WorldConfig(rule_count=50 * 49),
        ],
        ids=["3-exams", "default-catalog"],
    )
    def test_full_density_draws_every_ordered_pair_once(self, config):
        catalog = generate_catalog(config)
        rules = generate_rules(catalog, config)
        ids = [exam.id for exam in catalog]
        assert len(rules) == len(ids) * (len(ids) - 1) == config.rule_count
        assert sorted((r.first, r.second) for r in rules) == sorted(
            (a, b) for a in ids for b in ids if a != b
        )

    def test_rejects_more_rules_than_pairs(self):
        config = WorldConfig(specialties=1, exams_per_specialty=3, rule_count=7)
        with pytest.raises(ValueError):
            generate_rules(generate_catalog(config), config)

    def test_logic_and_gap_uniform_within_3_sigma(self):
        # 10^4 draws; each of the three values has p=1/3.
        config = WorldConfig(specialties=5, exams_per_specialty=50, rule_count=10_000)
        rules = generate_rules(generate_catalog(config), config)
        n = len(rules)
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        logic_counts = Counter(r.logic for r in rules)
        gap_counts = Counter(r.gap_minutes for r in rules)
        for logic in RuleLogic:
            assert abs(logic_counts[logic] - n / 3) <= 3 * sigma
        for gap in (30, 60, 1440):
            assert abs(gap_counts[gap] - n / 3) <= 3 * sigma


def reference_generate_slots(catalog, config):
    """The ``rng.choice``/``randrange`` loop ``generate_slots`` replaced."""
    rng = _stream(config, "slots")
    slots = []
    for facility in generate_facilities(config):
        for room in facility.rooms:
            for day in range(config.horizon_days):
                day_base = day * MINUTES_PER_DAY
                cursor = day_base + config.day_open
                close = day_base + config.day_close
                seq = 0
                while True:
                    duration = rng.choice(config.duration_choices)
                    if cursor + duration > close:
                        break
                    practitioner = f"P{rng.randrange(config.practitioner_pool) + 1}"
                    exam = rng.choice(catalog)
                    slots.append(
                        TimeSlot(
                            id=f"{room}-d{day:02d}-{seq:02d}",
                            exam=exam.id,
                            facility=facility.id,
                            room=room,
                            practitioner=practitioner,
                            start=cursor,
                            duration_minutes=duration,
                        )
                    )
                    cursor += duration
                    seq += 1
    return slots


@st.composite
def slot_configs(draw):
    """Configs whose draw widths (durations, practitioners, exams) vary,
    powers of two among them, over small horizons and day windows."""
    day_open = draw(st.integers(min_value=0, max_value=1320))
    day_close = draw(st.integers(min_value=day_open + 120, max_value=MINUTES_PER_DAY))
    n_durations = draw(st.sampled_from((1, 2, 4, 5, 8)))
    return WorldConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        horizon_days=draw(st.integers(min_value=1, max_value=3)),
        facilities=draw(st.integers(min_value=1, max_value=2)),
        rooms_per_facility=draw(st.integers(min_value=1, max_value=2)),
        day_open=day_open,
        day_close=day_close,
        practitioner_pool=draw(st.integers(min_value=1, max_value=9)),
        specialties=draw(st.integers(min_value=1, max_value=5)),
        exams_per_specialty=draw(st.integers(min_value=1, max_value=17)),
        duration_choices=tuple(
            draw(st.lists(st.integers(min_value=5, max_value=120), min_size=n_durations, max_size=n_durations))
        ),
    )


class TestSlots:
    def test_room_days_packed_back_to_back(self, default_world):
        config = default_world.config
        by_room_day = {}
        for slot in default_world.slots:
            by_room_day.setdefault((slot.room, slot.day), []).append(slot)
        assert len(by_room_day) == 4 * 3 * 30
        for (room, day), slots in by_room_day.items():
            slots.sort(key=lambda s: s.start)
            assert len(slots) >= 8  # 720-minute day, 90-minute max duration
            assert slots[0].start == day * MINUTES_PER_DAY + config.day_open
            assert slots[-1].end <= day * MINUTES_PER_DAY + config.day_close
            for a, b in zip(slots, slots[1:]):
                assert a.end == b.start

    def test_slot_fields_in_domain(self, default_world):
        exam_ids = {e.id for e in default_world.exams}
        practitioners = {f"P{i}" for i in range(1, 5)}
        assert len({s.id for s in default_world.slots}) == len(default_world.slots)
        for slot in default_world.slots:
            assert slot.exam in exam_ids
            assert slot.practitioner in practitioners
            assert slot.duration_minutes in (15, 30, 45, 60, 90)
            assert slot.room.startswith(slot.facility + "-")
            assert 0 <= slot.day < 30

    def test_duration_frequencies_uniform(self):
        # Doubled horizon gives >= 10^4 slots; each duration has p=0.2.
        config = WorldConfig(horizon_days=60)
        slots = generate_slots(generate_catalog(config), config)
        assert len(slots) >= 10_000
        counts = Counter(s.duration_minutes for s in slots)
        for duration in (15, 30, 45, 60, 90):
            assert abs(counts[duration] / len(slots) - 0.2) <= 0.02

    @settings(max_examples=150, deadline=None)
    @given(config=slot_configs())
    def test_equals_choice_and_randrange_reference(self, config):
        catalog = generate_catalog(config)
        assert generate_slots(catalog, config) == reference_generate_slots(catalog, config)

    def test_rejects_empty_catalog(self):
        with pytest.raises(ValueError, match="empty catalog"):
            generate_slots([], WorldConfig())


class TestRequests:
    def test_acts_distinct_and_in_catalog(self, default_world):
        catalog = list(default_world.exams)
        request = generate_request(catalog, default_world.config, 5)
        assert len(request.acts) == 5
        assert len(set(request.acts)) == 5
        assert set(request.acts) <= {e.id for e in catalog}
        assert request.start_day == 0

    def test_seed_override_ignores_config_seed(self, default_world):
        catalog = list(default_world.exams)
        a = generate_request(catalog, WorldConfig(seed=0), 5, seed=7)
        b = generate_request(catalog, WorldConfig(seed=99), 5, seed=7)
        assert a == b
        c = generate_request(catalog, default_world.config, 5, seed=8)
        assert a != c

    @pytest.mark.parametrize("n_acts", [0, 51])
    def test_rejects_out_of_range_counts(self, default_world, n_acts):
        with pytest.raises(ValueError):
            generate_request(list(default_world.exams), default_world.config, n_acts)


class TestWorld:
    def test_same_seed_reproduces_world(self, default_world):
        again = generate_world(WorldConfig())
        assert again == default_world

    def test_different_seed_changes_slots(self, default_world):
        other = generate_world(replace(default_world.config, seed=default_world.config.seed + 1))
        assert other.slots != default_world.slots
        assert other.rules != default_world.rules

    def test_default_world_scale(self, default_world):
        assert len(default_world.exams) == 50
        assert len(default_world.rules) == 15
        assert len(default_world.facilities) == 4
        assert 4000 <= len(default_world.slots) <= 7000

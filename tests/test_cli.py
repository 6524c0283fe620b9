"""End-to-end command-line runs against temporary directories."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import medsched
import medsched.bench as bench
import medsched.cli as cli
from medsched.bench import ALL_ALGORITHMS, BenchConfig
from medsched.cli import _ga_config, build_parser, main
from medsched.datagen import WorldConfig
from medsched.ga import GAConfig
from medsched.model import MINUTES_PER_DAY, ScheduleRequest
from medsched.worldio import save_request

from conftest import unversioned_world_document


@pytest.fixture(autouse=True)
def fixed_env_seed(monkeypatch):
    monkeypatch.delenv("MEDSCHED_SEED", raising=False)


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("world")
    code = main(
        ["gen-world", "--seed", "5", "--horizon-days", "6", "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def seed_one_world(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed-one")
    assert main(["gen-world", "--seed", "1", "--out", str(path)]) == 0
    return path / "world.json"


@pytest.fixture(scope="module")
def seed_42_world(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed-42")
    assert main(["gen-world", "--seed", "42", "--out", str(path)]) == 0
    return path / "world.json"


def fast_solve_args(world_dir, out, *extra):
    return [
        "solve",
        "--world", str(world_dir / "world.json"),
        "--out", str(out),
        "--seed", "3",
        "--acts", "3",
        "--generations", "5",
        "--population", "10",
        "--tournament-k", "3",
        *extra,
    ]


BENCH_FILES = (
    "world.json", "convergence.csv", "fulfillment.csv", "itr.csv", "trips.csv", "stats.csv"
)


def read_solution(out):
    return json.loads((out / "solution.json").read_text())


# sha256 of what ``medsched solve --seed 42`` writes at default GA flags on
# the default world (``WorldConfig``'s seed is 42).  A change meant to keep
# every output byte-identical keeps these.
SOLVE_DIGESTS = {
    "ga-ordered": {
        "request.json": "762e7bc01bd9c53004111fc4562f767f6b33e53ca14c90a38754cf785c26671e",
        "solution.json": "35ceda7b56a3f3653f5b060b32e4aa9e3576d611c3512b275cf24e2240c737c4",
        "convergence.csv": "268134634d30c19a8d126bc12d1142bdfd87b8debe2d7e74bda0cdea71a30bdd",
    },
    "ga-unordered": {
        "request.json": "762e7bc01bd9c53004111fc4562f767f6b33e53ca14c90a38754cf785c26671e",
        "solution.json": "7b062bee709b56eada6a696147b329a43cc5542b9623aaea923f434f696d6997",
        "convergence.csv": "f3c33b741371f607521dea42b3f4a1435469e0de8d40f0374a7e7da2fd9cf3bc",
    },
}


class TestGenWorld:
    def test_writes_expected_counts(self, world_dir, capsys):
        document = json.loads((world_dir / "world.json").read_text())
        assert len(document["exams"]) == 50
        assert len(document["rules"]) == 15
        assert len(document["facilities"]) == 4

    def test_same_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(
                ["gen-world", "--seed", "9", "--horizon-days", "3", "--out", str(tmp_path / sub)]
            ) == 0
        assert (tmp_path / "a" / "world.json").read_bytes() == (
            tmp_path / "b" / "world.json"
        ).read_bytes()

    def test_rule_count_zero(self, tmp_path):
        assert main(
            ["gen-world", "--seed", "1", "--rule-count", "0", "--horizon-days", "2",
             "--out", str(tmp_path)]
        ) == 0
        assert json.loads((tmp_path / "world.json").read_text())["rules"] == []

    def test_invalid_config_is_usage_error(self, tmp_path):
        assert main(
            ["gen-world", "--seed", "1", "--rule-count", "-4", "--out", str(tmp_path)]
        ) == 1


class TestSolve:
    def test_ga_writes_solution_request_and_convergence(self, world_dir, tmp_path):
        out = tmp_path / "out"
        assert main(fast_solve_args(world_dir, out)) == 0
        document = read_solution(out)
        assert document["algorithm"] == "ga-ordered"
        assert len(document["assignments"]) == 3
        assert document["fitness"] == pytest.approx(
            1 / (1 + document["penalties"]["total"])
        )
        assert len(json.loads((out / "request.json").read_text())["acts"]) == 3
        with open(out / "convergence.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["generation", "best_fitness", "mean_fitness"]
        assert len(rows) == 1 + 5
        best = [float(row[1]) for row in rows[1:]]
        assert best == sorted(best)

    def test_default_run_satisfies_all_constraints(self, tmp_path):
        # Full-size run with default knobs: the evolved solution is clean.
        out = tmp_path / "out"
        assert main(
            ["solve", "--algo", "ga-ordered", "--acts", "5", "--seed", "7",
             "--out", str(out)]
        ) == 0
        metrics = read_solution(out)["metrics"]
        assert metrics["overlap_ok"]
        assert metrics["compatibility_ok"]
        assert metrics["travel_ok"]
        assert metrics["fully_scheduled"]

    @pytest.mark.parametrize("algo", list(SOLVE_DIGESTS))
    def test_default_solve_writes_recorded_bytes(self, algo, tmp_path):
        assert main(["solve", "--seed", "42", "--algo", algo, "--out", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in SOLVE_DIGESTS[algo]
        }
        assert digests == SOLVE_DIGESTS[algo]

    def test_variant_flag_selects_unordered(self, world_dir, tmp_path):
        out = tmp_path / "out"
        assert main(fast_solve_args(world_dir, out, "--algo", "ga-unordered")) == 0
        assert read_solution(out)["algorithm"] == "ga-unordered"
        # --algo is the one way to pick the variant.
        assert main(fast_solve_args(world_dir, out, "--variant", "unordered")) == 1

    def test_fcfs_writes_no_convergence(self, world_dir, tmp_path):
        out = tmp_path / "out"
        assert main(fast_solve_args(world_dir, out, "--algo", "fcfs")) == 0
        assert read_solution(out)["algorithm"] == "fcfs"
        assert not (out / "convergence.csv").exists()

    def test_baseline_solve_removes_an_earlier_convergence(self, world_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(fast_solve_args(world_dir, out)) == 0
        assert (out / "convergence.csv").exists()
        capsys.readouterr()
        assert main(fast_solve_args(world_dir, out, "--algo", "fcfs")) == 0
        assert not (out / "convergence.csv").exists()
        printed = capsys.readouterr().out
        assert ", 3 acts scheduled, " in printed
        assert printed.rstrip().endswith(f"-> {out / 'request.json'}, {out / 'solution.json'}")

    def test_failed_solve_leaves_no_earlier_outputs(self, world_dir, tmp_path):
        out = tmp_path / "out"
        assert main(fast_solve_args(world_dir, out)) == 0
        assert main(fast_solve_args(world_dir, out, "--start-day", "99")) == 2
        assert sorted(out.iterdir()) == []

    def test_request_read_from_the_output_directory_is_kept(self, world_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        save_request(ScheduleRequest(acts=("E07", "E11"), start_day=99), out / "request.json")
        code = main(fast_solve_args(world_dir, out, "--request", str(out / "request.json")))
        assert code == 2
        assert json.loads((out / "request.json").read_text())["start_day"] == 99

    def test_random_solver_runs(self, world_dir, tmp_path):
        out = tmp_path / "out"
        assert main(fast_solve_args(world_dir, out, "--algo", "random")) == 0
        assert read_solution(out)["algorithm"] == "random"

    def test_zero_generations_header_only_convergence(self, world_dir, tmp_path):
        out = tmp_path / "out"
        assert main(fast_solve_args(world_dir, out, "--generations", "0")) == 0
        assert (out / "convergence.csv").read_text() == "generation,best_fitness,mean_fitness\n"
        assert len(read_solution(out)["assignments"]) == 3

    def test_request_file_used_verbatim(self, world_dir, tmp_path):
        request_path = tmp_path / "request.json"
        save_request(ScheduleRequest(acts=("E07", "E11")), request_path)
        out = tmp_path / "out"
        assert main(
            fast_solve_args(world_dir, out, "--request", str(request_path))
        ) == 0
        document = read_solution(out)
        assert document["request"]["acts"] == ["E07", "E11"]
        assert len(document["assignments"]) == 2

    def test_preference_flags_filter_assignments(self, world_dir, tmp_path):
        out = tmp_path / "out"
        assert main(
            fast_solve_args(world_dir, out, "--prefer-facility", "F2")
        ) == 0
        document = read_solution(out)
        assert document["request"]["preferred_facilities"] == ["F2"]
        assert all(
            entry["slot"]["facility"] == "F2" for entry in document["assignments"]
        )

    def test_start_day_shifts_all_slots(self, world_dir, tmp_path):
        out = tmp_path / "out"
        assert main(fast_solve_args(world_dir, out, "--start-day", "4")) == 0
        document = read_solution(out)
        assert document["request"]["start_day"] == 4
        assert all(
            entry["slot"]["start"] >= 4 * MINUTES_PER_DAY
            for entry in document["assignments"]
        )

    def test_unschedulable_start_day_exits_2(self, world_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(fast_solve_args(world_dir, out, "--start-day", "10"))
        assert code == 2
        assert "unschedulable" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ALL_ALGORITHMS)
    def test_request_leaving_some_acts_without_candidates_exits_2(
        self, seed_one_world, tmp_path, capsys, algo
    ):
        # Seed 3's five-act request from day 29 at F1: three acts have no
        # candidate, two have some.  Every algorithm rejects it; none books
        # the two alone.
        out = tmp_path / "out"
        code = main(
            [
                "solve", "--world", str(seed_one_world), "--seed", "3",
                "--start-day", "29", "--prefer-facility", "F1",
                "--algo", algo, "--out", str(out),
            ]
        )
        assert code == 2
        assert (
            "error: unschedulable: no candidate slots for E34, E18, E13 "
            "under start_day=29, facilities=['F1']"
        ) in capsys.readouterr().err
        assert not (out / "solution.json").exists()

    @pytest.mark.parametrize("algo", ALL_ALGORITHMS)
    def test_exam_requested_more_often_than_it_has_slots_exits_2(
        self, seed_42_world, tmp_path, capsys, algo
    ):
        # E15 has one slot from day 29 with P1: FCFS used to book one act of
        # two, and the GA the one slot twice.
        request = tmp_path / "request.json"
        request.write_text(
            json.dumps({"acts": ["E15", "E15"], "start_day": 29, "preferred_practitioners": ["P1"]})
        )
        out = tmp_path / "out"
        code = main(
            ["solve", "--world", str(seed_42_world), "--request", str(request),
             "--algo", algo, "--out", str(out)]
        )
        assert code == 2
        assert (
            "error: unschedulable: more acts than candidate slots for E15 (acts 2, slots 1) "
            "under start_day=29, practitioners=['P1']"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_missing_world_file_exits_2(self, tmp_path):
        assert main(
            ["solve", "--world", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        ) == 2

    def test_malformed_world_file_exits_2(self, tmp_path):
        bad = tmp_path / "world.json"
        bad.write_text("{not json")
        assert main(["solve", "--world", str(bad), "--out", str(tmp_path)]) == 2

    def test_truncated_world_file_exits_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "world.json"
        bad.write_text('{"config": ')
        assert main(["solve", "--world", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: malformed world file {bad}: Expecting value" in err

    def test_truncated_request_file_exits_2_naming_it(self, world_dir, tmp_path, capsys):
        request_path = tmp_path / "request.json"
        request_path.write_text('{"acts": [')
        out = tmp_path / "out"
        code = main(fast_solve_args(world_dir, out, "--request", str(request_path)))
        assert code == 2
        assert f"error: malformed request file {request_path}: Expecting value" in capsys.readouterr().err
        assert not (out / "solution.json").exists()

    @pytest.mark.parametrize(
        ("version", "rows"),
        [(None, True), (1, True), ("2", False)],
        ids=["missing", "1", "str"],
    )
    def test_world_file_of_another_format_exits_2_naming_it(
        self, world_dir, tmp_path, capsys, version, rows
    ):
        # None: no "format" key.  rows: the unversioned layout's slot list.
        document = json.loads((world_dir / "world.json").read_text())
        if rows:
            document = unversioned_world_document(document)
        if version is not None:
            document["format"] = version
        bad = tmp_path / "world.json"
        bad.write_text(json.dumps(document))
        out = tmp_path / "out"
        assert main(["solve", "--world", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"world file {bad}: " in err and "medsched reads world format 2 only" in err
        assert not out.exists()

    def test_world_file_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "world.json"
        bad.write_bytes(b"\xff")
        assert main(["solve", "--world", str(bad), "--out", str(tmp_path)]) == 2
        assert f"malformed world file {bad}" in capsys.readouterr().err

    def test_request_file_not_utf8_exits_2(self, world_dir, tmp_path, capsys):
        request_path = tmp_path / "request.json"
        request_path.write_bytes(b"\xff")
        out = tmp_path / "out"
        code = main(fast_solve_args(world_dir, out, "--request", str(request_path)))
        assert code == 2
        assert f"malformed request file {request_path}" in capsys.readouterr().err
        assert not (out / "solution.json").exists()

    def test_incomplete_world_document_exits_2(self, tmp_path):
        bad = tmp_path / "world.json"
        bad.write_text("{}")
        assert main(["solve", "--world", str(bad), "--out", str(tmp_path)]) == 2

    def test_request_naming_unknown_exam_exits_2(self, world_dir, tmp_path, capsys):
        request_path = tmp_path / "request.json"
        request_path.write_text(json.dumps({"acts": ["E01", "ZZZ"]}))
        out = tmp_path / "out"
        code = main(fast_solve_args(world_dir, out, "--request", str(request_path)))
        assert code == 2
        assert "ZZZ" in capsys.readouterr().err
        assert not (out / "solution.json").exists()

    @pytest.mark.parametrize(
        ("document", "field"),
        [
            ({"acts": ["E01"], "preferred_facilities": 5}, "preferred_facilities"),
            ({"acts": ["E01"], "start_day": -1}, "start_day"),
            ({"acts": []}, "acts"),
        ],
    )
    def test_malformed_request_exits_2_naming_field(
        self, world_dir, tmp_path, capsys, document, field
    ):
        request_path = tmp_path / "request.json"
        request_path.write_text(json.dumps(document))
        out = tmp_path / "out"
        code = main(fast_solve_args(world_dir, out, "--request", str(request_path)))
        assert code == 2
        assert f"malformed request field {field}" in capsys.readouterr().err
        assert not (out / "solution.json").exists()

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("start", "abc"),
            ("duration_minutes", -30),
            ("start", 5940.0),
            ("duration_minutes", True),
            ("id", 5),
            ("exam", "ZZZ"),
            ("facility", "ZZZ"),
            ("room", "ZZZ"),
        ],
    )
    def test_malformed_slot_exits_2_naming_it(
        self, world_dir, tmp_path, capsys, field, value
    ):
        document = json.loads((world_dir / "world.json").read_text())
        document["slots"][field][3] = value
        bad = tmp_path / "world.json"
        bad.write_text(json.dumps(document))
        assert main(["solve", "--world", str(bad), "--out", str(tmp_path)]) == 2
        assert "slots[3]" in capsys.readouterr().err

    def test_duplicate_slot_id_exits_2_naming_it(self, world_dir, tmp_path, capsys):
        document = json.loads((world_dir / "world.json").read_text())
        ids = document["slots"]["id"]
        ids[3] = ids[0]
        bad = tmp_path / "world.json"
        bad.write_text(json.dumps(document))
        assert main(["solve", "--world", str(bad), "--out", str(tmp_path)]) == 2
        assert "slots[3]: duplicate slot id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("section", "index", "duplicate"),
        [("exams", 3, "E00"), ("facilities", 1, "F1")],
    )
    def test_duplicate_exam_or_facility_id_exits_2_naming_it(
        self, world_dir, tmp_path, capsys, section, index, duplicate
    ):
        document = json.loads((world_dir / "world.json").read_text())
        document[section][index]["id"] = duplicate
        bad = tmp_path / "world.json"
        bad.write_text(json.dumps(document))
        assert main(["solve", "--world", str(bad), "--out", str(tmp_path)]) == 2
        assert f"{section}[{index}]: duplicate" in capsys.readouterr().err

    def test_rule_naming_unknown_exam_exits_2_naming_it(
        self, world_dir, tmp_path, capsys
    ):
        document = json.loads((world_dir / "world.json").read_text())
        document["rules"][1]["second"] = "ZZZ"
        bad = tmp_path / "world.json"
        bad.write_text(json.dumps(document))
        assert main(["solve", "--world", str(bad), "--out", str(tmp_path)]) == 2
        assert "rules[1]: unknown exam 'ZZZ'" in capsys.readouterr().err


class TestBench:
    def test_small_benchmark_writes_all_tables(self, world_dir, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--world", str(world_dir / "world.json"), "--out", str(out),
             "--trials", "2", "--acts", "3", "--generations", "3",
             "--population", "8", "--tournament-k", "3"]
        )
        assert code == 0
        for name in BENCH_FILES:
            assert (out / name).exists()
        with open(out / "convergence.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        algorithms = {row[0] for row in rows[1:]}
        assert algorithms == {"ga-ordered", "ga-unordered", "fcfs", "random"}
        assert "2 trials x 4 algorithms" in capsys.readouterr().out

    def test_single_trial_restricted_algorithms(self, world_dir, tmp_path):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--world", str(world_dir / "world.json"), "--out", str(out),
             "--trials", "1", "--acts", "2", "--algo", "fcfs", "--algo", "random",
             "--generations", "1", "--population", "4", "--tournament-k", "2"]
        )
        assert code == 0
        with open(out / "itr.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["algorithm", "trial", "itr"]
        assert [row[0] for row in rows[1:]] == ["fcfs", "random"]
        with open(out / "stats.csv", newline="") as handle:
            stats = list(csv.reader(handle))
        assert len(stats) == 1 + 2  # one pair, two metrics

    def test_repeated_algorithm_usage_error(self, world_dir, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(
            ["bench", "--world", str(world_dir / "world.json"), "--out", str(out),
             "--trials", "2", "--algo", "fcfs", "--algo", "fcfs"]
        ) == 1
        assert "more than once: ['fcfs']" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_file_exits_2_before_the_grid_runs(
        self, world_dir, tmp_path, capsys, monkeypatch
    ):
        def never(*args):
            raise AssertionError("run_bench called")

        monkeypatch.setattr(cli, "run_bench", never)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert main(
            ["bench", "--world", str(world_dir / "world.json"), "--out", str(out),
             "--trials", "1", "--acts", "2"]
        ) == 2
        assert "File exists" in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_failed_cell_exits_2_after_writing_every_file(
        self, world_dir, tmp_path, capsys, monkeypatch
    ):
        real = bench.run_algorithm

        def flaky(algorithm, *args):
            if algorithm == "random":
                raise RuntimeError("boom")
            return real(algorithm, *args)

        monkeypatch.setattr(bench, "run_algorithm", flaky)
        out = tmp_path / "bench"
        code = main(
            ["bench", "--world", str(world_dir / "world.json"), "--out", str(out),
             "--trials", "2", "--acts", "2", "--generations", "2",
             "--population", "4", "--tournament-k", "2"]
        )
        assert code == 2
        for name in BENCH_FILES:
            assert (out / name).exists()
        captured = capsys.readouterr()
        assert "trial 1 random: RuntimeError: boom" in captured.err
        assert "(2 failed)" in captured.out

    def test_dead_worker_exits_2_after_writing_every_file(
        self, world_dir, tmp_path, capsys, monkeypatch
    ):
        # The second of two workers runs every ga-unordered and random cell.
        real = bench.solve_cell

        def dies_on_unordered(algorithm, *args):
            if algorithm == "ga-unordered":
                os._exit(3)
            return real(algorithm, *args)

        monkeypatch.setattr(bench, "solve_cell", dies_on_unordered)
        monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
        out = tmp_path / "bench"
        code = main(
            ["bench", "--world", str(world_dir / "world.json"), "--out", str(out),
             "--trials", "2", "--acts", "2", "--generations", "2",
             "--population", "4", "--tournament-k", "2"]
        )
        assert code == 2
        for name in BENCH_FILES:
            assert (out / name).exists()
        captured = capsys.readouterr()
        for trial in (0, 1):
            for algorithm in ("ga-unordered", "random"):
                assert f"trial {trial} {algorithm}: worker exited with status 3" in captured.err
        assert "(4 failed)" in captured.out
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_invalid_trials_usage_error(self, world_dir, tmp_path):
        assert main(
            ["bench", "--world", str(world_dir / "world.json"),
             "--out", str(tmp_path), "--trials", "0"]
        ) == 1


class TestStats:
    @pytest.fixture()
    def value_csv(self, tmp_path):
        path = tmp_path / "itr.csv"
        path.write_text(
            "algorithm,trial,itr\n"
            "ga-ordered,0,0.30\nga-ordered,1,0.20\nga-ordered,2,0.25\n"
            "fcfs,0,0.90\nfcfs,1,0.80\nfcfs,2,\n"
        )
        return path

    def test_writes_stats_file(self, value_csv, tmp_path):
        out = tmp_path / "stats-out"
        assert main(["stats", str(value_csv), "--out", str(out)]) == 0
        with open(out / "stats.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["metric", "algo_a", "algo_b", "u", "p"]
        ((metric, algo_a, algo_b, u, p),) = rows[1:]
        assert (metric, algo_a, algo_b) == ("itr", "ga-ordered", "fcfs")
        assert float(u) == 0.0  # the blank cell is skipped, samples fully separated
        assert 0 < float(p) <= 1

    def test_prints_to_stdout_without_out(self, value_csv, capsys):
        assert main(["stats", str(value_csv)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,algo_a,algo_b,u,p"
        assert len(lines) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["stats", str(tmp_path / "absent.csv")]) == 2

    @pytest.mark.parametrize(
        ("content", "line", "problem"),
        [
            (b"", 1, "expected header algorithm,trial,<metric>"),
            (b"x\n", 1, "expected header algorithm,trial,<metric>"),
            (
                b"algorithm,trial,itr\nfcfs,0,0.5\nfcfs,1,abc\n",
                3,
                "could not convert string to float: 'abc'",
            ),
            (b"algorithm,trial,itr\nfcfs,0,0.5\nfcfs,1\n", 3, "expected algorithm,trial,itr"),
            (b"algorithm,trial,itr\nfcfs,0,0.5\n\xff,1,0.5\n", 3, "not UTF-8"),
            (b"algorithm,trial,itr\nfcfs,0,0.5\nfcfs,1,nan\n", 3, "not a finite number: 'nan'"),
            (b"algorithm,trial,itr\nfcfs,0,inf\n", 2, "not a finite number: 'inf'"),
            (b"algorithm,trial,itr\nfcfs,0,0.5\nfcfs,1,-inf\n", 3, "not a finite number: '-inf'"),
            (b"algorithm,trial,itr\nfcfs,0,1e999\n", 2, "not a finite number: '1e999'"),
        ],
        ids=["empty", "headerless", "not-a-number", "short-row", "not-utf8",
             "nan", "inf", "minus-inf", "overflow"],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, content, line, problem):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"malformed CSV file {path}, line {line}: {problem}" in err

    def test_blank_line_skipped(self, value_csv, capsys):
        assert main(["stats", str(value_csv)]) == 0
        expected = capsys.readouterr().out
        value_csv.write_text(value_csv.read_text().replace("\n", "\n\n", 1))
        assert main(["stats", str(value_csv)]) == 0
        assert capsys.readouterr().out == expected


class TestFlagDefaults:
    # The CLI's defaults are the config classes' own, not a second copy.
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_no_flags_give_the_config_defaults(self, command):
        args = build_parser().parse_args([command])
        assert _ga_config(args) == GAConfig()
        assert args.acts == BenchConfig().acts_per_request

    def test_bench_trials_default(self):
        assert build_parser().parse_args(["bench"]).trials == BenchConfig().trials

    def test_gen_world_defaults(self):
        args = build_parser().parse_args(["gen-world"])
        assert (args.rule_count, args.horizon_days) == (
            WorldConfig().rule_count,
            WorldConfig().horizon_days,
        )


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-world" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["solve", "--algo", "branch-and-bound"]) == 1

    def test_ga_is_not_an_algorithm(self):
        # ga-ordered is the default and has no shorter alias.
        assert main(["solve", "--algo", "ga"]) == 1

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEDSCHED_SEED", "9")
        assert main(
            ["gen-world", "--horizon-days", "3", "--out", str(tmp_path / "env")]
        ) == 0
        assert main(
            ["gen-world", "--seed", "9", "--horizon-days", "3", "--out", str(tmp_path / "flag")]
        ) == 0
        assert (tmp_path / "env" / "world.json").read_bytes() == (
            tmp_path / "flag" / "world.json"
        ).read_bytes()

    def test_invalid_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEDSCHED_SEED", "not-a-number")
        assert main(["gen-world", "--out", str(tmp_path)]) == 1


def test_cli_import_loads_no_process_pool_module():
    # ``bench`` forks its workers itself, and imports pickle only to do so:
    # these imports would add to the start-up time and memory of every command.
    src = Path(medsched.__file__).resolve().parent.parent
    code = (
        "import sys, medsched.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures', 'pickle'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout == "[]\n"

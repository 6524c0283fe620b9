"""The package's public surface: every exported name resolves, no removed one
returns, the README's library example runs, and only the standard library is
imported."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import medsched
from medsched import constraints, model, worldio

ROOT = Path(__file__).resolve().parent.parent

REMOVED = {
    "Trip",
    "TripSegmentation",
    "Violation",
    "ViolationKind",
    "gap_minutes",
    "ConstraintFlags",
    "constraint_fulfillment",
    "ActOrder",
    "idle_time_ratio",
    "trip_count",
    "find_overlaps",
    "check_incompatibilities",
    "segment_trips",
    "check_travel_gaps",
    "slots_overlap",
    "Variant",
    "GA_VARIANTS",
    "require_candidates",
    # The one-object-per-slot world reader and writer, gone with world format 2.
    "_slot_from_dict",
    "_slots_from_list",
    "_SLOT_JSON",
    # The hand-written fitness memo, replaced by ``functools.lru_cache``.
    "_memoised",
    # The partial-schedule model and the second pick order, gone now that a
    # schedule books every act and both scorers sort picks as plain tuples.
    "MISSING_SLOT_PENALTY",
    "_START_ID",
    # Second ways: ``evolve`` returns ``(best, history)``, and fulfillment's
    # constraint names are the first column of ``bench.CONSTRAINT_FLAGS``.
    "EvolveResult",
    "CONSTRAINT_NAMES",
}

# Names that moved to the tests' oracle (``tests/oracle.py``) or beside the
# test that uses them, by the module that defined them.
MOVED = {
    constraints: (
        "find_overlaps",
        "_separation",
        "check_incompatibilities",
        "segment_trips",
        "check_travel_gaps",
        "idle_minutes",
    ),
    model: ("slots_overlap",),
    worldio: ("world_to_dict",),
}


def test_every_exported_name_resolves():
    missing = [name for name in medsched.__all__ if not hasattr(medsched, name)]
    assert missing == []


def package_modules():
    return [
        importlib.import_module(f"medsched.{info.name}")
        for info in pkgutil.iter_modules(medsched.__path__)
    ]


def test_removed_names_stay_removed():
    assert REMOVED.isdisjoint(medsched.__all__)
    for module in [medsched, *package_modules()]:
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__


def test_moved_names_are_not_defined_in_the_package():
    for module, names in MOVED.items():
        assert [name for name in names if hasattr(module, name)] == [], module.__name__


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    score = float(capsys.readouterr().out)
    assert 0.0 < score <= 1.0


def test_package_imports_only_the_standard_library():
    imported = set()
    for path in sorted((ROOT / "src" / "medsched").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported, "no imports found"
    assert sorted(imported - sys.stdlib_module_names) == []


def test_rule_logic_is_read_only_by_rule_checks_and_datagen():
    # One reader of a rule's logic: ``constraints.rule_checks`` compiles the
    # rules for scoring and for the act order; ``datagen._LOGICS`` draws them.
    readers = set()
    for path in sorted((ROOT / "src" / "medsched").glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, ast.Assign):
                name = getattr(statement.targets[0], "id", None)
            else:
                name = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "RuleLogic"
                    and node.attr in {"BEFORE", "AFTER", "BOTH"}
                ):
                    readers.add((path.stem, name))
    assert readers == {("constraints", "rule_checks"), ("datagen", "_LOGICS")}


def test_unschedulable_error_is_raised_only_by_filter_search_space():
    # One rule, in one place: a request is unschedulable when any act has no
    # candidate after filtering.
    raisers = set()
    for path in sorted((ROOT / "src" / "medsched").glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Raise) and node.exc is not None and any(
                    isinstance(part, ast.Name) and part.id == "UnschedulableError"
                    for part in ast.walk(node.exc)
                ):
                    raisers.add((path.stem, name))
    assert raisers == {("ga", "filter_search_space")}

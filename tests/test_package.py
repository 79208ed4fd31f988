"""The package namespace and the immutable records it exports."""

import importlib
import pickle
import shlex
from pathlib import Path

import pytest

import sperner
from sperner import (
    BoundResult,
    CompatibilityGraph,
    DifferenceCheck,
    InitialPartition,
    Partition,
    PartitionSystem,
    SearchOutcome,
    SpernerReport,
    enumerate_partitions,
)

from oracles import graph_from_edges

# every public name -> the submodule that defines it
PUBLIC = {
    "BoundResult": "bounds",
    "CompatibilityGraph": "search",
    "DifferenceCheck": "rotation",
    "FORMAT_VERSION": "formats",
    "InitialPartition": "rotation",
    "ParseError": "formats",
    "Partition": "model",
    "PartitionSystem": "model",
    "SearchOutcome": "search",
    "SpernerReport": "model",
    "best_lower": "bounds",
    "best_upper": "bounds",
    "bounds_table": "bounds",
    "build_graph": "search",
    "candidate_count": "search",
    "check_difference_property": "rotation",
    "construct_2k1": "construct",
    "construct_2k2": "construct",
    "construct_3k1": "construct",
    "construct_auto": "construct",
    "construct_k2": "construct",
    "counting_upper_bound": "bounds",
    "develop": "rotation",
    "elements_of": "model",
    "enumerate_partitions": "search",
    "extend_by_one": "construct",
    "fixture_names": "fixtures",
    "fixture_text": "fixtures",
    "format_report": "model",
    "incomparable": "model",
    "is_almost_uniform": "model",
    "known_exact": "bounds",
    "latin_lift": "construct",
    "load_fixture": "fixtures",
    "mask_of": "model",
    "max_clique": "search",
    "parse": "formats",
    "plan_construction": "construct",
    "relabel": "model",
    "serialize": "formats",
    "solve_initial_2k1": "rotation",
    "solve_sp": "search",
    "sp_bounds": "bounds",
    "validate_partition": "model",
    "verify_sperner": "model",
}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 45
    assert sorted(sperner.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_name_is_the_defining_module_object(name):
    module = importlib.import_module(f"sperner.{PUBLIC[name]}")
    assert getattr(sperner, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from sperner import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(sperner, name)


def test_dir_lists_every_name_and_submodule():
    listed = dir(sperner)
    assert set(PUBLIC) <= set(listed)
    assert set(PUBLIC.values()) | {"cli"} <= set(listed)


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_thing"):
        sperner.no_such_thing  # noqa: B018
    with pytest.raises(ImportError):
        exec("from sperner import no_such_thing", {})


def test_submodules_are_attributes():
    for module in set(PUBLIC.values()) | {"cli"}:
        assert getattr(sperner, module) is importlib.import_module(f"sperner.{module}")
    assert sperner.search.MAX_ADJ_BYTES > 0


# ---------------------------------------------------------------- records


def _system():
    return PartitionSystem(4, 2, [Partition(4, [[0, 1], [2, 3]])])


# record type -> (field names in order, one set of field values)
RECORDS = {
    BoundResult: (
        ("n", "k", "lower", "upper", "lower_provenance", "upper_provenance"),
        lambda: (7, 3, 5, 5, (("r", "d"),), (("s", "e"),)),
    ),
    SpernerReport: (("valid", "violations", "wellformed_errors"), lambda: (True, (), ())),
    DifferenceCheck: (("ok", "problems"), lambda: (False, ("edge difference 1",))),
    CompatibilityGraph: (("adj", "candidates"), lambda: ((0,), _system())),
    SearchOutcome: (
        ("best", "vertices", "size", "proven_optimal", "nodes_explored", "elapsed", "root_bound"),
        lambda: (_system(), (0,), 1, True, 3, 0.5, 2),
    ),
}


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_record_fields_in_order(record):
    fields, values = RECORDS[record]
    r = record(*values())
    assert [getattr(r, f) for f in fields] == list(values())
    assert record(**dict(zip(fields, values()))) == r


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_record_is_immutable(record):
    fields, values = RECORDS[record]
    r = record(*values())
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(r, f, None)
        with pytest.raises(AttributeError):
            delattr(r, f)
    with pytest.raises(AttributeError):
        r.extra = 1


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_record_equality_hash_and_repr(record):
    fields, values = RECORDS[record]
    a, b = record(*values()), record(*values())
    assert a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    text = repr(a)
    assert text.startswith(f"{record.__name__}(")
    for f in fields:
        assert f"{f}=" in text


def test_record_defaults():
    assert CompatibilityGraph((0,)).candidates is None
    # the vertex count is read off the rows, so the two cannot disagree
    assert CompatibilityGraph((0, 0, 0)).num_vertices == 3
    assert graph_from_edges(4, []).num_vertices == 4


def test_records_keep_their_validation():
    with pytest.raises(ValueError, match="at least 3 points"):
        InitialPartition(2, [(1, 2)])


def test_candidate_set_length_and_difference_check_truth():
    candidates = enumerate_partitions(7, 3)
    assert type(candidates) is PartitionSystem and len(candidates) == 105
    assert bool(DifferenceCheck(False, ())) is False
    assert bool(DifferenceCheck(True, ())) is True


def test_package_source_has_no_dataclasses():
    src = Path(sperner.__file__).parent
    for path in src.glob("*.py"):
        assert "dataclass" not in path.read_text(encoding="utf-8"), path.name


def test_readme_quickstart_runs(capsys):
    # the README's "Library quickstart" block, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert "lower=11, upper=27" in printed[0]
    assert printed[1] == "5 True"


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # the README's CLI "Examples" block, each command run through main in an
    # empty directory; the last command of each line prints what its comment says
    from sperner.cli import main

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nExamples:\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        commands, _, stated = line.partition("#")
        for command in commands.split("&&"):
            program, *argv = shlex.split(command)
            assert (program, main(argv)) == ("sperner", 0), line
            out = capsys.readouterr().out
        if out.startswith("# name: "):  # a system document: its size and ground set
            system = sperner.parse(out)
            out = f"{len(system)} partitions on {system.n} elements"
        assert stated.strip() and stated.strip() in out, line

import json

import pytest

from sperner import (
    FORMAT_VERSION,
    ParseError,
    Partition,
    PartitionSystem,
    fixture_names,
    fixture_text,
    load_fixture,
    parse,
    serialize,
    verify_sperner,
)


def test_text_roundtrip_all_fixtures():
    for name in fixture_names():
        system = load_fixture(name)
        assert parse(serialize(system, fmt="text")) == system


def test_json_roundtrip_all_fixtures():
    for name in fixture_names():
        system = load_fixture(name)
        assert parse(serialize(system, fmt="json")) == system


def test_serialize_is_canonical_and_stable():
    a = PartitionSystem(4, 2, [Partition(4, [[2, 3], [0, 1]]), Partition(4, [[0, 2], [1, 3]])])
    b = PartitionSystem(4, 2, [Partition(4, [[1, 3], [0, 2]]), Partition(4, [[0, 1], [2, 3]])])
    assert serialize(a) == serialize(b)
    assert serialize(a, fmt="json") == serialize(a, fmt="json")


def test_serialize_empty_system():
    empty = PartitionSystem(7, 3, [])
    text = serialize(empty)
    assert parse(text) == empty
    assert parse(serialize(empty, fmt="json")) == empty


def test_json_document_shape():
    doc = json.loads(serialize(load_fixture("fig-7-3"), fmt="json"))
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["n"] == 7 and doc["k"] == 3
    assert len(doc["partitions"]) == 5
    assert doc["name"] == "fig-7-3"


def test_parse_single_partition_text():
    system = parse("7 3 1\n0,1|2,3|4,5,6\n")
    assert len(system) == 1
    assert system.partitions[0] == Partition(7, [[0, 1], [2, 3], [4, 5, 6]])


def test_parse_uncovered_element():
    with pytest.raises(ParseError, match="element 6 uncovered") as err:
        parse("7 3 1\n0,1|2,3|4,5\n")
    assert err.value.line == 2


def test_parse_duplicate_element():
    with pytest.raises(ParseError, match="appears more than once"):
        parse("4 2 1\n0,1|1,2,3\n")


def test_parse_wrong_class_count():
    with pytest.raises(ParseError, match="expected 3 classes"):
        parse("6 3 1\n0,1|2,3,4,5\n")


def test_parse_bad_token_position():
    with pytest.raises(ParseError) as err:
        parse("4 2 1\n0,x|2,3\n")
    assert err.value.line == 2
    assert err.value.column == 3


def test_parse_partition_count_mismatch():
    with pytest.raises(ParseError, match="declares 2 partitions"):
        parse("4 2 2\n0,1|2,3\n")


def test_parse_one_based_and_inf():
    system = parse("5 2 1 base=1\n1,2|3,4,inf\n")
    assert system.partitions[0] == Partition(5, [[0, 1], [2, 3, 4]])


def test_parse_bad_header():
    with pytest.raises(ParseError, match="three integers"):
        parse("seven 3 5\n")
    with pytest.raises(ParseError, match="unrecognized header token"):
        parse("7 3 0 base=2\n")
    with pytest.raises(ParseError, match="empty document"):
        parse("\n# only a comment\n")


def test_parse_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse('{"n": 7,,}')
    with pytest.raises(ParseError, match="missing required key"):
        parse('{"n": 7, "k": 3}')
    with pytest.raises(ParseError, match="format_version"):
        parse('{"format_version": 99, "n": 7, "k": 3, "partitions": []}')


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"n": 2, "k": 2, "partitions": [[[false], [true]]]}', "element False is not an integer"),
        ('{"n": true, "k": 1, "partitions": [[[0]]]}', "n and k must be positive integers"),
        ('{"n": 2, "k": true, "partitions": [[[0, 1]]]}', "n and k must be positive integers"),
        ('{"format_version": true, "n": 1, "k": 1, "partitions": []}', "format_version True"),
    ],
)
def test_parse_json_rejects_booleans(doc, message):
    # JSON true and false load as Python bools, which are ints
    with pytest.raises(ParseError, match=message):
        parse(doc)


def test_fixture_texts_keep_original_labels():
    assert "inf" in fixture_text("fig-17-8")
    assert "base=1" in fixture_text("fig-9-4")
    assert "base" not in fixture_text("fig-7-3")


def test_all_fixtures_valid():
    for name in fixture_names():
        assert verify_sperner(load_fixture(name)).valid, name


def test_fixture_shapes():
    expected = {
        "fig-7-3": (7, 3, 5),
        "fig-17-8": (17, 8, 16),
        "fig-9-4": (9, 4, 8),
        "fig-11-4": (11, 4, 11),
        "fig-8-3": (8, 3, 8),
        "fig-10-4": (10, 4, 10),
    }
    assert set(fixture_names()) == set(expected)
    for name, (n, k, count) in expected.items():
        system = load_fixture(name)
        assert (system.n, system.k, len(system)) == (n, k, count)

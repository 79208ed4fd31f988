import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sperner import (
    FORMAT_VERSION,
    ParseError,
    Partition,
    PartitionSystem,
    construct_2k2,
    construct_3k1,
    construct_k2,
    enumerate_partitions,
    fixture_names,
    fixture_text,
    load_fixture,
    parse,
    serialize,
    verify_sperner,
)
from sperner import formats


def test_text_roundtrip_all_fixtures():
    for name in fixture_names():
        system = load_fixture(name)
        assert parse(serialize(system, fmt="text")) == system


def test_candidate_set_roundtrips():
    # enumerate_partitions gives a PartitionSystem, so it serializes like any system
    candidates = enumerate_partitions(7, 3)
    assert parse(serialize(candidates)) == candidates
    assert parse(serialize(candidates, fmt="json")) == candidates


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


def test_serialize_refuses_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        serialize(load_fixture("fig-7-3"), fmt="xml")


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


def test_parse_huge_header_builds_no_n_bit_mask():
    # a 10^7-bit mask is 1.25 MB; the uncovered element is still named
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="element 1 uncovered"):
            parse("10000000 1 1\n0\n")
        with pytest.raises(ParseError, match="element 1 uncovered"):
            parse(json.dumps({"n": 10**7, "k": 1, "partitions": [[[0]]]}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


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
    with pytest.raises(ParseError, match="line 1, column 1: header must be 'n k m'"):
        parse("7 3\n")


def test_parse_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse('{"n": 7,,}')
    with pytest.raises(ParseError, match="missing required key"):
        parse('{"n": 7, "k": 3}')
    with pytest.raises(ParseError, match="format_version"):
        parse('{"format_version": 99, "n": 7, "k": 3, "partitions": []}')
    with pytest.raises(ParseError, match="partitions must be a list"):
        parse('{"n": 2, "k": 2, "partitions": {"0": [[0], [1]]}}')
    with pytest.raises(ParseError, match="partition 1 must be a list of element lists"):
        parse('{"n": 2, "k": 2, "partitions": [[[0], [1]], [0, 1]]}')
    with pytest.raises(ParseError, match="name must be a string or null"):
        parse('{"n": 2, "k": 2, "partitions": [], "name": 7}')
    # parse reads only a document that opens with "{" as JSON, so a
    # top-level array is a text document whose header is too short
    with pytest.raises(ParseError, match="header must be 'n k m'"):
        parse("[[[0], [1]]]")
    with pytest.raises(ParseError, match="top-level JSON value must be an object"):
        formats._parse_json("[[[0], [1]]]")


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


def reference_serialize(system, fmt="text"):
    """serialize as it stood before it built each partition's element tuples once."""
    parts = sorted(system.partitions, key=lambda p: p.class_sets)
    if fmt == "text":
        lines = []
        if system.name:
            lines.append(f"# name: {system.name}")
        lines.append(f"{system.n} {system.k} {len(parts)}")
        for p in parts:
            lines.append("|".join(",".join(str(e) for e in c) for c in p.class_sets))
        return "\n".join(lines) + "\n"
    doc = {
        "format_version": FORMAT_VERSION,
        "n": system.n,
        "k": system.k,
        "name": system.name,
        "partitions": [[list(c) for c in p.class_sets] for p in parts],
        "metadata": {},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def systems(draw):
    """Random systems, well formed or not: classes may overlap, be empty or leave 0..n-1."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    element = st.integers(0, n + 1)
    partition = st.lists(st.lists(element, max_size=n), min_size=k, max_size=k)
    rows = draw(st.lists(partition, max_size=12))
    name = draw(st.none() | st.sampled_from(["", "x", "fig 1"]))
    return PartitionSystem(n, k, [Partition(n, classes, k) for classes in rows], name=name)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_serialize_matches_reference_on_random_systems(system):
    assert serialize(system) == reference_serialize(system)
    assert serialize(system, fmt="json") == reference_serialize(system, fmt="json")


@pytest.mark.parametrize("name", fixture_names())
def test_serialize_matches_reference_on_fixtures(name):
    system = load_fixture(name)
    for fmt in ("text", "json"):
        assert serialize(system, fmt=fmt) == reference_serialize(system, fmt=fmt)


@pytest.mark.parametrize("build, k", [(construct_3k1, 100), (construct_2k2, 130)])
def test_serialize_matches_reference_past_one_byte_labels(build, k):
    # n = 299 and 262: element codes take two bytes in the sort key
    system = build(k)
    assert system.n >= 256
    for fmt in ("text", "json"):
        assert serialize(system, fmt=fmt) == reference_serialize(system, fmt=fmt)


@pytest.mark.parametrize("top", [254, 255, 256, 65_534, 65_535, 65_536])
def test_serialize_matches_reference_at_key_width_edges(top):
    # labels out of range stretch the key width; classes that are prefixes
    # of each other and empty classes test the closing code
    rows = [
        [[0, top], [1]],
        [[0], [1, top]],
        [[0, 1], [top]],
        [[], [0, 1, top]],
        [[0, top - 1], [1]],
        [[top - 1, top], []],
        [[0], [1]],
    ]
    system = PartitionSystem(3, 2, [Partition(3, classes, 2) for classes in rows])
    for fmt in ("text", "json"):
        assert serialize(system, fmt=fmt) == reference_serialize(system, fmt=fmt)


def test_serialize_keeps_a_few_bytes_per_class():
    # 10,740 classes; a tuple of element tuples per partition costs about
    # 100 bytes per class
    system = construct_3k1(60)
    classes = sum(len(p.classes) for p in system.partitions)
    tracemalloc.start()
    try:
        doc = serialize(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc == reference_serialize(system)
    assert peak - len(doc) < 40 * classes, (peak - len(doc)) / classes


@pytest.mark.parametrize("top", [0xD7FF, 0xD800, 0xDFFF, sys.maxunicode - 1, sys.maxunicode, sys.maxunicode + 1])
def test_serialize_matches_reference_at_the_ends_of_chrs_range(top):
    # a key holds the code e + 1 of each element as one character, and the
    # code top + 1 ends each line: labels in the surrogate range still make
    # characters, and labels past chr's range take the plain sort
    rows = [[[0, top], [1]], [[0], [1, top]], [[top - 1], [0, 1]], [[], [0, 1, top]]]
    system = PartitionSystem(3, 2, [Partition(3, classes, 2) for classes in rows])
    for fmt in ("text", "json"):
        assert serialize(system, fmt=fmt) == reference_serialize(system, fmt=fmt)


@settings(max_examples=100, deadline=None)
@given(systems(), st.integers(1, 40))
def test_serialize_in_small_chunks_matches_reference(system, chunk):
    # chunks of as little as one partition, each key longer than the chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_CHUNK", chunk)
        assert serialize(system) == reference_serialize(system)


def test_serialize_holds_the_document_and_a_few_bytes_per_partition():
    # 11,440 partitions.  The keys, freed chunk by chunk as the lines are
    # rendered, and the rendered chunks joined into the document stay within
    # 64 bytes per partition beyond the document itself; a (key, line)
    # tuple per partition costs over 200.
    system = construct_k2(17)
    tracemalloc.start()
    try:
        doc = serialize(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc == reference_serialize(system)
    assert peak - len(doc) < 64 * len(system), (peak - len(doc)) / len(system)


def test_parse_holds_no_list_of_lines():
    # The text reader holds a chunk of the document at a time, not its
    # 11,442 lines: beyond the system it returns, it needs a bounded few
    # times the chunk.  A list of lines and of (line, text) tuples costs
    # about 170 bytes per line, 1.9 MB here.
    system = construct_k2(17)
    doc = serialize(system)
    tracemalloc.start()
    try:
        parsed = parse(doc)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == system
    assert peak - retained < 4 * formats._CHUNK, peak - retained


def reference_build_partition(n, k, classes, line=None):
    """_build_partition as it stood, range-checking every element and walking it twice."""
    if len(classes) != k:
        raise ParseError(f"expected {k} classes, found {len(classes)}", line)
    seen = set()
    for c in classes:
        if not c:
            raise ParseError("empty class", line)
        for e in c:
            if not 0 <= e < n:
                raise ParseError(f"element {e} outside 0..{n - 1}", line)
            if e in seen:
                raise ParseError(f"element {e} appears more than once", line)
            seen.add(e)
    for e in range(n):
        if e not in seen:
            raise ParseError(f"element {e} uncovered", line)
    return Partition(n, classes, k)


@st.composite
def json_documents(draw):
    """JSON documents whose partitions break one or more rules, in any order."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    element = st.integers(-2, n + 1)
    partition = st.lists(st.lists(element, max_size=n), min_size=max(k - 1, 0), max_size=k + 1)
    rows = draw(st.lists(partition, max_size=4))
    return json.dumps({"n": n, "k": k, "partitions": rows})


@settings(max_examples=300, deadline=None)
@given(json_documents())
def test_json_reader_matches_reference(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_build_partition", reference_build_partition)
        expected = outcome(parse, text)
    assert outcome(parse, text) == expected


def reference_parse_text(text):
    """The text reader as it stood when it walked every character of a line."""
    from sperner.formats import _build_partition

    name = None
    header = None
    header_line = 0
    body = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("name:"):
                name = comment[len("name:"):].strip() or None
            continue
        if header is None:
            header = line
            header_line = lineno
        else:
            body.append((lineno, line))

    if header is None:
        raise ParseError("empty document")

    tokens = header.split()
    if len(tokens) < 3:
        raise ParseError("header must be 'n k m' with optional 'base=0|1'", header_line, 1)
    try:
        n, k, count = (int(t) for t in tokens[:3])
    except ValueError:
        raise ParseError("header must start with three integers", header_line, 1) from None
    if n < 1 or k < 1 or count < 0:
        raise ParseError("header values must be positive (partition count may be 0)", header_line, 1)
    base = 0
    for tok in tokens[3:]:
        if tok in ("base=0", "base=1"):
            base = int(tok[-1])
        else:
            raise ParseError(f"unrecognized header token {tok!r}", header_line, header.find(tok) + 1)

    if len(body) != count:
        raise ParseError(
            f"header declares {count} partitions, found {len(body)}",
            body[count][0] if len(body) > count else header_line,
        )

    partitions = []
    for lineno, line in body:
        classes = []
        cls = []
        token_start = 0
        for idx, ch in enumerate(line + ","):
            if ch not in ",|":
                continue
            word = line[token_start:idx].strip()
            col = token_start + 1
            token_start = idx + 1
            if word == "inf":
                cls.append(n - 1)
            else:
                try:
                    value = int(word)
                except ValueError:
                    raise ParseError(f"bad element token {word!r}", lineno, col) from None
                internal = value - base
                if not 0 <= internal < n:
                    raise ParseError(
                        f"element {value} outside the declared ground set", lineno, col
                    )
                cls.append(internal)
            if ch == "|":
                classes.append(cls)
                cls = []
        classes.append(cls)
        partitions.append(_build_partition(n, k, classes, line=lineno))
    return PartitionSystem(n, k, partitions, name=name)


def outcome(read, text):
    try:
        system = read(text)
    except ParseError as err:
        return ("error", err.message, err.line, err.column)
    return ("ok", system, system.name, [p.classes for p in system.partitions])


@st.composite
def text_documents(draw):
    """Text documents near the format: mostly well formed, with stray tokens and spacing."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    base = draw(st.sampled_from(["", " base=0", " base=1"]))
    label = st.one_of(
        st.integers(-1, n + 1).map(str),
        st.sampled_from(["inf", "", "x", "+1", "1_0", "0x1", "٣", "1 2"]),
    )
    space = st.sampled_from(["", " ", "\t", "  "])
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            rows.append(draw(st.text(alphabet="0123456789,| inf\tx-", max_size=20)))
            continue
        elems = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1)))
        groups = [elems[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])]
        words = [[str(e + (base == " base=1")) for e in g] for g in groups]
        if draw(st.booleans()) and words and words[0]:
            words[0][0] = draw(label)
        rows.append(
            "|".join(",".join(draw(space) + w + draw(space) for w in g) for g in words)
        )
    count = len(rows) + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
    lines = [f"{n} {k} {count}{base}"] + rows
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# name: fuzz")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text_documents())
def test_text_reader_matches_reference(text):
    assert outcome(parse, text) == outcome(reference_parse_text, text)


@pytest.mark.parametrize("name", fixture_names())
def test_text_reader_matches_reference_on_fixtures(name):
    text = fixture_text(name)
    assert outcome(parse, text) == outcome(reference_parse_text, text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab \n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", max_size=40), st.integers(1, 9))
def test_lines_split_like_splitlines(text, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_CHUNK", chunk)
        assert list(formats._lines(text)) == text.splitlines(keepends=True)


@pytest.mark.parametrize("separator", ["\r\n", "\r", "\x0b", "\x1c", "\u2028"], ids=repr)
def test_text_reader_across_chunk_boundaries(separator):
    # every chunk size up to the whole document: each line break falls at
    # a chunk boundary for some size, a CR LF pair split between two chunks
    # included
    documents = [
        "# name: x\n7 3 2\n0,1|2,3|4,5,6\n\n0,2|1,3|4,5,6\n",
        "7 3 2\n0,1|2,3|4,5,6\n0,2|1,3|4,5,6\n0,1|2,4|3,5,6\n",
        "5 2 1 base=1\n  \n1,2|3,4,inf\n# name: y",
        "7 3 1\n0,1|2,x|4,5,6\n",
        "\n\n# only a comment\n",
    ]
    for doc in documents:
        text = doc.replace("\n", separator)
        expected = outcome(reference_parse_text, text)
        with pytest.MonkeyPatch.context() as mp:
            for chunk in range(1, len(text) + 2):
                mp.setattr(formats, "_CHUNK", chunk)
                assert outcome(parse, text) == expected, chunk


@settings(max_examples=200, deadline=None)
@given(text_documents(), st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]), st.integers(1, 12))
def test_text_reader_in_small_chunks_matches_reference(text, separator, chunk):
    text = text.replace("\n", separator)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_CHUNK", chunk)
        assert outcome(parse, text) == outcome(reference_parse_text, text)

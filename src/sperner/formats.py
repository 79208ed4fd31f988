"""Reading and writing partition-system documents.

Two interchangeable representations:

* Plain text: a header line ``n k m`` (optionally followed by ``base=0``
  or ``base=1``; default 0), then m partition lines.  Classes are
  separated by ``|``, elements by ``,``.  Lines starting with ``#`` are
  comments; ``# name: X`` sets the system name.  With ``base=1`` labels
  1..n are shifted down by one; the token ``inf`` always denotes the
  final internal element n-1.  That is the center point of the
  rotational layouts, which rotation.InitialPartition labels m+1 = n
  under base=1, so ``inf`` and ``n`` name the same element there.

* JSON: a versioned object with explicit ``n``, ``k``, ``name``,
  0-based ``partitions`` and a free-form ``metadata`` map.

Serialization canonicalizes: classes sorted by (size, smallest element),
partitions sorted likewise, so parse(serialize(s)) == s in canonical form
and equal systems serialize byte-identically.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain

from .model import Partition, PartitionSystem, elements_of

__all__ = ["FORMAT_VERSION", "ParseError", "serialize", "parse"]

FORMAT_VERSION = 1


class ParseError(Exception):
    """Document error with an optional 1-based line/column position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(str(self))

    def __str__(self):
        if self.line is None:
            return self.message
        if self.column is None:
            return f"line {self.line}: {self.message}"
        return f"line {self.line}, column {self.column}: {self.message}"


def serialize(system: PartitionSystem, fmt: str = "text", metadata: dict | None = None) -> str:
    """Render a system as a text or JSON document (labels 0-based).

    Partitions come out sorted by their tuples of class element tuples,
    which within one system is Partition order.  Each class's elements
    are walked once, as the codes e + 1 of the class shifted up one bit,
    and both the line (or JSON row) and the sort key are built from them.
    The key is one bytes string per partition: each code big-endian in a
    fixed width that holds the largest, and a zero code closing each
    class.  Byte order on these keys is the tuple order, since a class
    that is a prefix of another closes with 0 where the other goes on with
    a larger code.  The sort so holds a few bytes per class, not a tuple
    per class and an int per element.
    """
    parts = system.partitions
    top = max(map(int.bit_length, chain.from_iterable(p.classes for p in parts)), default=0)
    if fmt == "text":
        # code e + 1 -> "e"; one string per label, shared by every line
        label = ["", *map(str, range(top))].__getitem__

        def render(classes):
            return "|".join([",".join(map(label, codes)) for codes in classes])

    elif fmt == "json":

        def render(classes):
            return [[code - 1 for code in codes] for codes in classes]

    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'text' or 'json')")
    # the narrowest unsigned array type that holds every code
    typecode = next(t for t in "BHIQ" if top < 1 << 8 * array(t).itemsize)
    keyed = []
    for p in parts:
        classes = [elements_of(c << 1) for c in p.classes]
        key = array(typecode, [code for codes in classes for code in (*codes, 0)])
        if sys.byteorder == "little":
            key.byteswap()
        keyed.append((key.tobytes(), render(classes)))
    keyed.sort()
    rows = [row for _, row in keyed]
    if fmt == "text":
        lines = []
        if system.name:
            lines.append(f"# name: {system.name}")
        lines.append(f"{system.n} {system.k} {len(rows)}")
        lines.extend(rows)
        return "\n".join(lines) + "\n"
    import json

    doc = {
        "format_version": FORMAT_VERSION,
        "n": system.n,
        "k": system.k,
        "name": system.name,
        "partitions": rows,
        "metadata": metadata or {},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse(text: str) -> PartitionSystem:
    """Parse a text or JSON document into a validated PartitionSystem.

    Every partition must be a genuine k-partition of the declared ground
    set; structural defects (duplicate or uncovered elements, wrong class
    count) raise ParseError with the offending position.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_json(text: str) -> PartitionSystem:
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("n", "k", "partitions"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    # type() rather than isinstance() or ==: JSON true and false load as
    # bool, an int subclass, and true == 1
    version = doc.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    n, k = doc["n"], doc["k"]
    if not (type(n) is int and type(k) is int and n >= 1 and k >= 1):
        raise ParseError("n and k must be positive integers")
    raw = doc["partitions"]
    if not isinstance(raw, list):
        raise ParseError("partitions must be a list")
    partitions = []
    for idx, classes in enumerate(raw):
        if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
            raise ParseError(f"partition {idx} must be a list of element lists")
        rows = [[_check_int(e, idx) for e in c] for c in classes]
        partitions.append(_build_partition(n, k, rows))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string or null")
    return PartitionSystem(n, k, partitions, name=name)


def _check_int(e, idx: int) -> int:
    if type(e) is not int:
        raise ParseError(f"partition {idx}: element {e!r} is not an integer")
    return e


def _build_partition(n: int, k: int, classes: list[list[int]], line: int | None = None) -> Partition:
    # One walk refuses an element outside 0..n-1 (the text reader has
    # refused one already, with its column; JSON rows come unchecked),
    # builds each class mask and finds a repeated element by its bit.  The
    # elements are then distinct, so they cover 0..n-1 iff there are n of
    # them: no n-bit mask is built, as a header's n can be huge.
    if len(classes) != k:
        raise ParseError(f"expected {k} classes, found {len(classes)}", line)
    masks = []
    seen = 0
    for c in classes:
        if not c:
            raise ParseError("empty class", line)
        before = seen
        for e in c:
            if not 0 <= e < n:
                raise ParseError(f"element {e} outside 0..{n - 1}", line)
            bit = 1 << e
            if seen & bit:
                raise ParseError(f"element {e} appears more than once", line)
            seen |= bit
        masks.append(seen ^ before)
    if seen.bit_count() != n:
        raise ParseError(f"element {(~seen & (seen + 1)).bit_length() - 1} uncovered", line)
    return Partition(n, masks, k)


def _parse_text(text: str) -> PartitionSystem:
    name = None
    header = None
    header_line = 0
    body: list[tuple[int, str]] = []
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
        classes: list[list[int]] = []
        col = 1  # column of the current token; each separator is one character
        for part in line.split("|"):
            cls: list[int] = []
            for word in part.split(","):
                token = word.strip()
                if token == "inf":
                    cls.append(n - 1)
                else:
                    try:
                        value = int(token)
                    except ValueError:
                        raise ParseError(f"bad element token {token!r}", lineno, col) from None
                    internal = value - base
                    if not 0 <= internal < n:
                        raise ParseError(
                            f"element {value} outside the declared ground set", lineno, col
                        )
                    cls.append(internal)
                col += len(word) + 1
            classes.append(cls)
        partitions.append(_build_partition(n, k, classes, line=lineno))
    return PartitionSystem(n, k, partitions, name=name)

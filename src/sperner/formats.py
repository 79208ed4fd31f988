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
  0-based ``partitions`` and a ``metadata`` map, written empty and
  ignored when read.

Serialization canonicalizes: classes sorted by (size, smallest element),
partitions sorted likewise, so parse(serialize(s)) == s in canonical form
and equal systems serialize byte-identically.

Text documents are the largest thing the tool writes and reads, so the
text path never holds a second copy of one: serialize renders its lines a
bounded chunk of sort keys at a time, as chunks the CLI writes as they
come (_chunks), and the reader splits the document into lines a bounded
chunk at a time, in one pass for the header and the line count and one
that builds the partitions, with no list of lines.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from itertools import chain

from .model import Partition, PartitionSystem, elements_of

__all__ = ["FORMAT_VERSION", "ParseError", "serialize", "parse"]

FORMAT_VERSION = 1

# characters rendered at a time by serialize, and read at a time by the text reader
_CHUNK = 1 << 16


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


def serialize(system: PartitionSystem, fmt: str = "text") -> str:
    """Render a system as a text or JSON document (labels 0-based).

    Partitions come out sorted by their tuples of class element tuples,
    which within one system is Partition order.  The text path walks each
    class's elements once, into one sort key per partition: a string of
    the codes e + 1 as characters, class by class, with the code 0 closing
    each class.  String order on these keys is the tuple order, since a
    class that is a prefix of another closes with 0 where the other goes
    on with a larger code.  The key holds every code, so the lines are
    rendered from the sorted keys, a bounded chunk at a time, and each
    chunk's keys are freed once it is rendered.  The document is the join
    of those chunks; the CLI writes them one at a time as they are
    rendered (_chunks), so it never holds the whole document.  JSON rows,
    and text labels past chr's range (above a million), come from a plain
    sort of element lists.  A name with a line break (any that
    str.splitlines splits) raises ValueError in text, since its rest would
    read as other lines.
    """
    return "".join(_chunks(system, fmt))


def _chunks(system: PartitionSystem, fmt: str) -> Iterator[str]:
    """serialize's document as strings that join to it.

    The arguments are checked and the partitions sorted at the call, so
    an error is raised before any chunk is written; each later text chunk
    is rendered only when it is asked for.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r} (expected 'text' or 'json')")
    if fmt == "text" and system.name and system.name.splitlines() != [system.name]:
        raise ValueError(f"the name {system.name!r} holds a line break, which a text document cannot hold")
    parts = system.partitions
    top = max(map(int.bit_length, chain.from_iterable(p.classes for p in parts)), default=0)
    head = (f"# name: {system.name}\n" if system.name else "") + f"{system.n} {system.k} {len(parts)}\n"
    if fmt == "text" and top < sys.maxunicode:
        keys = [
            "".join([chr(code) for c in p.classes for code in (*elements_of(c << 1), 0)]) for p in parts
        ]
        keys.sort()
        return chain([head], _render(keys, top))
    rows = sorted([list(c) for c in p.class_sets] for p in parts)
    if fmt == "json":
        import json

        doc = {
            "format_version": FORMAT_VERSION,
            "n": system.n,
            "k": system.k,
            "name": system.name,
            "partitions": rows,
            "metadata": {},
        }
        return iter([json.dumps(doc, indent=2, sort_keys=True) + "\n"])
    return chain([head], ("|".join([",".join(map(str, c)) for c in row]) + "\n" for row in rows))


def _render(keys: list[str], top: int) -> Iterator[str]:
    """The lines of sorted keys with codes up to top, a chunk of lines per string.

    keys is emptied a chunk at a time as its lines are rendered.
    """
    end = chr(top + 1)  # joins a chunk's keys, and renders as the line end
    text = ["|", *[f"{e}," for e in range(top)], "\n"]  # key character -> its text
    step = max(1, _CHUNK // (1 + max(map(len, keys), default=0)))
    while keys:
        chunk = end.join(keys[:step]) + end
        del keys[:step]
        # each element renders with a comma after it and each class close
        # as "|": drop the comma before a close, and the close before a line end
        yield chunk.translate(text).replace(",|", "|").replace("|\n", "\n")


def parse(text: str) -> PartitionSystem:
    """Parse a text or JSON document into a validated PartitionSystem.

    Every partition must be a genuine k-partition of the declared ground
    set; structural defects (duplicate or uncovered elements, wrong class
    count) raise ParseError with the offending position.
    """
    if text.lstrip().startswith("{"):  # the stripped copy, if any, is dropped at once
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


def _lines(text: str) -> Iterator[str]:
    """text.splitlines(keepends=True), split a bounded chunk of text at a time.

    A chunk's last line may go on in the next chunk, or end in the CR of a
    CR LF pair, so the next chunk starts where that line does.  A line longer
    than the chunk doubles the chunk until the line ends inside it.
    """
    start, size = 0, _CHUNK
    while start < len(text):
        lines = text[start : start + size].splitlines(True)
        if start + size < len(text):
            if len(lines) == 1:
                size *= 2
                continue
            start -= len(lines.pop())
        yield from lines
        start += size
        size = _CHUNK


def _content(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) of each line that is not blank."""
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()  # every line break is whitespace too
        if line:
            yield lineno, line


def _parse_text(text: str) -> PartitionSystem:
    # Two passes over the lines, and no list of them.  The first reads the
    # header, the name and the number of partition lines, so each error is
    # the one a reader that held every line would raise first; the second
    # builds the partitions.
    name = None
    header_line = 0
    found = 0
    extra = 0  # the first partition line past the declared count
    longest = 0
    for lineno, line in _content(text):
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("name:"):
                name = comment[len("name:"):].strip() or None
        elif not header_line:
            header_line = lineno
            n, k, count, base = _parse_header(line, lineno)
        else:
            if found == count:
                extra = lineno
            found += 1
            longest = max(longest, len(line))
    if not header_line:
        raise ParseError("empty document")
    if found != count:
        raise ParseError(f"header declares {count} partitions, found {found}", extra or header_line)
    # each label's element: a line of n labels has at least 2n - 1
    # characters, so the table is no longer than the longest line allows
    labels = {str(e + base): e for e in range(n)} if 2 * n <= longest + 1 else {}
    partitions = (
        _build_partition(n, k, _parse_classes(line, lineno, n, base, labels), line=lineno)
        for lineno, line in _content(text)
        if lineno > header_line and not line.startswith("#")
    )
    return PartitionSystem(n, k, partitions, name=name)


def _parse_header(header: str, lineno: int) -> tuple[int, int, int, int]:
    """(n, k, partition count, label base) of the header line."""
    tokens = header.split()
    if len(tokens) < 3:
        raise ParseError("header must be 'n k m' with optional 'base=0|1'", lineno, 1)
    try:
        n, k, count = (int(t) for t in tokens[:3])
    except ValueError:
        raise ParseError("header must start with three integers", lineno, 1) from None
    if n < 1 or k < 1 or count < 0:
        raise ParseError("header values must be positive (partition count may be 0)", lineno, 1)
    base = 0
    for tok in tokens[3:]:
        if tok in ("base=0", "base=1"):
            base = int(tok[-1])
        else:
            raise ParseError(f"unrecognized header token {tok!r}", lineno, header.find(tok) + 1)
    return n, k, count, base


def _parse_classes(line: str, lineno: int, n: int, base: int, labels: dict[str, int]) -> list[list[int]]:
    """A partition line's classes, as internal elements.

    A line of plain labels is read through the labels table.  A line with
    any other token ("inf", spaces, a sign, a label outside the ground set)
    is walked token by token, with int's reading of each, which finds the
    column of the first bad token.
    """
    try:
        return [[*map(labels.__getitem__, part.split(","))] for part in line.split("|")]
    except KeyError:
        pass
    classes = []
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
                    raise ParseError(f"element {value} outside the declared ground set", lineno, col)
                cls.append(internal)
            col += len(word) + 1
        classes.append(cls)
    return classes

"""Serialization: graph6 strings and a plain edge-list text format.

The graph6 codec follows the standard byte encoding exactly: an order
field ``N(n)``, then the upper triangle of the adjacency matrix read
column by column, in 6-bit groups offset by 63.  Decoding unpacks the
groups as base64, then sets both bits of each edge in the rows.  Parse
errors name the byte offset (or line) that caused them.

The edge-list format is one integer line holding the order, then one
``u v`` line per edge.  Blank lines and ``#`` comments are skipped, and
several records may follow each other in one file: every bare integer
line starts a new graph.  Orders above 258,047, the largest that graph6
encodes, are refused before anything is allocated.
"""

from __future__ import annotations

import binascii
import os
from typing import Iterable, Iterator, Optional

from .graph import Graph

GRAPH6_HEADER = ">>graph6<<"
# The largest order the four-byte N(n) field of format_graph6 encodes.
_MAX_ORDER = 258047
# graph6 data bytes are 6-bit groups plus 63: base64 in another alphabet.
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)),
                             b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                             b"abcdefghijklmnopqrstuvwxyz0123456789+/")


class FormatError(ValueError):
    """Malformed serialized graph data.

    Carries the byte offset (graph6) or line number (edge list) when one
    is known; both also appear in the message.
    """

    def __init__(self, message: str, *, offset: Optional[int] = None,
                 line: Optional[int] = None) -> None:
        where = (f" (byte offset {offset})" if offset is not None
                 else f" (line {line})" if line is not None else "")
        super().__init__(message + where)
        self.offset = offset
        self.line = line


def _unpack(data: bytes, start: int, stop: int) -> int:
    """The 6-bit groups of ``data[start:stop]`` as one int, the first
    most significant; the first byte outside 63..126 is refused."""
    for offset in range(start, stop):
        if not 63 <= data[offset] <= 126:
            raise FormatError(f"invalid graph6 byte {data[offset]}",
                              offset=offset)
    # Zero groups fill the last base64 quad and are shifted off.
    fill = -(stop - start) % 4
    packed = data[start:stop].translate(_TO_BASE64) + b"A" * fill
    return int.from_bytes(binascii.a2b_base64(packed), "big") >> 6 * fill


def _parse_graph6_order(data: bytes, pos: int) -> tuple[int, int]:
    """Decode the N(n) field starting at ``pos``; return (n, next position)."""
    if pos >= len(data):
        raise FormatError("empty graph6 record", offset=pos)
    b0 = data[pos]
    if not 63 <= b0 <= 126:
        raise FormatError(f"invalid graph6 byte {b0}", offset=pos)
    if b0 != 126:
        return b0 - 63, pos + 1
    if pos + 1 < len(data) and data[pos + 1] == 126:
        count, start = 6, pos + 2
    else:
        count, start = 3, pos + 1
    if start + count > len(data):
        raise FormatError("truncated graph6 order field", offset=len(data))
    return _unpack(data, start, start + count), start + count


def parse_graph6(text: str | bytes) -> Graph:
    """Decode a single graph6 record, with or without its header."""
    data = text.strip()
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise FormatError(f"graph6 data is not ascii: {exc}") from None
    # Offsets count from the start of the record, header included.
    start = len(GRAPH6_HEADER) if data.startswith(
        GRAPH6_HEADER.encode("ascii")) else 0
    n, pos = _parse_graph6_order(data, start)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != nbytes:
        raise FormatError(f"graph6 record for order {n} needs {nbytes} "
                          f"adjacency bytes, found {len(data) - pos}",
                          offset=len(data))
    value = _unpack(data, pos, len(data))
    adj = [0] * n
    shift = 6 * nbytes
    for j in range(1, n):
        # Column j holds the bits of i = 0..j-1, the first the highest.
        shift -= j
        column = value >> shift & ((1 << j) - 1)
        while column:
            i = j - column.bit_length()
            column ^= 1 << (j - 1 - i)
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    if value & ((1 << shift) - 1):
        raise FormatError("nonzero padding bits in graph6 record",
                          offset=len(data) - 1)
    return Graph.from_adjacency(tuple(adj))


def format_graph6(g: Graph, *, header: bool = False) -> str:
    """Encode a graph as a graph6 string."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    elif n <= _MAX_ORDER:
        out = [126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    else:
        raise ValueError(f"order {n} too large for this graph6 encoder")
    adj = g.adjacency
    value = 0
    valid = 0
    for j in range(1, n):
        for i in range(j):
            value = value << 1 | (adj[i] >> j & 1)
            valid += 1
            if valid == 6:
                out.append(63 + value)
                value = 0
                valid = 0
    if valid:
        out.append(63 + (value << (6 - valid)))
    text = bytes(out).decode("ascii")
    return GRAPH6_HEADER + text if header else text


def read_graph6(text: str) -> Iterator[Graph]:
    """Parse graph6 records, one per nonblank line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}",
                              offset=exc.offset, line=lineno) from None


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Iterator[Graph]:
    """Parse edge-list records; every bare integer line starts a graph."""
    order: Optional[int] = None
    order_line = 0
    edges: list[tuple[int, int]] = []

    def finish() -> Graph:
        assert order is not None
        try:
            return Graph(order, edges)
        except ValueError as exc:
            raise FormatError(f"bad record starting at line {order_line}: {exc}",
                              line=order_line) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            if order is not None:
                yield finish()
            try:
                order = int(parts[0])
            except ValueError:
                raise FormatError(f"expected an integer order, got {parts[0]!r}",
                                  line=lineno) from None
            if order < 0:
                raise FormatError(f"negative order {order}", line=lineno)
            if order > _MAX_ORDER:
                raise FormatError(f"order {order} exceeds the largest "
                                  f"graph6 order {_MAX_ORDER}", line=lineno)
            order_line = lineno
            edges = []
        elif len(parts) == 2:
            if order is None:
                raise FormatError("edge line before any order line", line=lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"expected 'u v' integers, got {line!r}",
                                  line=lineno) from None
            edges.append((u, v))
        else:
            raise FormatError(f"expected one or two fields, got {line!r}",
                              line=lineno)
    if order is not None:
        yield finish()


def load_graphs(path: str | os.PathLike, fmt: str) -> Iterator[Graph]:
    """Stream validated graphs from a file in the named format."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if fmt == "graph6":
        yield from read_graph6(text)
    elif fmt == "edgelist":
        yield from read_edge_list(text)
    else:
        raise ValueError(f"unknown format {fmt!r}")

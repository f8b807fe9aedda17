"""Simple graphs as immutable bit-row adjacency, plus graph6 I/O and regularity checks.

Vertices are 0..n-1.  Row v is an int whose bit u is set iff u ~ v; popcount
gives degrees and common-neighbour counts without any per-pair loops, and
set_bits lists the set bits of a row (or of any bitmask), lowest first.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import HypothesisViolated, MalformedGraph6, TooLarge


class Graph:
    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency row count != n")
        mask = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~mask:
                raise ValueError("adjacency bits outside vertex range")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(n):
            for u in range(v):
                if (adj[v] >> u & 1) != (adj[u] >> v & 1):
                    raise ValueError("adjacency not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u},{v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, rows)

    def matrix(self) -> list[list[int]]:
        return [[self.adj[i] >> j & 1 for j in range(self.n)] for i in range(self.n)]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.adj]

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbours(self, v: int) -> list[int]:
        """The neighbours of v, ascending: the set bits of its row, lowest first."""
        out = []
        row = self.adj[v]
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in set_bits(self.adj[v] >> (v + 1) << (v + 1)):
                yield (v, u)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with old vertex v renamed to perm[v]."""
        rows = [0] * self.n
        for v in range(self.n):
            for u in self.neighbours(v):
                rows[perm[v]] |= 1 << perm[u]
        return Graph(self.n, rows)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices, kept in the order supplied."""
    vs = list(vertices)
    rows = [0] * len(vs)
    for i, v in enumerate(vs):
        for j, u in enumerate(vs):
            if i != j and g.adjacent(v, u):
                rows[i] |= 1 << j
    return Graph(len(vs), rows)


def regular_degree(g: Graph) -> Optional[int]:
    if g.n == 0:
        return 0
    ds = g.degrees()
    return ds[0] if all(d == ds[0] for d in ds) else None


def set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in set_bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


# -- graph6 ---------------------------------------------------------------

def graph6_encode(g: Graph) -> str:
    """Standard short-form graph6 line (without trailing newline)."""
    if g.n > 62:
        raise TooLarge(f"graph6 short form caps at 62 vertices, got {g.n}")
    bits = []
    for col in range(1, g.n):
        for row in range(col):
            bits.append(g.adj[row] >> col & 1)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        chunk = 0
        for b in bits[i:i + 6]:
            chunk = chunk << 1 | b
        out.append(chr(chunk + 63))
    return "".join(out)


def graph6_decode(line: str) -> Graph:
    line = line.rstrip("\n")
    if not line:
        raise MalformedGraph6("empty line")
    first = ord(line[0])
    if first == 126:
        raise MalformedGraph6("long-form graph6 (n > 62) not supported")
    if not 63 <= first <= 125:
        raise MalformedGraph6(f"bad size byte {line[0]!r}")
    n = first - 63
    nbits = n * (n - 1) // 2
    body = line[1:]
    if len(body) != (nbits + 5) // 6:
        raise MalformedGraph6(f"bit section has {len(body)} bytes, expected {(nbits + 5) // 6}")
    bits = []
    for ch in body:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise MalformedGraph6(f"bad byte {ch!r}")
        v = o - 63
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise MalformedGraph6("nonzero padding bits")
    rows = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            i += 1
    return Graph(n, rows)


# -- strong regularity ----------------------------------------------------

class SrgParams(NamedTuple):
    n: int
    r: int
    e: int
    f: int


def srg_check(g: Graph) -> Optional[SrgParams]:
    """Parameters (n, r, e, f) iff G is connected, regular, non-complete and
    A^2 = rI + eA + f(J - I - A) holds exactly; None otherwise."""
    r = regular_degree(g)
    if r is None or g.n < 2 or r == g.n - 1 or not is_connected(g):
        return None
    e = f = None
    for v in range(g.n):
        for u in range(v + 1, g.n):
            common = (g.adj[u] & g.adj[v]).bit_count()
            if g.adjacent(u, v):
                if e is None:
                    e = common
                elif e != common:
                    return None
            else:
                if f is None:
                    f = common
                elif f != common:
                    return None
    if e is None or f is None:
        return None
    return SrgParams(g.n, r, e, f)


# -- named small builders used across modules ------------------------------

def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def make_kts(t: int, s: int) -> Graph:
    """K_{t,s} with the t-part on vertices 0..t-1 and the s-part following."""
    if not (1 <= t <= s):
        raise HypothesisViolated(f"need s >= t >= 1, got ({t},{s})")
    return Graph.from_edges(t + s, [(i, t + j) for i in range(t) for j in range(s)])

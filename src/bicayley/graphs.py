"""Simple undirected graphs with sorted adjacency, plus a graph6 encoder."""

from __future__ import annotations

import math
from binascii import b2a_base64
from collections import deque, namedtuple
from operator import index

__all__ = [
    "Graph",
    "girth",
    "bipartition",
    "is_connected",
    "encode_graph6",
]


class Graph(namedtuple("Graph", "n adjacency")):
    """An undirected simple graph on vertices 0..n-1; ``adjacency[v]`` is the
    sorted tuple of v's neighbours."""

    __slots__ = ()

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in neighbor_sets))

    @property
    def edges(self) -> list[tuple[int, int]]:
        adjacency = self.adjacency
        return [(u, v) for u in range(self.n) for v in adjacency[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def is_regular(self, d: int) -> bool:
        return all(len(a) == d for a in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def relabel(self, perm) -> "Graph":
        """Image graph under the vertex map v -> perm[v]; ``perm`` must be a
        permutation of 0..n-1."""
        n = self.n
        if not _is_permutation(perm, n):
            raise ValueError(f"relabeling is not a permutation of 0..{n - 1}")
        rows = [()] * n
        image = perm.__getitem__
        for u, row in enumerate(self.adjacency):
            rows[image(u)] = tuple(sorted(map(image, row)))
        return Graph(n, tuple(rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _is_permutation(p, n: int) -> bool:
    """Whether ``p`` lists 0..n-1, each once.  A permutation's entries are
    ints: a float, even 1.0, is no vertex."""
    try:
        return sorted(map(index, p)) == [*range(n)]
    except TypeError:
        return False


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    adjacency = g.adjacency
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def girth(g: Graph, roots=None) -> int | float:
    """Length of a shortest cycle, or math.inf for forests.

    One BFS per root; a non-tree edge closing at depths d(u), d(w) witnesses a
    cycle of length d(u)+d(w)+1, and the minimum over all roots is exact.
    ``roots`` (default every vertex) may be one vertex per orbit of a group
    of automorphisms: a shortest cycle maps onto one through any vertex of
    its orbit, so the minimum stays exact.
    """
    adjacency = g.adjacency
    best = math.inf
    for root in range(g.n) if roots is None else roots:
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best - 1:
                break
            for w in adjacency[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cycle = dist[u] + dist[w] + 1
                    if cycle < best:
                        best = cycle
    return best


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two-coloring as a sorted vertex pair, or None if an odd cycle exists.

    Components are colored in order of their smallest vertex; the class
    containing that vertex joins side 0, so the output is deterministic.
    """
    adjacency = g.adjacency
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    return side0, side1


# --- graph6 ----------------------------------------------------------------


def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError(f"graph too large for this codec: n={n}")


# base64 digit d -> graph6 byte d + 63
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)),
)


def _graph6(n: int, keys) -> str:
    """graph6 of the graph on n vertices whose edges i < j are the keys j(j-1)/2 + i."""
    bits = bytearray(b"0" * (n * (n - 1) // 2))
    for key in keys:
        bits[key] = ord("1")
    nchars = (len(bits) + 5) // 6
    if not nchars:
        return _encode_size(n)
    # padded to whole 24-bit groups, base64 packs six bits per character
    bits += b"0" * (-len(bits) % 24)
    packed = int(bits, 2).to_bytes(len(bits) // 8, "big")
    data = b2a_base64(packed, newline=False).translate(_BASE64_TO_GRAPH6)[:nchars]
    return _encode_size(n) + data.decode("ascii")


def encode_graph6(g: Graph) -> str:
    """Standard graph6: size header, then the upper triangle column-major."""
    keys = (j * (j - 1) // 2 + i for j, row in enumerate(g.adjacency) for i in row if i < j)
    return _graph6(g.n, keys)

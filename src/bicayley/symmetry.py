"""Permutation groups and graph symmetry.

A permutation of 0..n-1 is its image tuple p, sending v to p[v]; products act
left to right, so x y = itemgetter(*x)(y) sends v to y[x[v]].  The
automorphism and certificate engine is a backtracking search over
equitable ordered partitions (individualization-refinement).  Its first path
is a base and the automorphisms it keeps a strong generating set for it, so
|Aut| is the product of the first-path orbit lengths, and the kept
generators that fix its first vertex w generate Aut_w.  The search may start
from known automorphisms: true ones prune soundly, never the best leaf, so
the output is that of an unseeded search.  ``PermGroup`` is that result:
generators and base, with |Aut| computed on first read and membership by
the edge check.  Arc types are read off Aut_w, and the semiregular
candidates off Aut_w and the right translations, so no step lists all of
Aut; Aut_w is listed by closure over its generators.  The semiregular
enumeration refuses an Aut of order above BICAYLEY_MAX_AUT (default
100000).  A subgroup of Aut is its element set; normalizers and conjugacy
come from its orbit under conjugation by Aut's generators.
"""

from __future__ import annotations

import os
from collections import deque
from functools import lru_cache
from itertools import filterfalse
from math import prod
from operator import eq, index, itemgetter

from bicayley.graphs import Graph, _graph6, is_connected

__all__ = [
    "PermGroup",
    "automorphism_group",
    "certificate",
    "k_arc_regularity",
    "normalizer",
    "enumerate_semiregular",
    "are_conjugate",
    "max_enumeration_bound",
]

_DEFAULT_MAX_ENUM = 100_000
_MAX_SEARCH_VERTICES = 1024
_ANALYZED: dict[Graph, tuple] = {}  # the 4096 graphs last analyzed, least recent first


def max_enumeration_bound() -> int:
    """Largest |Aut| the semiregular enumeration takes; override with the
    BICAYLEY_MAX_AUT env var."""
    raw = os.environ.get("BICAYLEY_MAX_AUT", "")
    if not raw:
        return _DEFAULT_MAX_ENUM
    try:
        bound = int(raw)
    except ValueError:
        raise ValueError(f"BICAYLEY_MAX_AUT must be an integer, got {raw!r}") from None
    if bound < 1:
        raise ValueError(f"BICAYLEY_MAX_AUT must be a positive integer, got {raw!r}")
    return bound


@lru_cache(maxsize=None)
def _identity_images(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _inverse(x: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(x)
    for i, v in enumerate(x):
        inv[v] = i
    return tuple(inv)


def _is_automorphism(adj, edges, p) -> bool:
    """Whether ``p`` is a permutation of the vertices of the graph with
    adjacency ``adj`` and edge list ``edges`` taking every edge to an edge.
    A permutation's entries are ints: a float, even 1.0, is no vertex."""
    try:
        images = sorted(map(index, p))
    except TypeError:
        return False
    return images == [*range(len(adj))] and all(p[w] in adj[p[u]] for u, w in edges)


def _orbit(points, images) -> set[int]:
    """The points reached from ``points`` under the image tuples ``images``."""
    reach = set(points)
    queue = deque(reach)
    while queue:
        u = queue.popleft()
        for a in images:
            w = a[u]
            if w not in reach:
                reach.add(w)
                queue.append(w)
    return reach


def _closure(start: tuple[int, ...], images) -> list[tuple[int, ...]]:
    """Every tuple reached breadth-first from ``start``, x going to (g[x[0]],
    g[x[1]], ...) under each image tuple g.  From the identity's images that
    lists a group, from two or more points their orbit."""
    listed = [start]
    seen = {start}
    for x in listed if images else ():  # grows while walked; degree < 2 has no images
        times = itemgetter(*x)  # times(g) is the image tuple of x * g
        for g in images:
            y = times(g)
            if y not in seen:
                seen.add(y)
                listed.append(y)
    return listed


class PermGroup:
    """The automorphism group of ``graph`` as the search gives it.

    ``generators`` are the automorphisms the search kept, none the identity
    and none twice; ``base`` is the first path, so the generators that fix
    ``base[0]`` generate its stabilizer.  |Aut| is computed on first read.
    Membership is the edge check, so no element is ever listed.
    ``automorphism_group`` builds it.
    """

    def __init__(self, graph: Graph, generators, base):
        self.graph = graph
        self.degree = graph.n
        self.generators: tuple[tuple[int, ...], ...] = tuple(generators)
        self.base: tuple[int, ...] = tuple(base)
        self._order: int | None = None
        self._orbits: dict[int, frozenset[int]] = {}

    def order(self) -> int:
        """|Aut|, the product over i of base[i]'s orbit length under the
        generators fixing base[:i], computed on the first call; base[0]'s
        orbit comes from the cache ``_arc_type`` and ``orbit_roots`` share."""
        if self._order is None:
            base = self.base
            order = len(self.orbit(base[0])) if base else 1
            fixing = self.generators
            for u, v in zip(base, base[1:]):
                fixing = [g for g in fixing if g[u] == u]
                order *= len(_orbit((v,), fixing))
            self._order = order
        return self._order

    def contains(self, p) -> bool:
        """Whether ``p`` is an automorphism of the graph."""
        return _is_automorphism(self.graph.adjacency, self.graph.edges, p)

    def orbit(self, v: int) -> frozenset[int]:
        """v's orbit, walked once and kept for each of its points."""
        orbit = self._orbits.get(v)
        if orbit is None:
            orbit = frozenset(_orbit((v,), self.generators))
            self._orbits.update(dict.fromkeys(orbit, orbit))
        return orbit

    def point_stabilizer(self) -> tuple[int, list[tuple[int, ...]]]:
        """``base[0]`` and the generators that fix it, which generate its
        stabilizer.  An empty base is a discrete root partition, so the group
        is trivial and 0 serves."""
        w = self.base[0] if self.base else 0
        return w, [g for g in self.generators if g[w] == w]

    def orbit_roots(self) -> list[int]:
        """The least point of each orbit, ascending."""
        roots: list[int] = []
        covered: set[int] = set()
        for v in range(self.degree):
            if v not in covered:
                roots.append(v)
                covered |= self.orbit(v)
        return roots


# --- individualization-refinement search ------------------------------------


class _Search:
    """One pass computes automorphism generators and a canonical labeling.

    The ordered-partition refinement is relabeling-equivariant: cells split by
    neighbor counts against a splitter cell, fragments ordered by count, and
    the splitter worklist is a FIFO of every new fragment, less the pops that
    provably split nothing (``refine``'s sibling rule; a regular graph's
    root): unlike Hopcroft's rule, which skips fragments that split, this
    keeps the cell order.  Branching explores the first non-singleton cell,
    skipping vertices equivalent to an explored sibling under automorphisms
    that fix the branch prefix.  A node's partition is its two position
    arrays, which refinement splits in place; each child starts from copies
    of its parent's (McKay and Piperno 2014 keep one partition per level).

    Root children go least vertex v first, then v's neighbours in the cell,
    then the rest, each group in vertex order.  Any sibling order reaches the
    same leaves up to the automorphisms found, so the least certificate and
    the first path (the least vertex of each cell) do not change; only the
    generators kept and which best leaf gives the labeling can (McKay and
    Piperno 2014).  Once v's branch has found Aut_v, a connected
    arc-transitive graph needs one more: Aut = <Aut_v, g> for any g moving v
    to a neighbour, so the neighbour's branch puts the whole cell in v's orbit.

    First-path return (McKay 1981): a leaf whose automorphism g onto the first
    leaf maps first_path[:i+1] onto its prefix, i the first index where the
    two differ, returns search to depth i.  Target cell, refinement and
    individualization are equivariant, so g maps the explored subtree of
    first_path[:i+1] onto the current one, whose other leaves repeat seen
    certificates and generated automorphisms.  The best leaf, the first in
    tree order with the least certificate, is never skipped: labelings and
    certificates are those of the exhaustive search.

    Leaf rule: a later leaf is certified only if its map from the first leaf
    (each vertex to the one at its first-leaf position) takes some edge to a
    non-edge; otherwise it has the first leaf's certificate, never below the
    best (McKay and Piperno 2014).

    The search starts from the ``known`` automorphisms (a non-automorphism
    raises ValueError).  Both prunings need only true automorphisms, so seeds
    skip more and change nothing: a skipped subtree is the image of an
    explored one, and the first-path orbits still grow to Aut's.
    """

    def __init__(self, graph: Graph, known=()):
        self.n = graph.n
        self.adj = graph.adjacency
        self.edges = graph.edges
        known = [tuple(images) for images in known]
        if not all(_is_automorphism(self.adj, self.edges, p) for p in known):
            raise ValueError(f"a known automorphism of {graph} is not an automorphism")
        # kept as record_if_automorphism keeps those found: no identity, no repeat
        self.autos = [p for p in dict.fromkeys(known) if p != _identity_images(self.n)]
        self.first: tuple[tuple[int, ...], list[int]] | None = None
        self.first_path: list[int] = []
        self.best: tuple[tuple[int, ...], list[int]] | None = None
        self.cnt = [0] * self.n  # refine's counts; every multi-vertex pop restores the zeros

    def run(self) -> None:
        n = self.n
        if n == 0:
            self.best = ((), [])
            return
        at: list = [None] * n
        at[0] = list(range(n))
        cell_of = [0] * n
        ncells = 1
        if len(set(map(len, self.adj))) > 1:  # a regular graph's unit partition is equitable
            ncells = self.refine(at, cell_of, 1, 0)
        self.descend(at, cell_of, ncells, [])

    def refine(self, at: list, cell_of: list[int], ncells: int, start: int) -> int:
        """Split the node's partition, ``ncells`` cells, in place to its
        coarsest equitable refinement; return the new cell count.

        ``at[s]`` is the cell starting at position s (other entries are
        stale), and ``cell_of[v]`` the start of v's cell.  A cell list is
        replaced, never changed, so a child's copies may share the parent's.

        Every cell but the one at ``start`` must split no cell once that one
        has been split against: true of the whole vertex set, and of an
        equitable partition whose cell at ``start`` is a just-individualized
        vertex.  So only that cell starts the queue; the others, popped, would
        split nothing.

        A splitter splits each cell it touches, right to left, into its
        untouched vertices, then its touched ones by ascending neighbor
        count; the first fragment keeps the start and every fragment is
        queued.  Cells only shrink, so a queued ``(start, size)`` whose cell
        has since split no longer matches its size.

        Sibling rule: a cell is settled once popped whole, or as a cell of the
        input (above); every cell then has one count into it.  The fragments
        of a settled cell share a countdown, ``siblings``, popped once per
        whole pop.  The last fragment pops 0 only if all its siblings were
        popped whole: each cell's count into it is then its count into the
        parent less those into the siblings, all uniform, so its pop would
        split nothing and is skipped.  Hopcroft's rule skips a fragment before
        its siblings are popped, so the skipped fragment may split cells,
        which they then split in another order; here the cell order is kept.

        Rest rule: a splitter X whose nearest settled ancestor A has
        2|X| > |A| counts A - X instead.  Every cell is uniform into A, so v's
        count into X is c_A(v's cell) - c_(A-X)(v): the same cells split into
        the same fragments, which the rest's counts order backwards, so they
        are reversed.  Unlike Hopcroft's, this rule skips no pop.  A cell
        spans its ancestor's positions, ``span[s]``: the range of a settled
        cell split, or the span of a fresh one.  Other positions span all n,
        so the seed (all n, or one vertex) counts itself.

        A singleton splitter {w} (most pops) reads ``adj[w]`` alone: every
        count is 1, so a cell it hits but does not cover splits into the rest
        and the neighbors of w, with no count array.  The cells hit are filed
        in a dict only once a neighbor lies in a non-singleton cell (about
        half the pops in a census pass touch none), sorted only when there
        are two, and a 2-vertex cell's rest is its other vertex.  A larger
        splitter counts neighbors in ``cnt`` and files each touched vertex of a
        non-singleton cell under that cell and its count.  Only the count keys
        are sorted.  A cell with one key splits only when some vertex of it is
        untouched; a cell's untouched fragment is its vertices of count 0.
        Vertex order within a cell never affects the partition, so no cell is
        sorted here; ``descend`` sorts the one it branches on.
        """
        adj = self.adj
        n = self.n
        span = [(0, n)] * n
        fresh = [False] * n  # fresh[s]: the cell at s is queued and not yet popped
        queue = deque([(start, len(at[start]), None)])
        cnt = self.cnt
        while queue and ncells < n:
            start, size, siblings = queue.popleft()
            splitter = at[start]
            if len(splitter) != size:
                continue
            fresh[start] = False
            if siblings is not None and not siblings.pop():
                continue  # the last sibling, all others popped whole: a no-op
            if size == 1:
                hit: dict[int, list[int]] | None = None
                for v in adj[splitter[0]]:
                    s = cell_of[v]
                    if len(at[s]) > 1:
                        if hit is None:
                            hit = {s: [v]}
                        elif s in hit:
                            hit[s].append(v)
                        else:
                            hit[s] = [v]
                if hit is None:
                    continue
                for s in sorted(hit, reverse=True) if len(hit) > 1 else hit:
                    cell = at[s]
                    mine = hit[s]
                    if len(mine) == len(cell):
                        continue
                    if len(cell) == 2:
                        rest = [cell[cell[0] == mine[0]]]
                    else:
                        rest = cell.copy()
                        for v in mine:
                            rest.remove(v)
                    p = s + len(rest)
                    for v in mine:
                        cell_of[v] = p
                    siblings, whole = (None, span[s]) if fresh[s] else ([0, 1], (s, s + len(cell)))
                    at[s] = rest
                    at[p] = mine
                    span[s] = span[p] = whole
                    fresh[s] = fresh[p] = True
                    queue.append((s, len(rest), siblings))
                    queue.append((p, len(mine), siblings))
                    ncells += 1
                continue
            counted = splitter
            a, b = span[start]
            if size < b - a < 2 * size:  # the rest rule
                counted, s = [], a
                while s < b:
                    counted += at[s] if s != start else ()
                    s += len(at[s])
            touched: list[int] = []
            for w in counted:
                for v in adj[w]:
                    c = cnt[v]
                    if not c:
                        touched.append(v)
                    cnt[v] = c + 1
            groups: dict[int, dict[int, list[int]]] = {}
            for v in touched:
                s = cell_of[v]
                if s in groups:
                    by_count = groups[s]
                    c = cnt[v]
                    if c in by_count:
                        by_count[c].append(v)
                    else:
                        by_count[c] = [v]
                elif len(at[s]) > 1:
                    groups[s] = {cnt[v]: [v]}
            for s in sorted(groups, reverse=True):
                cell = at[s]
                by_count = groups[s]
                if len(by_count) == 1:
                    [mine] = by_count.values()
                    if len(mine) == len(cell):
                        continue
                    fragments = [list(filterfalse(cnt.__getitem__, cell)), mine]
                else:
                    fragments = [by_count[c] for c in sorted(by_count)]
                    if sum(map(len, fragments)) < len(cell):
                        fragments.insert(0, list(filterfalse(cnt.__getitem__, cell)))
                if counted is not splitter:
                    fragments.reverse()
                siblings = None if fresh[s] else list(range(len(fragments)))
                whole = span[s] if fresh[s] else (s, s + len(cell))
                p = s
                for frag in fragments:
                    if p > s:
                        for v in frag:
                            cell_of[v] = p
                    at[p] = frag
                    span[p] = whole
                    fresh[p] = True
                    queue.append((p, len(frag), siblings))
                    p += len(frag)
                ncells += len(fragments) - 1
            for v in touched:
                cnt[v] = 0
        return ncells

    def individualize(self, at: list, cell_of: list[int], ncells: int, s: int, v: int):
        """The child's refined (at, cell_of, ncells): ``[v]`` at s and the rest
        of the cell at s + 1, in copies of the parent's arrays."""
        at = at.copy()
        cell_of = cell_of.copy()
        rest = [u for u in at[s] if u != v]
        at[s] = [v]
        at[s + 1] = rest
        for u in rest:
            cell_of[u] = s + 1
        return at, cell_of, self.refine(at, cell_of, ncells + 1, s)

    def leaf_certificate(self, cells: list[list[int]]) -> tuple[tuple[int, ...], list[int]]:
        """Each vertex's position, and the relabeled edges as keys j(j-1)/2 + i
        (positions i < j), largest first; ``cells`` is a leaf's ``at``, its
        singleton cells in position order.  Every leaf has the graph's edge
        count, and for key sets of one size the descending tuples compare as
        the bit masks they index: the largest key in the symmetric difference
        decides."""
        position = [0] * self.n
        for i, cell in enumerate(cells):
            position[cell[0]] = i
        keys = []
        for u, w in self.edges:
            i, j = position[u], position[w]
            if i > j:
                i, j = j, i
            keys.append(j * (j - 1) // 2 + i)
        keys.sort(reverse=True)
        return tuple(keys), position

    def descend(self, at: list, cell_of: list[int], ncells: int, prefix: list[int]) -> int | None:
        """Search below ``prefix``, whose refined partition is ``at`` and
        ``cell_of`` (``ncells`` cells); a depth to return to, or None when
        done.  The arrays are this node's; each child gets copies.  Only the
        target cell, the first non-singleton, is sorted."""
        if ncells == self.n:
            return self.handle_leaf(at, prefix)
        s = 0
        while len(at[s]) == 1:
            s += 1
        children = sorted(at[s])
        if not prefix:  # the first child's neighbours next; see the class docstring
            near = set(self.adj[children[0]])
            children = [children[0], *sorted(children[1:], key=lambda u: u not in near)]
        done: list[int] = []
        reach: set[int] | None = set()
        for v in children:
            if reach is None:
                reach = self.orbit_fixing(done, prefix)
            if v in reach:
                continue
            done.append(v)
            level = self.descend(*self.individualize(at, cell_of, ncells, s, v), prefix + [v])
            if level is not None and level < len(prefix):
                return level
            reach = None  # the branch may have found automorphisms
        return None

    def orbit_fixing(self, points: list[int], prefix: list[int]) -> set[int]:
        """Orbit of ``points`` under the automorphisms found that fix ``prefix``."""
        fixing = self.autos
        for p in prefix:
            fixing = [a for a in fixing if a[p] == p]
        return _orbit(points, fixing)

    def is_automorphism(self, p: tuple[int, ...]) -> bool:
        """Whether the bijection ``p`` takes every edge to an edge."""
        return all(p[w] in self.adj[p[u]] for u, w in self.edges)

    def handle_leaf(self, cells: list[list[int]], prefix: list[int]) -> int | None:
        if self.first is None:
            self.first = self.best = self.leaf_certificate(cells)
            self.first_path = prefix
            return None
        order = [cell[0] for cell in cells]
        gamma = self.record_if_automorphism(order, self.first)
        if gamma is not None:  # the first leaf's certificate; see the class docstring
            path = self.first_path
            i = next(j for j, u in enumerate(path) if u != prefix[j])
            return i if all(gamma[u] == w for u, w in zip(path[: i + 1], prefix)) else None
        cert, position = self.leaf_certificate(cells)
        if cert < self.best[0]:
            self.best = (cert, position)
        elif cert == self.best[0]:  # so the best is not the first leaf
            self.record_if_automorphism(order, self.best)
        return None

    def record_if_automorphism(self, order: list[int], other) -> tuple[int, ...] | None:
        """Keep the map from ``other``'s leaf to this one, if an automorphism; return it."""
        perm = itemgetter(*other[1])(order)
        if not self.is_automorphism(perm):
            return None
        if perm != _identity_images(self.n) and perm not in self.autos:
            self.autos.append(perm)
        return perm


def _check_search_bound(n: int, subject: str) -> None:
    """Refuse ``subject``, n vertices or a bound of n, past the search bound."""
    if n > _MAX_SEARCH_VERTICES:
        raise ValueError(f"{subject} exceeds the search bound {_MAX_SEARCH_VERTICES}")


def _analyzed(graph: Graph, known=()) -> tuple[tuple[tuple[int, ...], ...], str, tuple]:
    """Automorphism generators, certificate and the first path, cached on the
    graph alone: ``known`` seeds only a search, so the cached generators are
    those of the caller that came first, while the certificate and the first
    path, always the leftmost, cannot differ.  |Aut| is not computed here:
    ``PermGroup.order`` reads it off the generators and the path on first
    call, so a ``certificate()`` alone never pays for it."""
    result = _ANALYZED.pop(graph, None)
    if result is None:
        _check_search_bound(graph.n, f"graph on {graph.n} vertices")
        search = _Search(graph, known)
        search.run()
        assert search.best is not None
        # the best leaf's keys are the graph6 bits of the relabeled graph
        cert = _graph6(graph.n, search.best[0])
        result = tuple(search.autos), cert, tuple(search.first_path)
    _ANALYZED[graph] = result  # the most recently used last
    if len(_ANALYZED) > 4096:
        del _ANALYZED[next(iter(_ANALYZED))]
    return result


def automorphism_group(graph: Graph, known=()) -> PermGroup:
    """Full automorphism group; a search, if one runs, starts from ``known``."""
    autos, _, base = _analyzed(graph, known)
    return PermGroup(graph, autos, base)


def certificate(graph: Graph, known=()) -> str:
    return _analyzed(graph, known)[1]


# --- k-arc machinery ---------------------------------------------------------


def _first_arc(graph: Graph, k: int, start: int) -> tuple[int, ...]:
    """The first k-arc from ``start`` in lexicographic order: each step goes
    to the least neighbour other than the previous vertex.  Every vertex needs
    two neighbours, as in a cubic graph."""
    walk = [start]
    for _ in range(k):
        back = walk[-2] if len(walk) > 1 else None
        walk.append(next(w for w in graph.adjacency[walk[-1]] if w != back))
    return tuple(walk)


def k_arc_regularity(graph: Graph) -> tuple[int | None, bool]:
    """(k, True) when Aut acts regularly on k-arcs; (None, False) if not arc-transitive.

    For a connected cubic graph with arc-transitive automorphism group of
    order a, the unique candidate is the k with a = n*3*2^(k-1); regularity is
    then equivalent to transitivity on k-arcs, verified by an orbit
    computation in the stabilizer of one vertex.
    """
    if not graph.is_regular(3):
        raise ValueError("k-arc-regularity analysis requires a cubic graph")
    if not is_connected(graph):
        raise ValueError("k-arc-regularity analysis requires a connected graph")
    return _arc_type(graph, automorphism_group(graph))


def _arc_type(graph: Graph, aut: PermGroup) -> tuple[int | None, bool]:
    """k_arc_regularity for a connected cubic graph with automorphism group
    aut.  Aut is transitive on k-arcs exactly when it is transitive on
    vertices and Aut_w, for w = base[0], is transitive on the 3*2^(k-1)
    k-arcs that start at w, so the only orbits closed are w's and those of
    k-arcs at w."""
    w, stabilizer = aut.point_stabilizer()
    n = graph.n
    if len(aut.orbit(w)) != n or len(_closure(_first_arc(graph, 1, w), stabilizer)) != 3:
        return None, False
    a = aut.order()
    for k in range(1, 6):
        if a == n * 3 * 2 ** (k - 1):
            if len(_closure(_first_arc(graph, k, w), stabilizer)) != a // n:
                raise RuntimeError(
                    f"automorphism order {a} matches k={k} but the action is not "
                    f"transitive on {k}-arcs"
                )
            return k, True
    raise RuntimeError(
        f"arc-transitive cubic graph with |Aut|={a} on {n} vertices fits no k <= 5"
    )


# --- subgroup-level operations ----------------------------------------------


def _conjugates(group: PermGroup, sub):
    """The conjugates of the element set ``sub`` in ``group``, and its normalizer's generators.

    Breadth-first search over the element sets x^-1 sub x under the generators
    of ``group``; each conjugate maps to an x reaching it.  By Schreier's lemma
    the elements x s y^-1, for x reaching a conjugate C, s a generator and y
    reaching s^-1 C s, generate the stabilizer of ``sub``: N_group(sub).
    """
    # s^-1 h s sends v to s[h[s^-1[v]]]; x y is itemgetter(*x)(y)
    gens = [(s, itemgetter(*_inverse(s))) for s in group.generators]
    start = frozenset(sub)
    reach = {start: _identity_images(group.degree)}
    queue = deque([start])
    schreier = []
    while queue:
        conj = queue.popleft()
        times = itemgetter(*reach[conj])  # times(s) is x s
        for s, by_inverse in gens:
            image = frozenset(by_inverse(itemgetter(*h)(s)) for h in conj)
            if image in reach:
                schreier.append(itemgetter(*times(s))(_inverse(reach[image])))
            else:
                reach[image] = times(s)
                queue.append(image)
    return reach, schreier


def normalizer(sub, group: PermGroup) -> list[tuple[int, ...]]:
    """Schreier generators of N_group(sub), for the element set ``sub``."""
    return _conjugates(group, sub)[1]


def _grow(sub, orbit, v0: int, g: tuple[int, ...], d: int, cand_set):
    """<sub, g>, g commuting with sub, if g has order d and every coset
    sub g^j (0 < j < d) is made of candidates, else None.  A g^j mapping v0
    into sub's ``orbit`` of it maps the orbit into itself, so h g^j fixes v0
    for some h in sub: that coset is rejected before any product tuple is
    built.  The coset loop leaves g^d in ``power``, which settles the order."""
    w = v0
    for _ in range(d - 1):
        w = g[w]
        if w in orbit:
            return None
    grown = set(sub)
    power = g
    for _ in range(d - 1):
        coset = [itemgetter(*h)(power) for h in sub]
        if not cand_set.issuperset(coset):
            return None
        grown.update(coset)
        power = itemgetter(*power)(g)
    return grown if power == _identity_images(len(g)) else None


def enumerate_semiregular(group: PermGroup, translations, orders) -> list[frozenset]:
    """The element sets of the semiregular subgroups isomorphic to H = Z_d1 x
    ... x Z_dr (``orders``) whose orbits are those of ``translations``: the
    elements, identity first, of a subgroup T of ``group`` regular on each of
    two parts.  An Aut of order above BICAYLEY_MAX_AUT is refused.

    Candidate elements must preserve both parts and be fixed-point-free; a
    group of such elements is semiregular, and at order m = |H| = |part| its
    orbits are forced to be the parts themselves.  The subgroups are built from
    generator tuples (g_1, ..., g_r): g_i has order exactly d_i and commutes
    with the earlier picks, and every coset P g_i^j (0 < j < d_i) of the
    partial subgroup P they generate consists of candidates, so it misses P,
    which holds the identity.  The cosets are then pairwise disjoint and
    |<P, g_i>| = |P| d_i.  A completed tuple generates an abelian group of
    order |H| on generators of orders d_i: a quotient of H of the same size,
    so isomorphic to H.  Conversely the images of H's standard generators
    under an isomorphism form such a tuple, so every subgroup isomorphic to H
    is found.  Tuples generating the same partial subgroup are merged: P grows
    once per group it reaches, since a g inside a group already grown from P
    would grow it to that same group, whose earlier tuple is kept.  Elements
    are image tuples, x y = itemgetter(*x)(y).

    The candidates come without listing the group.  With w = base[0], a
    part-preserving, fixed-point-free element x sends w to some u != w of w's
    part, and so does exactly one t in T other than the identity.  Then
    x t^-1 fixes w, so x = sigma t for one sigma in the stabilizer G_w, which
    is listed by closure.
    """
    m = prod(orders)
    if len(translations) != m:
        raise ValueError(f"{len(translations)} translations cannot be regular on parts of {m}")
    w, fixing = group.point_stabilizer()
    bound = max_enumeration_bound()
    if group.order() > bound:
        raise ValueError(
            f"group of order {group.order()} exceeds the enumeration bound {bound}; "
            "raise BICAYLEY_MAX_AUT to override"
        )
    identity = _identity_images(group.degree)
    part = frozenset(t[w] for t in translations)  # w's part, its T-orbit
    candidates = []
    for sigma in _closure(identity, fixing):
        times = itemgetter(*sigma)  # times(t) is sigma t
        for x in map(times, translations[1:]):
            if not any(map(eq, x, identity)) and part.issuperset(map(x.__getitem__, part)):
                candidates.append(x)
    cand_set = frozenset(candidates)
    # a usable g of order d has a cycle of length exactly d through w (a
    # shorter one makes some g^j, 0 < j < d, fix w, so it is no candidate),
    # so g is only tried for that length; _grow checks that g^d = 1
    cyclic: dict[int, list[tuple[int, ...]]] = {}
    for x in candidates:
        d, v = 1, x[w]
        while v != w:
            d, v = d + 1, x[v]
        if d in orders:
            cyclic.setdefault(d, []).append(x)
    # partial subgroup -> the generators of the first tuple reaching it
    layer = {frozenset({identity}): ()}
    for d in orders:
        if d == 1:
            continue  # the identity generates an order-1 factor
        grown_layer: dict[frozenset[tuple[int, ...]], tuple[tuple[int, ...], ...]] = {}
        for sub, picks in layer.items():
            orbit = {h[w] for h in sub}
            covered: set[tuple[int, ...]] = set()  # the groups grown from sub so far
            for g in cyclic.get(d, ()):
                if g in covered or any(itemgetter(*g)(p) != itemgetter(*p)(g) for p in picks):
                    continue
                grown = _grow(sub, orbit, w, g, d, cand_set)
                if grown is not None:
                    covered |= grown
                    grown_layer.setdefault(frozenset(grown), picks + (g,))
        layer = grown_layer
    return sorted(layer, key=sorted)


def are_conjugate(group: PermGroup, a, b) -> tuple[int, ...] | None:
    """An element x of ``group`` with x^-1 a x = b, for the element sets a
    and b, or None."""
    return _conjugates(group, a)[0].get(frozenset(b))

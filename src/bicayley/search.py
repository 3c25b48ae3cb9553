"""Individualization-refinement search: automorphism generators and a
canonical labeling in one pass.

A permutation of 0..n-1 is its image tuple p, sending v to p[v].  ``_Search``
explores equitable ordered partitions; its first path is a base and the
automorphisms it keeps a strong generating set for it.  ``symmetry`` runs it
behind its certificate cache and builds ``PermGroup`` from the result.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import filterfalse
from operator import itemgetter
from struct import pack

from bicayley.graphs import Graph, _is_permutation

__all__: list[str] = []


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
    adjacency ``adj`` and edge list ``edges`` taking every edge to an edge."""
    return _is_permutation(p, len(adj)) and all(p[w] in adj[p[u]] for u, w in edges)


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

    Carried seeds: given an ``index`` ((n, certificate) -> best-leaf
    labeling, each vertex's position, and kept generators of an analyzed
    graph; only ``symmetry._analyzed`` passes one), the search looks up its
    first leaf's certificate.  An indexed graph with that certificate
    relabels, by its labeling, to the graph this leaf relabels to, so the
    map between the two labelings is an isomorphism, and that graph's
    generators conjugated through it are automorphisms here, with no edge
    check.  They join ``autos`` after the known seeds as late seeds.
    Nothing is pruned before the first leaf, so they prune as known seeds
    would, and the search goes on to its own best leaf.
    """

    def __init__(self, graph: Graph, known=(), index=None):
        self.n = graph.n
        self.adj = graph.adjacency
        self.edges = graph.edges
        known = [tuple(images) for images in known]
        if not all(_is_automorphism(self.adj, self.edges, p) for p in known):
            raise ValueError(f"a known automorphism of {graph} is not an automorphism")
        # kept as record_if_automorphism keeps those found: no identity, no repeat
        self.autos = [p for p in dict.fromkeys(known) if p != _identity_images(self.n)]
        self.index = index
        self.first: tuple[bytes, list[int]] | None = None
        self.first_path: list[int] = []
        self.best: tuple[bytes, list[int]] | None = None
        self.cnt = [0] * self.n  # refine's counts; every multi-vertex pop restores the zeros

    def run(self) -> None:
        n = self.n
        if n == 0:
            self.best = (b"", [])
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

    def leaf_certificate(self, cells: list[list[int]]) -> tuple[bytes, list[int]]:
        """Each vertex's position, and the relabeled edges as keys j(j-1)/2 + i
        (positions i < j), largest first, packed as big-endian 4-byte words;
        ``cells`` is a leaf's ``at``, its singleton cells in position order.
        Every leaf has the graph's edge count, and for key sets of one size the
        packed words compare as the bit masks they index: the largest key in
        the symmetric difference decides."""
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
        return pack(">%dI" % len(keys), *keys), position

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
            if self.index is not None:
                self.carry(cells)
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

    def carry(self, cells: list[list[int]]) -> None:
        """Take the generators indexed under the first leaf's certificate
        as late seeds; ``cells`` is that leaf.  Indexed generators are
        distinct and none is the identity, so only a known seed can repeat
        one."""
        entry = self.index.get((self.n, self.first[0]))
        if entry is None:
            return
        labeling, generators = entry
        # the indexed graph's vertex -> ours at its position
        back = itemgetter(*labeling)([cell[0] for cell in cells])
        there = _inverse(back)
        known = set(self.autos)
        for g in generators:
            h = itemgetter(*there)(itemgetter(*g)(back))  # there, then g, then back
            if h not in known:
                self.autos.append(h)

    def record_if_automorphism(self, order: list[int], other) -> tuple[int, ...] | None:
        """Keep the map from ``other``'s leaf to this one, if an automorphism; return it."""
        perm = itemgetter(*other[1])(order)
        if not self.is_automorphism(perm):
            return None
        if perm != _identity_images(self.n) and perm not in self.autos:
            self.autos.append(perm)
        return perm

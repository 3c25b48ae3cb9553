"""Permutation groups and graph symmetry.

The automorphism and certificate engine is a backtracking search over
equitable ordered partitions (individualization-refinement).  Its first path
is a base and the automorphisms it keeps a strong generating set for it, so
|Aut| is the product of the first-path orbit lengths.  The search may start
from known automorphisms: true ones prune soundly, never the best leaf, so
the output is that of an unseeded search.  Every other group is listed by
closure over its generators, bounded by BICAYLEY_MAX_AUT (default 100000).
Normalizers and conjugacy come from the orbit of a subgroup under
conjugation by the group's generators.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import filterfalse
from math import lcm, prod
from operator import eq, itemgetter

from bicayley.graphs import Graph, _graph6, is_connected

__all__ = [
    "Permutation",
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
    """Element-enumeration cutoff; override with the BICAYLEY_MAX_AUT env var."""
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


@dataclass(frozen=True)
class Permutation:
    """A permutation of 0..n-1; composition acts left-to-right (v^(pq) = (v^p)^q)."""

    images: tuple[int, ...]

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(_identity_images(n))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def __call__(self, v: int) -> int:
        return self.images[v]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("permutations of different degrees")
        if len(self.images) < 2:
            return other  # the identity is the only permutation of degree < 2
        return Permutation(itemgetter(*self.images)(other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def order(self) -> int:
        result = 1
        for c in self.cycles():
            result = lcm(result, len(c))
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = self.images[start]
            while v != start:
                seen[v] = True
                cyc.append(v)
                v = self.images[v]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


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


def _closure(start: tuple[int, ...], images, bound: int | None = None):
    """Every tuple reached breadth-first from ``start``, x going to (g[x[0]],
    g[x[1]], ...) under each image tuple g; None past ``bound``.  From the
    identity's images that lists a group, from two or more points their orbit."""
    listed = [start]
    seen = {start}
    for x in listed if images else ():  # grows while walked; degree < 2 has no images
        times = itemgetter(*x)  # times(g) is the image tuple of x * g
        for g in images:
            y = times(g)
            if y not in seen:
                if len(listed) == bound:
                    return None
                seen.add(y)
                listed.append(y)
    return listed


class PermGroup:
    """Permutation group on 0..degree-1 given by generators.

    An automorphism group carries its order from the search.  Any other group
    lists its elements by breadth-first closure over its generators, and its
    order and membership read that list.  Listing refuses a group larger than
    BICAYLEY_MAX_AUT, before it starts when the order is known.
    """

    def __init__(self, degree: int, generators=(), order: int | None = None):
        self.degree = degree
        seen: set[tuple[int, ...]] = set()
        gens = []
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity and g.images not in seen:
                seen.add(g.images)
                gens.append(g)
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self._order = order
        self._listed: list[tuple[int, ...]] | None = None
        self._members: set[tuple[int, ...]] | None = None

    def order(self) -> int:
        if self._order is None:
            self._order = len(self._images())
        return self._order

    def contains(self, p: Permutation) -> bool:
        if self._members is None:
            self._members = set(self._images())
        return p.images in self._members  # no member has another degree

    def _images(self) -> list[tuple[int, ...]]:
        """Every element as an image tuple; refuses past the enumeration bound."""
        if self._listed is None:
            bound = max_enumeration_bound()
            refusal = (
                f"group of order {{}} exceeds the enumeration bound {bound}; "
                "raise BICAYLEY_MAX_AUT to override"
            )
            if self._order is not None and self._order > bound:
                raise ValueError(refusal.format(self._order))
            gens = [s.images for s in self.generators]
            listed = _closure(_identity_images(self.degree), gens, bound)
            if listed is None:
                raise ValueError(refusal.format(f"over {bound}"))
            if self._order is not None and len(listed) != self._order:
                raise RuntimeError(
                    f"closure lists {len(listed)} elements of a group of order {self._order}"
                )
            self._listed = listed
        return self._listed

    def elements(self) -> list[Permutation]:
        """Every element; refuses when the order exceeds the enumeration bound."""
        return [Permutation(x) for x in self._images()]

    def orbit(self, v: int) -> frozenset[int]:
        return frozenset(_orbit((v,), [s.images for s in self.generators]))

    def orbit_roots(self) -> list[int]:
        """The least point of each orbit, ascending."""
        roots: list[int] = []
        covered: set[int] = set()
        for v in range(self.degree):
            if v not in covered:
                roots.append(v)
                covered |= self.orbit(v)
        return roots

    def is_transitive_on(self, points) -> bool:
        points = frozenset(points)
        if not points:
            return True
        return points <= self.orbit(min(points))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


# --- individualization-refinement search ------------------------------------


class _Search:
    """One pass computes automorphism generators and a canonical labeling.

    The ordered-partition refinement is relabeling-equivariant: cells split by
    neighbor counts against a splitter cell, fragments ordered by count, and
    the splitter worklist is a FIFO of every new fragment.  Branching
    explores the first non-singleton cell, skipping vertices equivalent to an
    explored sibling under automorphisms that fix the branch prefix.

    First-path return (McKay 1981): a leaf whose automorphism g onto the first
    leaf maps first_path[:i+1] onto its prefix, i the first index where the
    two differ, returns search to depth i.  Target cell, refinement and
    individualization are equivariant, so g maps the explored subtree of
    first_path[:i+1] onto the current one, whose other leaves repeat seen
    certificates and generated automorphisms.  The best leaf, the first in
    tree order with the least certificate, is never skipped: labelings and
    certificates are those of the exhaustive search.

    The search starts from the ``known`` automorphisms (a non-automorphism
    raises ValueError).  Both prunings need only true automorphisms, so seeds
    skip more and change nothing: a skipped subtree is the image of an
    explored one, and the first-path orbits still grow to Aut's.
    """

    def __init__(self, graph: Graph, known=()):
        self.n = graph.n
        self.adj = graph.adjacency
        self.autos = [Permutation(tuple(images)) for images in known]
        edges = graph.edges if self.autos else []
        for p in (a.images for a in self.autos):  # a bijection taking every edge to an edge
            if sorted(p) != [*range(self.n)] or not all(p[w] in self.adj[p[u]] for u, w in edges):
                raise ValueError(f"a known automorphism of {graph} is not an automorphism")
        self.first: tuple[tuple[int, ...], list[int]] | None = None
        self.first_path: list[int] = []
        self.best: tuple[tuple[int, ...], list[int]] | None = None

    def run(self) -> None:
        if self.n == 0:
            self.best = ((), [])
            return
        cells = self.refine([list(range(self.n))], 0)
        self.descend(cells, [])

    def refine(self, cells: list[list[int]], seed: int) -> list[list[int]]:
        """Coarsest equitable refinement, each cell sorted.

        Every cell but ``cells[seed]`` must split no cell once ``cells[seed]``
        has been split against: true of the whole vertex set, and of an
        equitable partition whose cell ``seed`` is a just-individualized
        vertex.  So only that cell starts the queue; the others, popped, would
        split nothing.

        ``at[s]`` is the cell starting at position s, and ``cell_of[v]`` is the
        start of v's cell.  A splitter splits each cell it touches, right to
        left, into its untouched vertices, then its touched ones by ascending
        neighbor count; the first fragment keeps the start and every fragment
        is queued.  Cells only shrink, so a queued ``(start, size)`` whose cell
        has since split no longer matches its size.

        A singleton splitter {w} (most pops) reads ``adj[w]`` alone: every
        count is 1, so a cell it hits but does not cover splits into the rest
        and the neighbors of w, with no count array and no sort.  A larger
        splitter counts neighbors in ``cnt`` and files each touched vertex of a
        non-singleton cell under that cell and its count.  Only the count keys
        are sorted.  A cell with one key splits only when some vertex of it is
        untouched; a cell's untouched fragment is its vertices of count 0.
        Vertex order within a cell never affects the partition, which is
        sorted cell by cell at the end.
        """
        adj = self.adj
        n = self.n
        at: list = [None] * n
        cell_of = [0] * n
        s = 0
        for cell in cells:
            at[s] = cell
            for v in cell:
                cell_of[v] = s
            s += len(cell)
        ncells = len(cells)
        queue = deque([(sum(map(len, cells[:seed])), len(cells[seed]))])
        cnt = [0] * n
        while queue and ncells < n:
            start, size = queue.popleft()
            splitter = at[start]
            if len(splitter) != size:
                continue
            if size == 1:
                hit: dict[int, list[int]] = {}
                for v in adj[splitter[0]]:
                    s = cell_of[v]
                    if s in hit:
                        hit[s].append(v)
                    elif len(at[s]) > 1:
                        hit[s] = [v]
                for s in sorted(hit, reverse=True):
                    cell = at[s]
                    mine = hit[s]
                    if len(mine) == len(cell):
                        continue
                    rest = cell.copy()
                    for v in mine:
                        rest.remove(v)
                    p = s + len(rest)
                    for v in mine:
                        cell_of[v] = p
                    at[s] = rest
                    at[p] = mine
                    queue.append((s, len(rest)))
                    queue.append((p, len(mine)))
                    ncells += 1
                continue
            touched: list[int] = []
            for w in splitter:
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
                p = s
                for frag in fragments:
                    if p > s:
                        for v in frag:
                            cell_of[v] = p
                    at[p] = frag
                    queue.append((p, len(frag)))
                    p += len(frag)
                ncells += len(fragments) - 1
            for v in touched:
                cnt[v] = 0
        out = []
        s = 0
        while s < n:
            cell = at[s]
            out.append(cell if len(cell) == 1 else sorted(cell))
            s += len(cell)
        return out

    def individualize(self, cells: list[list[int]], tc: int, v: int) -> list[list[int]]:
        rest = [u for u in cells[tc] if u != v]
        return self.refine(cells[:tc] + [[v], rest] + cells[tc + 1 :], tc)

    def leaf_certificate(self, cells: list[list[int]]) -> tuple[tuple[int, ...], list[int]]:
        """Each vertex's position, and the relabeled edges as keys j(j-1)/2 + i
        (positions i < j), largest first.  Every leaf has the graph's edge
        count, and for key sets of one size the descending tuples compare as
        the bit masks they index: the largest key in the symmetric difference
        decides."""
        position = [0] * self.n
        for i, cell in enumerate(cells):
            position[cell[0]] = i
        keys = []
        for u in range(self.n):
            pu = position[u]
            for w in self.adj[u]:
                if u < w:
                    pw = position[w]
                    i, j = (pu, pw) if pu < pw else (pw, pu)
                    keys.append(j * (j - 1) // 2 + i)
        keys.sort(reverse=True)
        return tuple(keys), position

    def descend(self, cells: list[list[int]], prefix: list[int]) -> int | None:
        """Search below ``prefix``; a depth to return to, or None when done."""
        tc = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if tc is None:
            return self.handle_leaf(cells, prefix)
        done: list[int] = []
        reach: set[int] | None = set()
        for v in cells[tc]:
            if reach is None:
                reach = self.orbit_fixing(done, prefix)
            if v in reach:
                continue
            done.append(v)
            level = self.descend(self.individualize(cells, tc, v), prefix + [v])
            if level is not None and level < len(prefix):
                return level
            reach = None  # the branch may have found automorphisms
        return None

    def orbit_fixing(self, points: list[int], prefix: list[int]) -> set[int]:
        """Orbit of ``points`` under the automorphisms found that fix ``prefix``."""
        fixing = [a.images for a in self.autos]
        for p in prefix:
            fixing = [a for a in fixing if a[p] == p]
        return _orbit(points, fixing)

    def handle_leaf(self, cells: list[list[int]], prefix: list[int]) -> int | None:
        cert, position = self.leaf_certificate(cells)
        if self.first is None:
            self.first = self.best = (cert, position)
            self.first_path = prefix
            return None
        gamma = self.record_if_automorphism(cert, position, self.first)
        assert self.best is not None
        if cert < self.best[0]:
            self.best = (cert, position)
        elif self.best is not self.first:
            self.record_if_automorphism(cert, position, self.best)
        if gamma is not None:
            i = next(j for j, u in enumerate(self.first_path) if u != prefix[j])
            if all(gamma[u] == w for u, w in zip(self.first_path[: i + 1], prefix)):
                return i
        return None

    def record_if_automorphism(self, cert: tuple[int, ...], position: list[int], other):
        """Keep the automorphism from ``other``'s leaf to this one; return its images."""
        if cert != other[0]:
            return None
        # two labelings onto the same canonical graph compose to an automorphism
        inv = sorted(range(self.n), key=position.__getitem__)
        perm = Permutation(tuple(map(inv.__getitem__, other[1])))
        if not perm.is_identity and perm not in self.autos:
            self.autos.append(perm)
        return perm.images


def _check_search_bound(n: int) -> None:
    """Refuse a graph on more vertices than the search takes."""
    if n > _MAX_SEARCH_VERTICES:
        raise ValueError(f"graph on {n} vertices exceeds the search bound {_MAX_SEARCH_VERTICES}")


def _analyzed(graph: Graph, known=()) -> tuple[tuple[Permutation, ...], int, str]:
    """Automorphism generators, |Aut| and certificate, cached on the graph
    alone: ``known`` seeds only a search, so the cached generators are those
    of the caller that came first, while |Aut| and the certificate cannot
    differ."""
    result = _ANALYZED.pop(graph, None)
    if result is None:
        _check_search_bound(graph.n)
        search = _Search(graph, known)
        search.run()
        assert search.best is not None
        path = search.first_path
        order = prod(len(search.orbit_fixing([v], path[:i])) for i, v in enumerate(path))
        # the best leaf's keys are the graph6 bits of the relabeled graph
        cert = _graph6(graph.n, search.best[0])
        result = tuple(search.autos), order, cert
    _ANALYZED[graph] = result  # the most recently used last
    if len(_ANALYZED) > 4096:
        del _ANALYZED[next(iter(_ANALYZED))]
    return result


def automorphism_group(graph: Graph, known=()) -> PermGroup:
    """Full automorphism group; a search, if one runs, starts from ``known``."""
    autos, order, _ = _analyzed(graph, known)
    return PermGroup(graph.n, autos, order)


def certificate(graph: Graph, known=()) -> str:
    return _analyzed(graph, known)[2]


# --- k-arc machinery ---------------------------------------------------------


def _first_arc(graph: Graph, k: int) -> tuple[int, ...]:
    """The first k-arc in lexicographic order: from vertex 0, each step goes to
    the least neighbour other than the previous vertex.  Every vertex needs
    two neighbours, as in a cubic graph."""
    walk = [0]
    for _ in range(k):
        back = walk[-2] if len(walk) > 1 else None
        walk.append(next(w for w in graph.adjacency[walk[-1]] if w != back))
    return tuple(walk)


def k_arc_regularity(graph: Graph) -> tuple[int | None, bool]:
    """(k, True) when Aut acts regularly on k-arcs; (None, False) if not arc-transitive.

    For a connected cubic graph with arc-transitive automorphism group of
    order a, the unique candidate is the k with a = n*3*2^(k-1); regularity is
    then equivalent to transitivity on k-arcs, verified by an explicit orbit
    computation.
    """
    if not graph.is_regular(3):
        raise ValueError("k-arc-regularity analysis requires a cubic graph")
    if not is_connected(graph):
        raise ValueError("k-arc-regularity analysis requires a connected graph")
    return _arc_type(graph, automorphism_group(graph))


def _arc_type(graph: Graph, aut: PermGroup) -> tuple[int | None, bool]:
    """k_arc_regularity for a connected cubic graph with automorphism group aut."""
    gens = [s.images for s in aut.generators]
    if len(_closure(_first_arc(graph, 1), gens)) != 2 * graph.edge_count:
        return None, False
    a = aut.order()
    n = graph.n
    for k in range(1, 6):
        if a == n * 3 * 2 ** (k - 1):
            if len(_closure(_first_arc(graph, k), gens)) != a:
                raise RuntimeError(
                    f"automorphism order {a} matches k={k} but the action is not "
                    f"transitive on {k}-arcs"
                )
            return k, True
    raise RuntimeError(
        f"arc-transitive cubic graph with |Aut|={a} on {n} vertices fits no k <= 5"
    )


# --- subgroup-level operations ----------------------------------------------


def _conjugates(group: PermGroup, sub: PermGroup):
    """The conjugates of ``sub`` in ``group``, and generators of its normalizer.

    Breadth-first search over the element sets x^-1 sub x under the generators
    of ``group``; each conjugate maps to an x reaching it.  By Schreier's lemma
    the elements x s y^-1, for x reaching a conjugate C, s a generator and y
    reaching s^-1 C s, generate the stabilizer of ``sub``: N_group(sub).
    """
    # element sets of image tuples; s^-1 h s sends v to s[h[s^-1[v]]]
    gens = [(s, itemgetter(*s.inverse().images)) for s in group.generators]
    start = frozenset(sub._images())
    reach = {start: Permutation.identity(group.degree)}
    queue = deque([start])
    schreier = []
    while queue:
        conj = queue.popleft()
        x = reach[conj]
        for s, by_inverse in gens:
            image = frozenset(by_inverse(itemgetter(*h)(s.images)) for h in conj)
            if image in reach:
                schreier.append(x * s * reach[image].inverse())
            else:
                reach[image] = x * s
                queue.append(image)
    return reach, schreier


def normalizer(sub: PermGroup, group: PermGroup) -> PermGroup:
    """Elements of ``group`` whose conjugation preserves ``sub``."""
    return PermGroup(group.degree, _conjugates(group, sub)[1])


def _grow(sub, orbit, v0: int, g: tuple[int, ...], d: int, cand_set):
    """<sub, g>, g of order d commuting with sub, if every coset sub g^j
    (0 < j < d) is made of candidates, else None.  A g^j mapping v0 into sub's
    ``orbit`` of it maps the orbit into itself, so h g^j fixes v0 for some h
    in sub: that coset is rejected before any product tuple is built."""
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
    return grown


def enumerate_semiregular(group: PermGroup, parts, orders) -> list[PermGroup]:
    """Subgroups isomorphic to H = Z_d1 x ... x Z_dr (``orders``), semiregular,
    whose orbits are exactly the two parts.

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
    are image tuples, x y = itemgetter(*x)(y), until the returned generators.
    """
    m = prod(orders)
    part0, part1 = (frozenset(p) for p in parts)
    if len(part0) != m or len(part1) != m:
        raise ValueError(
            f"parts of sizes {len(part0)},{len(part1)} cannot be the orbits of an order-{m} group"
        )
    degree = group.degree
    identity = _identity_images(degree)
    candidates = [
        x
        for x in group._images()
        if not any(map(eq, x, identity))  # the identity fixes every point
        and part0.issuperset(map(x.__getitem__, part0))
    ]
    cand_set = frozenset(candidates)
    v0 = min(part0)
    # _grow rejects a g of order d whose cycle through v0 is shorter than d,
    # so that cycle's length d is read first and the order only checked for it
    cyclic: dict[int, list[tuple[int, ...]]] = {}
    for x in candidates:
        d, w = 1, x[v0]
        while w != v0:
            d, w = d + 1, x[w]
        if d in orders and Permutation(x).order() == d:
            cyclic.setdefault(d, []).append(x)
    # partial subgroup -> the generators of the first tuple reaching it
    layer = {frozenset({identity}): ()}
    for d in orders:
        if d == 1:
            continue  # the identity generates an order-1 factor
        grown_layer: dict[frozenset[tuple[int, ...]], tuple[tuple[int, ...], ...]] = {}
        for sub, picks in layer.items():
            orbit = {h[v0] for h in sub}
            covered: set[tuple[int, ...]] = set()  # the groups grown from sub so far
            for g in cyclic.get(d, ()):
                if g in covered or any(itemgetter(*g)(p) != itemgetter(*p)(g) for p in picks):
                    continue
                grown = _grow(sub, orbit, v0, g, d, cand_set)
                if grown is not None:
                    covered |= grown
                    grown_layer.setdefault(frozenset(grown), picks + (g,))
        layer = grown_layer
    return [PermGroup(degree, map(Permutation, layer[s])) for s in sorted(layer, key=sorted)]


def are_conjugate(group: PermGroup, a: PermGroup, b: PermGroup) -> Permutation | None:
    """A conjugating element x of ``group`` with x^-1 a x = b, or None."""
    return _conjugates(group, a)[0].get(frozenset(b._images()))

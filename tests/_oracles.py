"""Independent reference implementations the engine is tested against.

Nothing here calls into the package beyond the Graph container: automorphisms
by filtering all vertex bijections, girth by exhaustive path search, graph6 by
direct bit-string packing, k-arcs by listing every walk, vertex ids by
mixed-radix arithmetic, the two parts of a bi-Cayley graph from its vertex
layout, the classical LCF and Kneser constructions, the Smith
normal form with its transform kept as a separate matrix, abelian
isomorphism types combined from one partition per prime exponent, abelian
automorphisms from every tuple of generator images that spans the group, and the
Theorem A lattice key from a walk over every power of t, closed
non-backtracking walks by listing every walk from every arc, and the table of
closed base walks by scanning every dart at each step.  The
exceptions are the straightforward refinement and branching of the
individualization-refinement search, its big-integer leaf certificate and
its leaf handling that certifies every leaf, written as methods to patch into ``bicayley.search._Search`` in place of the
fast ones, the whole-class check of the search on every small graph, the
unreduced Theorem A scan, the full-scan BCI oracle and the
oracle's first-match scan without its component-count filter, which build
and certify graphs through the package, and the orbit and
semiregularity tests, the arc type from orbits on every arc and k-arc, the
subgroup-lattice and coset-by-coset enumerations of semiregular subgroups
and the element scans for normalizers and conjugacy, which work on generator
lists and on the element sets ``_mul_close`` lists, the base-circuit lift
criterion and the voltage-group automorphism a lift induces, which read the
package's voltage assignments and lifts, and the
row-by-row Table 1 transcription, which forms its quotients through the
reference Smith normal form and its groups and spec strings through the
package.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

from bicayley.abelian import (
    _index_table,
    automorphism_group_of,
    element_order,
    make_group,
    subgroup_generated,
)
from bicayley.bci import _identity_translates
from bicayley.construction import BiCayleySpec, build, format_spec, known_automorphisms
from bicayley.graphs import Graph
from bicayley.symmetry import PermGroup, automorphism_group, certificate
from bicayley.voltage import VoltageAssignment


def compose(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """x then y, as image tuples: v goes to y[x[v]]."""
    return tuple(y[v] for v in x)


def inverse(x: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple sending x[v] back to v."""
    inv = [0] * len(x)
    for v, image in enumerate(x):
        inv[image] = v
    return tuple(inv)


def perm_order(x: tuple[int, ...]) -> int:
    """The least k >= 1 with x^k the identity, by repeated composition."""
    identity = tuple(range(len(x)))
    k, power = 1, x
    while power != identity:
        k, power = k + 1, compose(power, x)
    return k


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex bijection mapping edges to edges, as image tuples."""
    adj = [set(a) for a in g.adjacency]
    edges = g.edges
    out = []
    for perm in permutations(range(g.n)):
        for u, v in edges:
            if perm[v] not in adj[perm[u]]:
                break
        else:
            out.append(perm)
    return out


def exhaustive_girth(g: Graph) -> int | float:
    """Shortest cycle by depth-first enumeration of all simple paths."""
    best = math.inf

    def extend(start: int, v: int, on_path: set[int], length: int) -> None:
        nonlocal best
        for w in g.adjacency[v]:
            if w == start and length >= 3:
                best = min(best, length)
            elif w > start and w not in on_path and length + 1 < best:
                on_path.add(w)
                extend(start, w, on_path, length + 1)
                on_path.discard(w)

    for s in range(g.n):
        extend(s, s, {s}, 1)
    return best


def graph6_reference(g: Graph) -> str:
    """graph6 text assembled from an explicit bit string."""
    bits = "".join(
        "1" if g.has_edge(i, j) else "0" for j in range(1, g.n) for i in range(j)
    )
    bits += "0" * (-len(bits) % 6)
    data = "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))
    if g.n <= 62:
        return chr(g.n + 63) + data
    size = format(g.n, "018b")
    head = "~" + "".join(chr(int(size[i : i + 6], 2) + 63) for i in range(0, 18, 6))
    return head + data


def k_arcs(graph: Graph, k: int) -> list[tuple[int, ...]]:
    """All walks (v_0..v_k) with consecutive adjacency and no immediate backtrack."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    arcs: list[tuple[int, ...]] = [(v,) for v in range(graph.n)]
    for _ in range(k):
        nxt = []
        for walk in arcs:
            tail = walk[-1]
            back = walk[-2] if len(walk) > 1 else None
            for w in graph.adjacency[tail]:
                if w != back:
                    nxt.append(walk + (w,))
        arcs = nxt
    return arcs


def reference_arc_type(graph: Graph, aut: PermGroup) -> tuple[int | None, bool]:
    """The arc type of a connected cubic graph from orbits on all of its arcs:
    None unless the orbit of the first 1-arc under ``aut``'s generators holds
    every arc, else the k with |Aut| = n*3*2^(k-1), once the first k-arc's
    orbit is checked to hold |Aut| walks, one per automorphism."""

    def orbit_size(walk: tuple[int, ...]) -> int:
        seen = {walk}
        frontier = [walk]
        while frontier:
            x = frontier.pop()
            for g in aut.generators:
                y = tuple(g[v] for v in x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen)

    if orbit_size(k_arcs(graph, 1)[0]) != 2 * graph.edge_count:
        return None, False
    a = aut.order()
    for k in range(1, 6):
        if a == graph.n * 3 * 2 ** (k - 1):
            if orbit_size(k_arcs(graph, k)[0]) != a:
                raise RuntimeError(f"|Aut| = {a} matches k={k}, but Aut moves {k}-arcs apart")
            return k, True
    raise RuntimeError(f"|Aut| = {a} on {graph.n} vertices fits no k <= 5")


def layout_id(element, fibre: int) -> int:
    """The id of vertex (fibre, element) of a cover over the element's group:
    fibre * |H| + the rank of the exponent vector in lexicographic order."""
    rank = 0
    for e, d in zip(element.exponents, element.group.orders):
        rank = rank * d + e
    return fibre * element.group.size + rank


def lcf_graph(shifts: list[int], repeats: int) -> Graph:
    """Hamiltonian cubic graph from LCF notation: an n-cycle plus chords."""
    seq = shifts * repeats
    n = len(seq)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + seq[i]) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def kneser_petersen() -> Graph:
    """The Petersen graph as the Kneser graph on 2-subsets of a 5-set."""
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return Graph.from_edges(10, edges)


def hypercube() -> Graph:
    """Q3 with 3-bit vertices joined at Hamming distance one."""
    edges = [
        (x, x ^ (1 << b)) for x in range(8) for b in range(3) if x < x ^ (1 << b)
    ]
    return Graph.from_edges(8, edges)


def complete_bipartite_33() -> Graph:
    return Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def small_corpus(count: int, max_n: int = 8, seed: int = 2024) -> list[Graph]:
    """A fixed mixed corpus: named small graphs first, then seeded random ones."""
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    named = [
        Graph.from_edges(1, []),
        Graph.from_edges(5, []),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
        Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        Graph.from_edges(7, [(0, i) for i in range(1, 7)]),
        k4,
        k5,
        complete_bipartite_33(),
        hypercube(),
    ]
    rng = random.Random(seed)
    graphs = [g for g in named if g.n <= max_n]
    while len(graphs) < count:
        n = rng.randint(4, max_n)
        graphs.append(random_graph(rng, n, rng.uniform(0.15, 0.7)))
    return graphs


# OEIS A000088: the number of graphs on n unlabeled vertices, n = 0, 1, 2, ...
GRAPHS_ON_N_VERTICES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def check_whole_classes(max_n: int) -> list[int]:
    """Check ``certificate`` and |Aut| on every graph of at most ``max_n``
    vertices; return the class counts for n = 1..max_n.

    Each class representative on n - 1 vertices is extended by every
    neighbour set of a new vertex, and one graph is kept per certificate.
    Every graph on n vertices, less its last vertex, is isomorphic to a
    representative, so each class is reached: a split class raises the
    count and two merged classes lower it.  The count must be A000088's,
    and the sum of n!/|Aut(G)| over the representatives must be
    2^(n(n-1)/2), the number of labeled graphs (orbit-stabilizer)."""
    counts = []
    reps = [Graph.from_edges(0, [])]
    for n in range(1, max_n + 1):
        kept = {}
        for g in reps:
            edges = g.edges
            for k in range(n):
                for near in combinations(range(n - 1), k):
                    h = Graph.from_edges(n, edges + [(v, n - 1) for v in near])
                    kept.setdefault(certificate(h), h)
        reps = list(kept.values())
        labeled = sum(math.factorial(n) // automorphism_group(g).order() for g in reps)
        assert len(reps) == GRAPHS_ON_N_VERTICES[n], (n, len(reps))
        assert labeled == 2 ** (n * (n - 1) // 2), (n, labeled)
        counts.append(len(reps))
    return counts


def partition_cells(at: list) -> list[list[int]]:
    """The cells of the search's position array ``at`` (``at[s]`` is the cell
    starting at position s), in position order, each sorted."""
    cells = []
    s = 0
    while s < len(at):
        cells.append(sorted(at[s]))
        s += len(at[s])
    return cells


def write_cells(cells: list[list[int]], at: list, cell_of: list[int]) -> None:
    """Store ``cells`` in the position arrays, in place: each cell at its
    start, and each vertex's cell start in ``cell_of``."""
    s = 0
    for cell in cells:
        at[s] = cell
        for v in cell:
            cell_of[v] = s
        s += len(cell)


def reference_refine(search, at: list, cell_of: list[int], ncells: int, start: int) -> int:
    """``_Search.refine`` from a refinement of cell lists that re-scans every
    cell against every splitter: the arrays are read as cells, refined, and
    written back in place; returns the cell count."""
    cells = reference_refined_cells(search, partition_cells(at))
    write_cells(cells, at, cell_of)
    return len(cells)


def reference_refined_cells(search, cells: list[list[int]]) -> list[list[int]]:
    """Refinement that re-scans every cell against every splitter.

    Every cell starts the splitter queue, so the one cell the fast refinement
    starts from is not needed.  Each splitter counts neighbors, then every
    non-singleton cell, right to left, splits into fragments by ascending
    count; the fragments replace it and join the queue.
    """
    cells = [sorted(c) for c in cells]
    queue = deque(cells)
    live = {id(c) for c in cells}
    cnt = [0] * search.n
    while queue:
        splitter = queue.popleft()
        if id(splitter) not in live:
            continue
        touched: list[int] = []
        for w in splitter:
            for v in search.adj[w]:
                if cnt[v] == 0:
                    touched.append(v)
                cnt[v] += 1
        for idx in range(len(cells) - 1, -1, -1):
            cell = cells[idx]
            if len(cell) == 1:
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault(cnt[v], []).append(v)
            if len(groups) == 1:
                continue
            fragments = [groups[c] for c in sorted(groups)]
            live.discard(id(cell))
            cells[idx : idx + 1] = fragments
            for frag in fragments:
                live.add(id(frag))
                queue.append(frag)
        for v in touched:
            cnt[v] = 0
    return cells


def reference_descend(search, at: list, cell_of: list[int], ncells: int, prefix: list[int]) -> None:
    """Branching that recomputes the pruning orbit for every candidate vertex.

    It ignores the depth a leaf asks to return to, so every sibling that no
    kept automorphism prunes is explored in full.  It reads the node's
    arrays as sorted cells, takes the first non-singleton one, and hands
    ``individualize`` that cell's start position.
    """
    cells = partition_cells(at)

    def equivalent_to_done(v: int, done: list[int]) -> bool:
        if not done:
            return False
        fixing = [a for a in search.autos if all(a[p] == p for p in prefix)]
        reach = set(done)
        queue = deque(done)
        while queue:
            u = queue.popleft()
            for a in fixing:
                w = a[u]
                if w == v:
                    return True
                if w not in reach:
                    reach.add(w)
                    queue.append(w)
        return False

    tc = next((i for i, c in enumerate(cells) if len(c) > 1), None)
    if tc is None:
        search.handle_leaf(cells, prefix)
        return
    start = sum(map(len, cells[:tc]))
    done: list[int] = []
    for v in cells[tc]:
        if equivalent_to_done(v, done):
            continue
        done.append(v)
        search.descend(*search.individualize(at, cell_of, ncells, start, v), prefix + [v])


def reference_leaf_certificate(search, cells: list[list[int]]) -> tuple[bytes, list[int]]:
    """The relabeled adjacency as one bit mask: bit j(j-1)/2 + i for each edge
    between positions i < j, packed big-endian so bytes compare as integers."""
    position = [0] * search.n
    for i, cell in enumerate(cells):
        position[cell[0]] = i
    mask = 0
    for u in range(search.n):
        pu = position[u]
        for w in search.adj[u]:
            if u < w:
                pw = position[w]
                i, j = (pu, pw) if pu < pw else (pw, pu)
                mask |= 1 << (j * (j - 1) // 2 + i)
    nbits = search.n * (search.n - 1) // 2
    return mask.to_bytes((nbits + 7) // 8 or 1, "big"), position


def reference_handle_leaf(search, cells: list[list[int]], prefix: list[int]) -> int | None:
    """Leaf handling that certifies every leaf: a leaf whose certificate equals
    the first leaf's or the best's gives the automorphism between their
    labelings, read by sorting the vertices by position."""
    cert, position = search.leaf_certificate(cells)
    if search.first is None:
        search.first = search.best = (cert, position)
        search.first_path = prefix
        return None

    def record(other) -> tuple[int, ...] | None:
        if cert != other[0]:
            return None
        inv = sorted(range(search.n), key=position.__getitem__)
        perm = tuple(inv[i] for i in other[1])
        if perm != tuple(range(search.n)) and perm not in search.autos:
            search.autos.append(perm)
        return perm

    gamma = record(search.first)
    if cert < search.best[0]:
        search.best = (cert, position)
    elif search.best is not search.first:
        record(search.best)
    if gamma is not None:
        i = next(j for j, u in enumerate(search.first_path) if u != prefix[j])
        if all(gamma[u] == w for u, w in zip(search.first_path[: i + 1], prefix)):
            return i
    return None


def reference_lattice_key(r, s, t) -> tuple:
    """ord(t) and the least k with t^k = r, with t^k = s and with t^k = rs,
    each None when there is none, from a walk over every power of t."""
    positions = {}
    x = t.group.identity
    while x not in positions:
        positions[x] = len(positions)
        x = x * t
    return (len(positions), positions.get(r), positions.get(s), positions.get(r * s))


def reference_closed_walks(g: Graph, max_length: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """Arc (u, v) -> the numbers of closed non-backtracking walks of lengths
    1..max_length that start along it, by listing every walk."""
    adj = g.adjacency
    out = {}
    for u in range(g.n):
        for v in adj[u]:
            counts = [0] * max_length
            stack = [(u, v, 1)]
            while stack:
                prev, cur, length = stack.pop()
                if cur == u:
                    counts[length - 1] += 1
                if length < max_length:
                    stack.extend((cur, w, length + 1) for w in adj[cur] if w != prev)
            out[(u, v)] = tuple(counts)
    return out


def reference_closed_base_walks(darts, max_length: int) -> tuple[dict, ...]:
    """``census._closed_base_walks`` for the base darts ``darts`` (tail, head,
    reverse dart, voltage step), each walk extended by scanning every dart for
    the ones that leave its head other than its reverse."""
    table = []
    walks = {(d, d, *darts[d][3]): 1 for d in range(len(darts))}
    for _ in range(max_length):
        buckets: dict[tuple, list[int]] = {}
        grown: dict[tuple, int] = {}
        for (first, d, a, b, c), count in walks.items():
            if darts[d][1] == darts[first][0]:
                buckets.setdefault((a, b, c), [0] * len(darts))[first] += count
            for e, (tail, _, _, (da, db, dc)) in enumerate(darts):
                if tail == darts[d][1] and e != darts[d][2]:
                    step = (first, e, (a + da) % 2, (b + db) % 2, c + dc)
                    grown[step] = grown.get(step, 0) + count
        table.append(buckets)
        walks = grown
    return tuple(table)


def reference_theorem_a_scan(max_group_order: int) -> dict:
    """Certificate -> first spec of the Theorem A scan with no reduction.

    Every abelian group up to the bound, every ordered pair of involutions
    (r, s) and every t != 1 with <r, s, t> the whole group, in the order the
    groups, involutions and elements are listed.
    """
    by_cert = {}
    for orders in reference_isomorphism_types(max_group_order):
        group = make_group(orders)
        elems = group.elements()
        involutions = [x for x in elems if not x.is_identity and (x * x).is_identity]
        for r in involutions:
            for s in involutions:
                for t in elems:
                    if t.is_identity:
                        continue
                    if len(subgroup_generated(group, [r, s, t])) != group.size:
                        continue
                    spec = BiCayleySpec.create(group, (r,), (s,), (group.identity, t))
                    by_cert.setdefault(certificate(build(spec).graph), spec)
    return by_cert


def orbits(perms, degree: int) -> list[frozenset[int]]:
    """Orbit partition of 0..degree-1 under the image tuples ``perms``, as a
    list of every point's orbit ordered by least point."""
    out: list[frozenset[int]] = []
    for v in range(degree):
        if any(v in orb for orb in out):
            continue
        orb, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for p in perms:
                if p[u] not in orb:
                    orb.add(p[u])
                    frontier.append(p[u])
        out.append(frozenset(orb))
    return out


def is_semiregular(elements) -> bool:
    """True when no element of the group ``elements`` but the identity fixes a point."""
    return all(
        all(x[v] != v for v in range(len(x))) for x in elements if x != tuple(range(len(x)))
    )


def bicayley_parts(b) -> tuple[frozenset[int], frozenset[int]]:
    """The two parts of a built bi-Cayley graph, from the vertex layout: part i
    holds the ids i*|H| to (i+1)*|H| - 1."""
    size = b.spec.group.size
    return frozenset(range(size)), frozenset(range(size, 2 * size))


def semiregular_with_orbits(elements, parts) -> bool:
    """The group ``elements`` is semiregular with orbit partition exactly ``parts``."""
    want = sorted((frozenset(p) for p in parts), key=min)
    degree = sum(map(len, want))
    return orbits(elements, degree) == want and is_semiregular(elements)


def _mul_close(perms, degree: int, limit: int):
    """Closure under multiplication; None when it exceeds ``limit`` elements."""
    identity = tuple(range(degree))
    closed = {identity}
    closed.update(perms)
    if len(closed) > limit:
        return None
    frontier = list(closed)
    gens = [p for p in perms if p != identity]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = compose(x, s)
            if y not in closed:
                if len(closed) >= limit:
                    return None
                closed.add(y)
                frontier.append(y)
    return closed


def reference_semiregular_members(aut_elements, parts, group) -> list[frozenset]:
    """The element sets of the semiregular subgroups of the group
    ``aut_elements`` isomorphic to ``group``, orbits the parts.

    Breadth-first search of the subgroup lattice: close every subgroup found
    so far with one more candidate (non-identity, fixed-point-free, preserving
    the parts), keep the closures of order |group| made of candidates, then
    keep the abelian ones whose element-order histogram is the group's.
    """
    m = group.size
    part0 = frozenset(parts[0])
    degree = sum(map(len, parts))
    identity = tuple(range(degree))
    candidates = [
        x
        for x in sorted(aut_elements)
        if x != identity
        and all(x[v] != v for v in range(degree))
        and all(x[v] in part0 for v in part0)
    ]
    cand_set = frozenset(candidates)
    start = frozenset({identity})
    seen = {start}
    frontier = [start]
    found = set()
    while frontier:
        cur = frontier.pop()
        for x in candidates:
            if x in cur:
                continue
            closed = _mul_close(cur | {x}, degree, m)
            if closed is None:
                continue
            fs = frozenset(closed)
            if fs in seen:
                continue
            seen.add(fs)
            if any(p not in cand_set for p in fs if p != identity):
                continue
            if len(fs) == m:
                found.add(fs)
            else:
                frontier.append(fs)
    histogram = sorted(element_order(x) for x in group.elements())
    members = []
    for fs in sorted(found, key=sorted):
        elems = sorted(fs)
        if any(compose(a, b) != compose(b, a) for i, a in enumerate(elems) for b in elems[i + 1 :]):
            continue
        if sorted(perm_order(p) for p in fs) == histogram:
            members.append(fs)
    return members


def reference_enumerate_semiregular(group_elements, parts, orders) -> list[frozenset]:
    """``enumerate_semiregular`` on the group ``group_elements``, growing every
    partial subgroup by every candidate generator and building every coset
    before testing it.

    Candidates are the non-identity, fixed-point-free, part-preserving
    elements.  A partial subgroup P grows by a candidate g of order d that
    commutes with the earlier picks when every coset P g^j (0 < j < d) consists
    of candidates; the first tuple reaching each group is kept.
    """
    m = math.prod(orders)
    part0, part1 = (frozenset(p) for p in parts)
    if len(part0) != m or len(part1) != m:
        raise ValueError(
            f"parts of sizes {len(part0)},{len(part1)} cannot be the orbits of an order-{m} group"
        )
    degree = len(part0) + len(part1)
    identity = tuple(range(degree))
    candidates = []
    for x in sorted(group_elements):
        if x == identity:
            continue
        if any(x[v] == v for v in range(degree)):
            continue
        if any(x[v] not in part0 for v in part0):
            continue
        candidates.append(x)
    cand_set = frozenset(candidates)
    cyclic: dict[int, list[tuple[tuple[int, ...], list[tuple[int, ...]]]]] = {}
    for x in candidates:
        d = perm_order(x)
        if d in orders:
            powers = [x]
            while len(powers) < d - 1:
                powers.append(compose(powers[-1], x))
            cyclic.setdefault(d, []).append((x, powers))
    layer = {frozenset({identity}): ()}
    for d in orders:
        if d == 1:
            continue
        grown_layer: dict[frozenset[tuple[int, ...]], tuple[tuple[int, ...], ...]] = {}
        for sub, picks in layer.items():
            for g, powers in cyclic.get(d, ()):
                if any(compose(g, p) != compose(p, g) for p in picks):
                    continue
                grown = set(sub)
                for power in powers:
                    coset = [compose(h, power) for h in sub]
                    if not cand_set.issuperset(coset):
                        break
                    grown.update(coset)
                else:
                    grown_layer.setdefault(frozenset(grown), picks + (g,))
        layer = grown_layer
    return sorted(layer, key=sorted)


def _conjugate(x: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """x^-1 h x."""
    return compose(compose(inverse(x), h), x)


def reference_normalizer(sub, group_elements) -> list[tuple[int, ...]]:
    """Every element x of the group ``group_elements`` with x^-1 sub x = sub,
    for the element set ``sub``, by scanning them all."""
    sub = frozenset(sub)
    return [x for x in sorted(group_elements) if all(_conjugate(x, h) in sub for h in sub)]


def reference_are_conjugate(group_elements, a, b):
    """The first element x of the group ``group_elements`` with x^-1 a x = b,
    for the element sets a and b, or None."""
    b = frozenset(b)
    if len(frozenset(a)) != len(b):
        return None
    for x in sorted(group_elements):
        if all(_conjugate(x, h) in b for h in a):
            return x
    return None


def reference_conjugacy_class_count(group_elements, subs) -> int:
    """Classes of the element sets ``subs`` under conjugation in the group
    ``group_elements``, compared pairwise."""
    classes: list = []
    for sub in subs:
        if all(reference_are_conjugate(group_elements, rep, sub) is None for rep in classes):
            classes.append(sub)
    return len(classes)


def reference_bci_oracle(b) -> tuple[bool, tuple | None]:
    """(is_bci, first counterexample) from every spoke set of the same size.

    A spoke set is a counterexample when its graph is isomorphic to b's but it
    is not h * S^sigma for a translation h and a group automorphism sigma.
    """
    group = b.spec.group
    spokes = b.spec.spokes
    target = certificate(b.graph)
    admissible = set()
    for sigma in _automorphisms(group):
        image = [sigma(s) for s in spokes]
        admissible.update(frozenset(h * x for x in image) for h in group.elements())
    for raw in combinations(group.elements(), len(spokes)):
        if frozenset(raw) in admissible:
            continue
        if _spoke_set_certificate(group, raw) == target:
            return False, tuple(sorted(x.exponents for x in raw))
    return True, None


def reference_first_match(group, k: int, target: str, skip=()):
    """``bci._first_match`` without its component-count filter: the first
    identity-containing k-subset of each Aut(H) x| H class in scan order, past
    the class of ``skip``, is certified whatever its graph's component count."""
    if k == 0:
        return None
    elems, sums, neg = _index_table(group)
    autos = automorphism_group_of(group)
    marked = _identity_translates([elems.index(s) for s in skip], autos, sums, neg)
    for rest in combinations(range(1, group.size), k - 1):
        raw = (0, *rest)
        if frozenset(raw) in marked:
            continue
        marked |= _identity_translates(raw, autos, sums, neg)
        b = build(BiCayleySpec.create(group, (), (), tuple(map(elems.__getitem__, raw))))
        if certificate(b.graph, known_automorphisms(b)) == target:
            return b.spec
    return None


def reference_automorphism_images(group) -> list[tuple]:
    """Every automorphism as its images of the standard generators, in product
    order: the images whose orders divide the factor orders give an
    endomorphism, and an automorphism when they generate the group.  The
    generation test is a closure over positions in ``group.elements()``
    through a sum table filled by the group's own multiplication."""
    elems = group.elements()
    index = {g: i for i, g in enumerate(elems)}
    sums = [[index[g * h] for h in elems] for g in elems]
    one = index[group.identity]

    def generates(gens) -> bool:
        closed, frontier = {one}, [one]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = sums[x][g]
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return len(closed) == len(elems)

    candidates = [
        [i for i, g in enumerate(elems) if d % element_order(g) == 0] for d in group.orders
    ]
    return [
        tuple(elems[i] for i in images) for images in product(*candidates) if generates(images)
    ]


def _extend(group, images):
    """The homomorphism sending the standard generators to ``images``, as a
    function on elements: each exponent vector goes to the product of the
    images' powers."""

    def apply(g):
        acc = group.identity
        for e, img in zip(g.exponents, images):
            acc = acc * img**e
        return acc

    return apply


@lru_cache(maxsize=None)
def _automorphisms(group) -> tuple:
    """Each automorphism as the lookup of its element-to-image table."""
    out = []
    for images in reference_automorphism_images(group):
        phi = _extend(group, images)
        out.append({g: phi(g) for g in group.elements()}.__getitem__)
    return tuple(out)


@lru_cache(maxsize=4096)
def _spoke_set_certificate(group, spokes) -> str:
    # many inputs over one group scan the same spoke sets
    return certificate(build(BiCayleySpec.create(group, (), (), spokes)).graph)


# --- the base-circuit lift criterion -----------------------------------------


@dataclass(frozen=True)
class BaseCircuit:
    """A directed closed walk using exactly one cotree arc, traversed last.

    ``vertices`` lists the walk without repeating the start; the walk begins
    at the smaller endpoint of the cotree edge.
    """

    vertices: tuple[int, ...]
    cotree_arc: tuple[int, int]

    def arcs(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def arc_voltage(va: VoltageAssignment, tail: int, head: int):
    """The voltage on the arc (tail, head); a pair that is not an arc of the
    base graph is a ValueError."""
    if (tail, head) not in va.voltages:
        raise ValueError(f"({tail},{head}) is not an arc of the base graph")
    return va.voltages[(tail, head)]


def cotree_arcs(va: VoltageAssignment, tree) -> list[tuple[int, int]]:
    """One arc (u, v) with u < v per edge outside the spanning tree ``tree``
    (a collection of edges, each in either orientation), sorted."""
    tree = {(min(e), max(e)) for e in tree}
    return sorted((u, v) for u, v in va.base.edges if (u, v) not in tree)


def base_circuits(va: VoltageAssignment, tree) -> list[BaseCircuit]:
    """One directed circuit per edge outside the spanning tree ``tree``: the
    fundamental circuits, which generate the cycle space, so the criterion may
    use any spanning tree.  The count is |E| - |V| + 1."""
    parent = {0: None}
    tree_adj: dict[int, list[int]] = {v: [] for v in range(va.base.n)}
    for u, v in tree:
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in sorted(tree_adj[u]):
            if w not in parent:
                parent[w] = u
                queue.append(w)

    def path_to_root(v: int) -> list[int]:
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    circuits = []
    for u, v in cotree_arcs(va, tree):
        pu = path_to_root(u)
        pv = path_to_root(v)
        shared = None
        pu_set = {x: i for i, x in enumerate(pu)}
        for j, x in enumerate(pv):
            if x in pu_set:
                shared = (pu_set[x], j)
                break
        assert shared is not None
        i, j = shared
        walk = pu[: i + 1] + list(reversed(pv[:j]))
        # walk runs u -> v through the tree; the cotree arc (v, u) closes it
        circuits.append(BaseCircuit(tuple(walk), (v, u)))
    return circuits


def walk_voltage(va: VoltageAssignment, walk):
    """Product of arc voltages along a vertex walk (consecutive adjacency required)."""
    walk = list(walk)
    acc = va.group.identity
    for tail, head in zip(walk, walk[1:]):
        acc = acc * arc_voltage(va, tail, head)
    return acc


def circuit_voltage(va: VoltageAssignment, circuit: BaseCircuit):
    acc = va.group.identity
    for tail, head in circuit.arcs():
        acc = acc * arc_voltage(va, tail, head)
    return acc


def circuit_pairs(va: VoltageAssignment, tree, sigma: tuple[int, ...]) -> list[tuple]:
    """(voltage of each base circuit of ``tree``, voltage of its image walk
    under sigma)."""
    pairs = []
    for c in base_circuits(va, tree):
        image = [sigma[v] for v in c.vertices]
        image.append(image[0])
        pairs.append((circuit_voltage(va, c), walk_voltage(va, image)))
    return pairs


def induced_automorphism(va: VoltageAssignment, lift: tuple[int, ...]):
    """The voltage-group automorphism sigma* a lift induces, as a function on
    elements.  The lift sends (v0, 1) to (sigma(v0), 1), so it sends each
    (v0, g) to (sigma(v0), sigma*(g)): sigma* is read off the images of the
    (v0, g) for the standard generators g and extended multiplicatively."""
    kelems = va.group.elements()
    images = tuple(kelems[lift[kelems.index(g)] - lift[0]] for g in va.group.generators())
    return _extend(va.group, images)


def lift_exists_by_scan(va: VoltageAssignment, tree, sigma: tuple[int, ...]) -> bool:
    """Some voltage-group automorphism maps every base-circuit voltage (over
    the spanning tree ``tree``) onto the voltage of the circuit's image walk:
    sigma lifts (Malnic, Nedela and Skoviera 2000)."""
    pairs = circuit_pairs(va, tree, sigma)
    return any(
        all(phi(z) == y for z, y in pairs) for phi in _automorphisms(va.group)
    )


# --- Smith normal form, quotients and isomorphism types by prime partitions ---


def reference_smith_normal_form(rows: list[list[int]], ncols: int) -> tuple[list[int], list[list[int]]]:
    """The Smith normal form with a separate transform V, each column operation
    applied to the matrix and to V in turn.  For the input matrix A,
    U A V is diagonal for some unimodular U (not tracked), with
    diag[0] | diag[1] | ..., so the lattice spanned by A's rows maps onto the
    one spanned by diag under x -> x V."""
    a = [list(r) for r in rows]
    m = len(a)
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_col(src, dst, c):
        # column dst += c * column src
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]

    t = 0
    while t < min(m, ncols):
        # locate a pivot of minimal absolute value in the remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, ncols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t; restart if a remainder creates a smaller pivot
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce the divisibility chain: a[t][t] must divide the rest
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            add_col(offender[1], t, 1)
            continue
        if a[t][t] < 0:
            for r in a:
                r[t] = -r[t]
            for r in v:
                r[t] = -r[t]
        t += 1

    diag = [a[i][i] if i < m else 0 for i in range(ncols)]
    return diag, v


def reference_quotient(group, gens):
    """H/<gens> in invariant-factor form, largest factor first, and the
    quotient map as a function.  The relation lattice is spanned by the
    factor-order rows and the generators; column i of the Smith transform V
    is the i-th coordinate form, and equal factors keep their column order."""
    k = group.rank
    rows = [[group.orders[i] if j == i else 0 for j in range(k)] for i in range(k)]
    for g in gens:
        if g.group != group:
            raise ValueError(f"generator {g} does not belong to {group}")
        rows.append(list(g.exponents))
    diag, v = reference_smith_normal_form(rows, k)
    kept = sorted(((i, d) for i, d in enumerate(diag) if d > 1), key=lambda t: -t[1]) or [(0, 1)]
    quotient = make_group([d for _, d in kept])

    def image(h):
        return quotient.element(
            tuple(sum(x * v[j][col] for j, x in enumerate(h.exponents)) for col, _ in kept)
        )

    return quotient, image


def _prime_factors(n: int) -> dict[int, int]:
    """Prime -> exponent, by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def reference_isomorphism_types(max_order: int) -> list[tuple[int, ...]]:
    """Invariant-factor tuples of order 2..max_order, built from one partition
    of each prime exponent and sorted by (order, tuple)."""

    def partitions(n: int, cap: int) -> list[list[int]]:
        if n == 0:
            return [[]]
        out = []
        for first in range(min(n, cap), 0, -1):
            for rest in partitions(n - first, first):
                out.append([first] + rest)
        return out

    types: list[tuple[int, ...]] = []
    for n in range(2, max_order + 1):
        per_prime = [
            [(p, part) for part in partitions(e, e)] for p, e in sorted(_prime_factors(n).items())
        ]
        for combo in product(*per_prime):
            # combine prime partitions into invariant factors, largest first
            depth = max(len(part) for _, part in combo)
            types.append(
                tuple(
                    math.prod(p ** part[i] for p, part in combo if i < len(part))
                    for i in range(depth)
                )
            )
    types.sort(key=lambda t: (math.prod(t), t))
    return types


def reference_table1_specs(max_vertices: int) -> list[tuple[int, str, str, int]]:
    """(row, description, spec, expected_k) of every spoke-only census member
    on at most ``max_vertices`` vertices, transcribed row by row: row 1 where
    r > 3 has only prime factors 3 (once) and p = 1 (mod 3), with u the first
    root of u^2 + u + 1 = 0 (mod r) found by scanning; rows 3 and 4 as their
    own groups; rows 2 and 5-7 as a table of spoke exponents."""

    def radical_ok(r: int) -> bool:
        return r > 3 and all(
            e == 1 if p == 3 else p % 3 == 1 for p, e in _prime_factors(r).items()
        )

    def quotient_spokes(order: int, relation: tuple[int, int]) -> tuple:
        square = make_group([order, order])
        quotient, image = reference_quotient(square, [square.element(relation)])
        return quotient, [quotient.identity] + [
            image(square.element(e)) for e in ((1, 0), (0, 1))
        ]

    members = []
    for m in range(1, max_vertices):
        for r in range(4, max_vertices // (2 * m * m) + 1):
            if radical_ok(r) and not (m == 1 and r < 11):
                u = next(u for u in range(r) if (u * u + u + 1) % r == 0)
                group, spokes = quotient_spokes(r * m, ((-m * (u + 1)) % (r * m), m))
                members.append((1, f"row 1, r={r} m={m} u={u}", group, spokes, 1))
    for m in range(2, max_vertices):
        if 2 * m * m <= max_vertices and m != 3:
            square = make_group([m, m])
            spokes = [square.element(e) for e in ((0, 0), (1, 0), (0, 1))]
            members.append((3, f"row 3, m={m}", square, spokes, 2))
        if 6 * m * m <= max_vertices:
            group, spokes = quotient_spokes(3 * m, (m, m))
            members.append((4, f"row 4, m={m}", group, spokes, 2))
    for row, desc, orders, exponents, k in (
        (2, "row 2, Z_8", (8,), (0, 2, 3), 2),
        (5, "row 5, Z_3", (3,), (0, 1, 2), 3),
        (6, "row 6, Z_3^2", (3, 3), ((0, 0), (1, 0), (0, 1)), 3),
        (7, "row 7, Z_7", (7,), (0, 1, 3), 4),
    ):
        group = make_group(orders)
        if 2 * group.size <= max_vertices:
            members.append((row, desc, group, [group.element(e) for e in exponents], k))
    members.sort(key=lambda rec: (rec[0], 2 * rec[2].size, rec[1]))
    return [
        (row, desc, format_spec(BiCayleySpec.create(group, (), (), tuple(spokes))), k)
        for row, desc, group, spokes, k in members
    ]

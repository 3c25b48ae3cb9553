"""Permutation groups and graph symmetry.

A permutation of 0..n-1 is its image tuple p, sending v to p[v]; products act
left to right, so x y = itemgetter(*x)(y) sends v to y[x[v]].  The
automorphism and certificate engine is a backtracking search over
equitable ordered partitions (individualization-refinement, in ``search``).
Its first path is a base and the automorphisms it keeps a strong generating
set for it, so |Aut| is the product of the first-path orbit lengths, and the
kept generators that fix its first vertex w generate Aut_w.  The search may
start from known automorphisms, and ``_analyzed`` adds, as late seeds, the
generators of a cached graph isomorphic to the one searched, found by
certificate: true automorphisms prune soundly, never the best leaf, so the
output is that of an unseeded search, though the generators kept depend on
which isomorphic graph came first.  ``PermGroup`` is that result:
generators and base, with |Aut| computed on first read and membership by
the edge check.  Arc types are read off Aut_w, and the semiregular
candidates off Aut_w and the right translations, so no step lists all of
Aut; Aut_w is listed by closure over its generators.  The semiregular
enumeration refuses an Aut of order above BICAYLEY_MAX_AUT (default
100000).  A subgroup of Aut is its element set; normalizers and conjugacy
come from its orbit under conjugation by Aut's generators, each conjugate
tested through the conjugates of its own generators.
"""

from __future__ import annotations

import os
from array import array
from collections import deque
from math import prod
from operator import itemgetter
from struct import unpack

from bicayley.graphs import Graph, _graph6, is_connected
from bicayley.search import _identity_images, _inverse, _is_automorphism, _orbit, _Search

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
_CACHE_SIZE = 4096
_ANALYZED: dict[Graph, tuple] = {}  # the graphs last analyzed, least recent first
# certificate -> (best-leaf labeling, generators) of a cached graph; see _analyzed
_INDEX: dict[tuple[int, bytes], tuple] = {}


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


def _check_search_bound(n: int, subject: str) -> None:
    """Refuse ``subject``, n vertices or a bound of n, past the search bound."""
    if n > _MAX_SEARCH_VERTICES:
        raise ValueError(f"{subject} exceeds the search bound {_MAX_SEARCH_VERTICES}")


def _analyzed(graph: Graph, known=()) -> tuple[tuple[tuple[int, ...], ...], tuple, tuple]:
    """Automorphism generators, certificate (n and the best leaf's packed
    keys) and the first path, cached on the graph alone: ``known`` seeds only
    a search, so the cached generators are those of the caller that came
    first, while the certificate and the first path, always the leftmost,
    cannot differ.  |Aut| is not computed here: ``PermGroup.order`` reads it
    off the generators and the path on first call, so a ``certificate()``
    alone never pays for it; only ``certificate()`` encodes graph6.

    A search run here is given ``_INDEX``, so it takes the generators of a
    cached graph isomorphic to this one as late seeds, after ``known`` (see
    ``_Search``).  Seeds only prune, so the certificate, first path, |Aut|
    and orbits are those of an unseeded search; the kept generators depend on
    which isomorphic graph came first.  An index entry is made by the first
    graph of its certificate with generators, and leaves the index when that
    graph leaves the cache."""
    result = _ANALYZED.pop(graph, None)
    if result is None:
        _check_search_bound(graph.n, f"graph on {graph.n} vertices")
        search = _Search(graph, known, _INDEX)
        search.run()
        keys, labeling = search.best
        cert = graph.n, keys
        autos = tuple(search.autos)
        result = autos, cert, tuple(search.first_path)
        if autos and cert not in _INDEX:
            # two bytes a vertex: positions are below the search bound, itself below 2**16
            _INDEX[cert] = array("H", labeling), autos
    _ANALYZED[graph] = result  # the most recently used last
    if len(_ANALYZED) > _CACHE_SIZE:
        autos, cert, _ = _ANALYZED.pop(next(iter(_ANALYZED)))
        entry = _INDEX.get(cert)
        if entry is not None and entry[1] is autos:  # the entry this graph made
            del _INDEX[cert]
    return result


def automorphism_group(graph: Graph, known=()) -> PermGroup:
    """Full automorphism group; a search, if one runs, starts from ``known``."""
    autos, _, base = _analyzed(graph, known)
    return PermGroup(graph, autos, base)


def certificate(graph: Graph, known=()) -> str:
    n, keys = _analyzed(graph, known)[1]  # the keys are the relabeled graph's graph6 bits
    return _graph6(n, unpack(">%dI" % (len(keys) // 4), keys))


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


def _conjugates(group: PermGroup, sub, gens=None):
    """The conjugates of the element set ``sub`` in ``group``, and its
    normalizer's generators; ``gens``, if given, generate the subgroup ``sub``.

    Breadth-first search over the element sets x^-1 sub x under the generators
    of ``group``; each conjugate maps to an x reaching it.  By Schreier's lemma
    the elements x s y^-1, for x reaching a conjugate C, s a generator and y
    reaching s^-1 C s, generate the stabilizer of ``sub``: N_group(sub).  A
    conjugate carries the conjugates of ``gens``, which generate it, so
    s^-1 C s = C when C holds their images; only a conjugate that moves is
    conjugated element by element.  Without ``gens`` every element is one, so
    any element set is taken.
    """
    start = frozenset(sub)
    queue = deque([(start, start if gens is None else list(gens))])
    reach = {start: _identity_images(group.degree)}
    schreier = []
    # s^-1 h s sends v to s[h[s^-1[v]]]; x y is itemgetter(*x)(y)
    by_inverse = [(s, itemgetter(*_inverse(s))) for s in group.generators]
    while queue:
        conj, conj_gens = queue.popleft()
        times = itemgetter(*reach[conj])  # times(s) is x s
        for s, inverse_of in by_inverse:
            images = [inverse_of(itemgetter(*h)(s)) for h in conj_gens]
            if conj.issuperset(images):
                image = conj
            elif conj_gens is conj:  # the images are all of s^-1 C s
                image = frozenset(images)
            else:
                image = frozenset(inverse_of(itemgetter(*h)(s)) for h in conj)
            if image in reach:
                schreier.append(itemgetter(*times(s))(_inverse(reach[image])))
            else:
                reach[image] = times(s)
                queue.append((image, image if conj_gens is conj else images))
    return reach, schreier


def normalizer(sub, group: PermGroup) -> list[tuple[int, ...]]:
    """Schreier generators of N_group(sub), for the element set ``sub``."""
    return _conjugates(group, sub)[1]


def _grow(sub, orbit, v0: int, g: tuple[int, ...], d: int, cand_set):
    """<sub, g>, g commuting with sub, if g has order d and every coset
    sub g^j (0 < j < d) is made of candidates, else None.  A g^j mapping v0
    into sub's ``orbit`` of it maps the orbit into itself, so h g^j fixes v0
    for some h in sub: that coset is rejected before any product tuple is
    built.  The coset loop leaves g^d in ``power``, which settles the order.
    ``sub`` and ``cand_set`` may hold keys, the images of one point tuple,
    in place of elements: the key of h g^j is itemgetter(*key of h)(g^j)."""
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
    are image tuples, x y = itemgetter(*x)(y), and the growth works on their
    keys, the images of (w, *base): only the identity fixes a base, so a key
    stands for one element, and the key of h x is itemgetter(*key of h)(x).

    The candidates come without listing the group.  With w = base[0], a
    part-preserving, fixed-point-free element x sends w to some u != w of w's
    part, and so does exactly one t in T other than the identity.  Then
    x t^-1 fixes w, so x = sigma t for one sigma in the stabilizer G_w, which
    is listed by closure.  Such a sigma maps w's part into itself, and
    sigma t fixes v exactly when t sends sigma[v] to v.  Since T is abelian
    and regular on each part, with reference points w and r, the t sending
    a to b sends w to t_b[t_a^-1[w]], where t_a is the t sending w or r to
    a; so the t to skip are read off w's images, and ``translations`` may
    come in any order.
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
    r = next(v for v in identity if v not in part)  # a point of the other part
    back = [0] * group.degree  # back[t_a[w or r]] is t_a^-1[w]
    for t in translations:
        back[t[w]] = back[t[r]] = t.index(w)
    candidates = []
    for sigma in _closure(identity, fixing):
        if part.issuperset(map(sigma.__getitem__, part)):
            fixing_t = {t[back[sigma[t[w]]]] for t in translations}
            fixing_t.update(t[back[sigma[t[r]]]] for t in translations)
            times = itemgetter(*sigma)  # times(t) is sigma t
            candidates += [times(t) for t in translations if t[w] not in fixing_t]
    points = (w, *group.base)  # w twice: a key has two points even for a base of one
    element = {itemgetter(*points)(x): x for x in candidates}  # key -> candidate
    cand_set = frozenset(element)
    # a usable g of order d has a cycle of length exactly d through w (a
    # shorter one makes some g^j, 0 < j < d, fix w, so it is no candidate),
    # so g is only tried for that length; _grow checks that g^d = 1
    cyclic: dict[int, list[tuple]] = {}
    for key, x in element.items():
        d, v = 1, x[w]
        while v != w:
            d, v = d + 1, x[v]
        if d in orders:
            cyclic.setdefault(d, []).append((key, x))
    # partial subgroup (keys) -> the (key, generator) picks first reaching it
    layer: dict[frozenset, tuple] = {frozenset({points}): ()}
    for d in orders:
        if d == 1:
            continue  # the identity generates an order-1 factor
        grown_layer: dict[frozenset, tuple] = {}
        for sub, picks in layer.items():
            orbit = {h[0] for h in sub}
            covered: set[tuple[int, ...]] = set()  # the groups grown from sub so far
            for key, g in cyclic.get(d, ()):
                # g p = p g exactly when their keys agree
                if key in covered or any(
                    itemgetter(*key)(p) != itemgetter(*p_key)(g) for p_key, p in picks
                ):
                    continue
                grown = _grow(sub, orbit, w, g, d, cand_set)
                if grown is not None:
                    covered |= grown
                    grown_layer.setdefault(frozenset(grown), picks + ((key, g),))
        layer = grown_layer
    element[points] = identity
    return sorted((frozenset(map(element.__getitem__, sub)) for sub in layer), key=sorted)


def are_conjugate(group: PermGroup, a, b) -> tuple[int, ...] | None:
    """An element x of ``group`` with x^-1 a x = b, for the element sets a
    and b, or None."""
    return _conjugates(group, a)[0].get(frozenset(b))

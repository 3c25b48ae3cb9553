"""Finite abelian groups as direct products of cyclic factors.

Elements are exponent vectors reduced mod the factor orders.  Quotients are
computed through an integer Smith normal form so that the returned group comes
with an explicit isomorphism, not just an abstract type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian
from math import gcd, lcm, prod

__all__ = [
    "AbelianGroup",
    "GroupElement",
    "Subgroup",
    "GroupAutomorphism",
    "QuotientMap",
    "make_group",
    "element_order",
    "subgroup_generated",
    "quotient_group",
    "automorphism_group_of",
]

# Aut is listed exhaustively: Z_2^4 has 20160 automorphisms, Z_2^5 9999360
_MAX_AUT_ORDER = 16


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups Z_d for d in ``orders``."""

    orders: tuple[int, ...]

    @property
    def size(self) -> int:
        return prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def element(self, exponents) -> "GroupElement":
        if isinstance(exponents, int):
            exponents = (exponents,)
        exponents = tuple(exponents)
        if len(exponents) != len(self.orders):
            raise ValueError(
                f"exponent vector {exponents} has length {len(exponents)}, "
                f"group has rank {len(self.orders)}"
            )
        reduced = tuple(e % d for e, d in zip(exponents, self.orders))
        return GroupElement(self, reduced)

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.orders))

    def generators(self) -> tuple["GroupElement", ...]:
        """Standard generators, one per cyclic factor; order-1 factors give 1."""
        n = len(self.orders)
        return tuple(
            GroupElement(
                self, tuple((1 if j == i else 0) % self.orders[j] for j in range(n))
            )
            for i in range(n)
        )

    def elements(self) -> list["GroupElement"]:
        """All elements in lexicographic exponent order."""
        return [
            GroupElement(self, exps)
            for exps in _cartesian(*(range(d) for d in self.orders))
        ]

    def __repr__(self) -> str:
        return "Z" + "xZ".join(str(d) for d in self.orders)


@dataclass(frozen=True)
class GroupElement:
    """An element of an :class:`AbelianGroup`, stored as a reduced exponent vector."""

    group: AbelianGroup
    exponents: tuple[int, ...]

    def _check_same_group(self, other: "GroupElement") -> None:
        # identity first: the dataclass comparison costs several times more
        if self.group is not other.group and self.group != other.group:
            raise ValueError(f"elements of different groups: {self.group} vs {other.group}")

    # results are reduced in place; AbelianGroup.element checks outside input
    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return GroupElement(
            self.group,
            tuple(
                (a + b) % d
                for a, b, d in zip(self.exponents, other.exponents, self.group.orders)
            ),
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(
            self.group, tuple(-e % d for e, d in zip(self.exponents, self.group.orders))
        )

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(
            self.group, tuple(k * e % d for e, d in zip(self.exponents, self.group.orders))
        )

    @property
    def is_identity(self) -> bool:
        return not any(self.exponents)

    def __lt__(self, other: "GroupElement") -> bool:
        return self.exponents < other.exponents

    def __repr__(self) -> str:
        return f"{self.exponents}"


def make_group(orders) -> AbelianGroup:
    """Build Z_d1 x ... x Z_dk.  The trivial group is make_group([1])."""
    orders = tuple(int(d) for d in orders)
    if not orders:
        raise ValueError("orders must be a nonempty sequence; use [1] for the trivial group")
    for d in orders:
        if d < 1:
            raise ValueError(f"factor order {d} is not a positive integer")
    return AbelianGroup(orders)


def element_order(g: GroupElement) -> int:
    """Multiplicative order, computed per cyclic factor."""
    result = 1
    for e, d in zip(g.exponents, g.group.orders):
        result = lcm(result, d // gcd(d, e))
    return result


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` carrying its full (closed) element set."""

    parent: AbelianGroup
    generators: tuple[GroupElement, ...]
    elements: frozenset[GroupElement]

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def is_whole_group(self) -> bool:
        return len(self.elements) == self.parent.size

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.elements

    def __repr__(self) -> str:
        return f"Subgroup(order {self.size} of {self.parent})"


def subgroup_generated(group: AbelianGroup, gens) -> Subgroup:
    """Closure of ``gens`` under multiplication; in a finite group the
    inverse of g is a power of g, so inversion adds nothing."""
    gens = tuple(gens)
    for g in gens:
        if g.group != group:
            raise ValueError(f"generator {g} does not belong to {group}")
    closed = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g
            if y not in closed:
                closed.add(y)
                frontier.append(y)
    return Subgroup(group, gens, frozenset(closed))


# --- Smith normal form over the integers, tracking the right transform -----


def _smith_normal_form(rows: list[list[int]], ncols: int) -> tuple[list[int], list[list[int]]]:
    """Diagonalize the integer matrix with unimodular row/column operations.

    Returns (diag, V) where V is the ncols x ncols right transform: for the
    input matrix A one has U*A*V diagonal for some unimodular U (not tracked),
    with diag[0] | diag[1] | ... .  The lattice spanned by the rows of A maps
    onto the lattice spanned by diag under x -> x*V.  V starts as the identity
    stacked under A, so every column operation acts on both at once; row
    operations and the pivot search touch A's m rows only.
    """
    m = len(rows)
    a = [list(r) for r in rows] + [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < min(m, ncols):
        # a pivot of minimal absolute value in the remaining block, first in row order
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, ncols) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[t], a[pi] = a[pi], a[t]
        for r in a:
            r[t], r[pj] = r[pj], r[t]
        # clear row and column t; restart if a remainder creates a smaller pivot
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                for r in a:
                    r[j] -= q * r[t]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # enforce the divisibility chain: add the first offending column to column t
        offender = next(
            (j for i in range(t + 1, m) for j in range(t + 1, ncols) if a[i][j] % a[t][t]), None
        )
        if offender is not None:
            for r in a:
                r[t] += r[offender]
            continue
        if a[t][t] < 0:
            for r in a:
                r[t] = -r[t]
        t += 1

    diag = [a[i][i] if i < m else 0 for i in range(ncols)]
    return diag, a[m:]


@dataclass(frozen=True)
class QuotientMap:
    """The map H -> H/<gens> with an explicit coordinate isomorphism."""

    source: AbelianGroup
    quotient: AbelianGroup
    # column i of _transform gives the i-th coordinate form; _kept maps
    # quotient coordinates back to transform columns
    _transform: tuple[tuple[int, ...], ...]
    _kept: tuple[tuple[int, int], ...]  # (column index, modulus) per quotient factor

    def image(self, h: GroupElement) -> GroupElement:
        if h.group != self.source:
            raise ValueError(f"{h} is not an element of {self.source}")
        x = h.exponents
        coords = []
        for col, mod in self._kept:
            s = sum(x[j] * self._transform[j][col] for j in range(len(x)))
            coords.append(s % mod)
        return self.quotient.element(tuple(coords))


def quotient_group(group: AbelianGroup, gens) -> tuple[AbelianGroup, QuotientMap]:
    """H/<gens> as a new group in invariant-factor form, plus the quotient map.

    The relation lattice of H/<gens> in the exponent coordinates is spanned by
    the factor-order rows together with the generators; its Smith normal form
    yields both the abstract type and the change of coordinates.
    """
    k = group.rank
    rows = [[group.orders[i] if j == i else 0 for j in range(k)] for i in range(k)]
    for g in gens:
        if g.group != group:
            raise ValueError(f"generator {g} does not belong to {group}")
        rows.append(list(g.exponents))
    diag, v = _smith_normal_form(rows, k)
    # nontrivial cyclic factors, largest first; the stable sort keeps equal
    # factors in column order
    kept = sorted(((i, d) for i, d in enumerate(diag) if d > 1), key=lambda t: -t[1]) or [(0, 1)]
    q = make_group([d for _, d in kept])
    return q, QuotientMap(group, q, tuple(tuple(r) for r in v), tuple(kept))


@dataclass(frozen=True)
class GroupAutomorphism:
    """An automorphism, stored by its images of the standard generators."""

    group: AbelianGroup
    images: tuple[GroupElement, ...]

    def apply(self, g: GroupElement) -> GroupElement:
        if g.group != self.group:
            raise ValueError(f"{g} is not an element of {self.group}")
        acc = self.group.identity
        for e, img in zip(g.exponents, self.images):
            acc = acc * img**e
        return acc

    def __call__(self, g: GroupElement) -> GroupElement:
        return self.apply(g)

    @property
    def is_identity(self) -> bool:
        return self.images == self.group.generators()


def _shifted(orders: tuple[int, ...], exponents, sign: int = 1) -> list[int]:
    """The index of sign*x + g for each element index x, g with ``exponents``: the
    order of ``group.elements()`` is mixed radix, a product of per-digit terms."""
    terms, stride = [], 1
    for d, c in zip(reversed(orders), reversed(exponents)):
        terms.append([(sign * e + c) % d * stride for e in range(d)])
        stride *= d
    return list(map(sum, _cartesian(*reversed(terms))))


@lru_cache(maxsize=None)
def _index_table(group: AbelianGroup):
    """``group.elements()`` as a tuple, its sum table (``sums[i][j]`` is the
    index of elements i * j) and its negation table; the identity is index 0."""
    elems = tuple(group.elements())
    sums = tuple(tuple(_shifted(group.orders, g.exponents)) for g in elems)
    return elems, sums, tuple(_shifted(group.orders, group.identity.exponents, -1))


@lru_cache(maxsize=None)
def _automorphism_tables(group: AbelianGroup) -> tuple[tuple[int, ...], ...]:
    """Every automorphism as the indices of its images of the elements, by
    exhaustive choice of generator images.

    An endomorphism is determined by images x_i of the standard generators and
    is well-defined iff order(x_i) divides the i-th factor order d_i.  The
    table of the first i factors lists the subgroup P they span, and x_i adds
    a factor d_i, as an automorphism needs, iff no multiple j x_i with
    0 < j < d_i lies in P.  The table of the first i+1 factors then lists the
    cosets P + j x_i, j running fastest as in ``group.elements()``.
    """
    if group.size > _MAX_AUT_ORDER:
        raise ValueError(
            f"group of order {group.size} too large for exhaustive Aut (max {_MAX_AUT_ORDER})"
        )
    elems, sums, _ = _index_table(group)
    candidates = [
        [x for x, g in enumerate(elems) if d % element_order(g) == 0] for d in group.orders
    ]
    result = []

    def extend(i: int, table: list[int]) -> None:
        if i == group.rank:
            result.append(tuple(table))
            return
        d, image = group.orders[i], set(table)
        for x in candidates[i]:
            multiples = [0]
            for _ in range(d - 1):
                multiples.append(sums[multiples[-1]][x])
            if image.isdisjoint(multiples[1:]):
                extend(i + 1, [sums[t][m] for t in table for m in multiples])

    extend(0, [0])
    return tuple(result)


def automorphism_group_of(group: AbelianGroup) -> list[GroupAutomorphism]:
    """Every automorphism, in the order of their generator image tuples."""
    elems = _index_table(group)[0]
    gens = [elems.index(g) for g in group.generators()]
    return [
        GroupAutomorphism(group, tuple(elems[table[i]] for i in gens))
        for table in _automorphism_tables(group)
    ]

"""Finite abelian groups as direct products of cyclic factors.

Elements are exponent vectors reduced mod the factor orders.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product as _cartesian
from math import gcd, lcm, prod

__all__ = [
    "AbelianGroup",
    "GroupElement",
    "make_group",
    "element_order",
    "subgroup_generated",
    "automorphism_group_of",
]

# Aut is listed exhaustively: Z_2^4 has 20160 automorphisms, Z_2^5 9999360
_MAX_AUT_ORDER = 16


class AbelianGroup(namedtuple("AbelianGroup", "orders")):
    """Direct product of cyclic groups Z_d for d in ``orders``."""

    __slots__ = ()

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


class GroupElement(namedtuple("GroupElement", "group exponents")):
    """An element of an :class:`AbelianGroup`, stored as a reduced exponent vector."""

    __slots__ = ()

    def _check_same_group(self, other: "GroupElement") -> None:
        # identity first: it is cheaper than comparing the groups' orders
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


def subgroup_generated(group: AbelianGroup, gens) -> frozenset[GroupElement]:
    """The elements of the subgroup ``gens`` generate: their closure under
    multiplication, since in a finite group the inverse of g is a power of g."""
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
    return frozenset(closed)


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
def automorphism_group_of(group: AbelianGroup) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of ``group``, each as its element-index table: entry
    i is the index in ``group.elements()`` of the image of element i.  They
    come in the product order of the images of the standard generators, the
    first generator's image varying slowest, and are found by exhaustive
    choice of those images.  Groups of order above 16 are refused.

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

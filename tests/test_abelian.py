"""Group arithmetic checked against enumeration oracles and unit-group counts."""

import random
from collections import Counter
from itertools import permutations
from math import prod

import pytest

from _oracles import (
    reference_automorphism_images,
    reference_isomorphism_types,
    reference_smith_normal_form,
)
from bicayley import abelian
from bicayley.abelian import (
    automorphism_group_of,
    element_order,
    make_group,
    quotient_group,
    subgroup_generated,
)
from bicayley.census import table1_instances


def test_make_group_sizes():
    assert make_group([2, 2]).size == 4
    assert make_group([13]).size == 13
    assert make_group([6, 2]).size == 12
    assert make_group([1]).size == 1


def test_make_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([0])
    with pytest.raises(ValueError):
        make_group([3, -1])


def test_abelian_law_and_inverses_exhaustive():
    for orders in ([5], [2, 4], [6, 2], [2, 2, 2]):
        group = make_group(orders)
        elems = group.elements()
        assert len(elems) == group.size == len(set(elems))
        for g in elems:
            assert (g * g.inverse()).is_identity
            assert g * group.identity == g
            for h in elems:
                assert g * h == h * g


def test_power_matches_repeated_multiplication():
    rng = random.Random(41)
    group = make_group([12, 2])
    for _ in range(50):
        g = group.element((rng.randrange(12), rng.randrange(2)))
        k = rng.randrange(30)
        acc = group.identity
        for _ in range(k):
            acc = acc * g
        assert g**k == acc
    g = group.element((5, 1))
    assert g**-1 == g.inverse()


def test_element_order_by_repeated_multiplication():
    for orders in ([8], [6, 2], [4, 3]):
        group = make_group(orders)
        for g in group.elements():
            acc = g
            n = 1
            while not acc.is_identity:
                acc = acc * g
                n += 1
            assert element_order(g) == n
            assert group.size % n == 0
    z62 = make_group([6, 2])
    assert element_order(z62.element((3, 1))) == 2
    assert element_order(make_group([8]).identity) == 1


def test_elements_of_different_groups_do_not_mix():
    a = make_group([4]).element(1)
    b = make_group([5]).element(1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        make_group([4]).element((1, 2))


def test_generators_span_and_respect_factor_orders():
    for orders in ([5], [6, 2], [1], [1, 5], [2, 1, 3]):
        group = make_group(orders)
        gens = group.generators()
        assert len(gens) == len(orders)
        assert subgroup_generated(group, gens).is_whole_group
        # an order-1 factor contributes the identity, not a stray exponent
        for g, d in zip(gens, orders):
            assert element_order(g) == d


def test_subgroup_closure_matches_naive_iteration():
    rng = random.Random(7)
    for _ in range(25):
        orders = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
        group = make_group(orders)
        gens = [
            group.element(tuple(rng.randrange(d) for d in orders))
            for _ in range(rng.randint(0, 3))
        ]
        sub = subgroup_generated(group, gens)
        reach = {group.identity}
        changed = True
        while changed:
            changed = False
            for x in list(reach):
                for s in gens:
                    for y in (x * s, x * s.inverse()):
                        if y not in reach:
                            reach.add(y)
                            changed = True
        assert sub.elements == frozenset(reach)
        assert group.size % sub.size == 0
        for x in sub.elements:
            assert x.inverse() in sub


def test_subgroup_known_cases():
    z5 = make_group([5])
    assert subgroup_generated(z5, []).size == 1
    z13 = make_group([13])
    a = z13.element(1)
    assert subgroup_generated(z13, [a, a**4]).is_whole_group
    klein = make_group([2, 2])
    assert subgroup_generated(
        klein, [klein.element((1, 0)), klein.element((0, 1))]
    ).is_whole_group
    with pytest.raises(ValueError):
        subgroup_generated(z5, [z13.element(1)])


def test_invariant_factors_frozen_cases():
    cases = {
        (6, 2): (6, 2),
        (2, 6): (6, 2),
        (4, 6): (12, 2),
        (2, 3, 5): (30,),
        (8, 12, 18): (72, 12, 2),
        (1,): (1,),
        (5, 1): (5,),
    }
    for orders, expected in cases.items():
        got = quotient_group(make_group(orders), [])[0].orders
        assert got == expected
        assert prod(got) == prod(orders)
        for a, b in zip(got, got[1:]):
            assert a % b == 0


def test_invariant_factors_preserve_order_statistics():
    rng = random.Random(3)
    for _ in range(20):
        orders = [rng.choice([2, 3, 4, 5, 6, 9]) for _ in range(rng.randint(1, 3))]
        group = make_group(orders)
        canonical = make_group(quotient_group(group, [])[0].orders)
        assert Counter(element_order(x) for x in group.elements()) == Counter(
            element_order(x) for x in canonical.elements()
        )


def test_quotient_map_is_surjective_homomorphism():
    rng = random.Random(11)
    for _ in range(20):
        orders = [rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3))]
        group = make_group(orders)
        gens = [
            group.element(tuple(rng.randrange(d) for d in orders))
            for _ in range(rng.randint(0, 2))
        ]
        kernel = subgroup_generated(group, gens)
        quotient, qmap = quotient_group(group, gens)
        assert quotient.size * kernel.size == group.size
        elems = group.elements()
        sample = rng.sample(elems, min(10, len(elems)))
        for g in sample:
            for h in sample:
                assert qmap.image(g * h) == qmap.image(g) * qmap.image(h)
        for k in kernel.elements:
            assert qmap.image(k).is_identity
        fibers = Counter(qmap.image(g) for g in elems)
        assert set(fibers) == set(quotient.elements())
        assert set(fibers.values()) == {kernel.size}


def test_quotient_known_cases():
    z4 = make_group([4])
    q, _ = quotient_group(z4, [z4.element(2)])
    assert q.size == 2
    # the order-3 subgroup of Z_6 x Z_2 leaves the Klein four-group
    z62 = make_group([6, 2])
    q, _ = quotient_group(z62, [z62.element((2, 0))])
    assert q.orders == (2, 2)
    q, _ = quotient_group(z62, [])
    assert q.orders == (6, 2)
    with pytest.raises(ValueError, match="does not belong"):
        quotient_group(z4, [z62.element((1, 0))])


def test_automorphism_counts_match_known_values():
    expected = {
        (2,): 1,
        (7,): 6,
        (8,): 4,
        (12,): 4,
        (2, 2): 6,
        (3, 3): 48,
        (4, 2): 8,
    }
    for orders, count in expected.items():
        assert len(automorphism_group_of(make_group(orders))) == count


def test_automorphisms_of_klein_by_exhaustive_bijections():
    group = make_group([2, 2])
    elems = group.elements()
    count = 0
    for images in permutations(elems):
        table = dict(zip(elems, images))
        if all(table[g * h] == table[g] * table[h] for g in elems for h in elems):
            count += 1
    assert count == len(automorphism_group_of(group)) == 6


def test_automorphism_entries_are_bijective_and_compose():
    group = make_group([4, 2])
    autos = automorphism_group_of(group)
    elems = group.elements()
    tables = {tuple(a(g) for g in elems) for a in autos}
    assert len(tables) == len(autos)
    for a in autos:
        assert a(group.identity).is_identity
        assert len({a(g) for g in elems}) == group.size
    for a in autos[:4]:
        for b in autos[:4]:
            assert tuple(b(a(g)) for g in elems) in tables


def test_automorphism_bound_is_enforced():
    with pytest.raises(ValueError, match="max 16"):
        automorphism_group_of(make_group([17]))
    assert len(automorphism_group_of(make_group([16]))) == 8  # phi(16): the bound is inclusive


def test_automorphisms_of_z2_to_the_fifth_are_refused():
    # |GL(5,2)| = 9999360 automorphisms: the listing is refused before it starts
    with pytest.raises(ValueError, match="too large for exhaustive Aut"):
        automorphism_group_of(make_group([2, 2, 2, 2, 2]))


def test_smith_normal_form_matches_reference_on_random_matrices():
    rng = random.Random(13)
    for _ in range(3000):
        ncols = rng.randint(1, 4)
        nrows = rng.randint(1, ncols + 3)
        rows = [[rng.randint(-12, 12) for _ in range(ncols)] for _ in range(nrows)]
        want = reference_smith_normal_form(rows, ncols)
        assert abelian._smith_normal_form(rows, ncols) == want, rows


def test_smith_normal_form_matches_reference_on_census_relations(monkeypatch):
    # every row but row 2 is a quotient (Z_rm x Z_rm)/<relation>; the
    # transform V fixes the census coordinates of its spokes
    calls = []
    fast = abelian._smith_normal_form

    def recorded(rows, ncols):
        calls.append(([list(r) for r in rows], ncols))
        return fast(rows, ncols)

    monkeypatch.setattr(abelian, "_smith_normal_form", recorded)
    quotient_rows = [inst for inst in table1_instances(512) if inst.row != 2]
    assert len(calls) == len(quotient_rows) == 85
    for rows, ncols in calls:
        assert fast(rows, ncols) == reference_smith_normal_form(rows, ncols), rows


def test_automorphisms_match_generating_image_tuples():
    # the same list in the product order of the generator image candidates
    for orders in reference_isomorphism_types(16):
        if orders == (2, 2, 2, 2):
            continue  # 65,536 closures in the reference; checked below instead
        group = make_group(orders)
        want = reference_automorphism_images(group)
        assert [a.images for a in automorphism_group_of(group)] == want, orders

    group = make_group([2, 2, 2, 2])
    autos = automorphism_group_of(group)
    assert len(autos) == 20160  # |GL(4, 2)|

    def mask(g):  # the element's index in group.elements()
        return int("".join(map(str, g.exponents)), 2)

    # each automorphism's images of the elements in mask order
    tables = []
    for a in autos:
        table = [0]
        for x in a.images:
            table = [t ^ m for t in table for m in (0, mask(x))]
        assert sorted(table) == list(range(16))
        tables.append(tuple(table))
    known = set(tables)
    assert len(known) == len(autos)
    elems = group.elements()
    for a, table in zip(autos[::997], tables[::997]):
        assert [mask(a(g)) for g in elems] == list(table)
    for a in tables[:20]:
        for b in tables[::1000]:
            assert tuple(b[i] for i in a) in known

"""Groups and subgroups against exhaustive oracles."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit.groups import all_subgroups, conjugating_element, cyclic_group, \
    dihedral_group, direct_product, group_from_generators, group_from_table, \
    klein_four_group, make_group, subgroup, symmetric_group, \
    trivial_subgroup, full_subgroup


def brute_force_subgroups(g):
    """Every subset that is closed under product and inverse and has 0."""
    els = list(g.elements())
    found = []
    for r in range(1, g.order + 1):
        for combo in combinations(els, r):
            s = set(combo)
            if 0 not in s:
                continue
            if all(g.mult[x][y] in s for x in s for y in s) \
                    and all(g.inv[x] in s for x in s):
                found.append(tuple(sorted(s)))
    return sorted(found, key=lambda t: (len(t), t))


def brute_force_closure(perms):
    degree = len(perms[0])
    els = {tuple(range(degree))} | {tuple(p) for p in perms}
    changed = True
    while changed:
        changed = False
        for a in list(els):
            for b in list(els):
                c = tuple(a[b[i]] for i in range(degree))
                if c not in els:
                    els.add(c)
                    changed = True
    return els


def test_make_group_trivial_table():
    g = make_group([[0]])
    assert g.order == 1


def test_make_group_c2_from_generator():
    g = make_group({"degree": 2, "generators": [[1, 0]]})
    assert g.order == 2
    assert g.mult[1][1] == 0


def test_make_group_s3_from_generators_matches_brute_force():
    gens = [(1, 0, 2), (1, 2, 0)]
    g = group_from_generators(gens)
    assert g.order == len(brute_force_closure([list(p) for p in gens])) == 6


def test_make_group_rejects_bad_tables():
    with pytest.raises(ValueError):
        group_from_table([[0, 1], [1, 1]])  # not a two-sided inverse setup
    with pytest.raises(ValueError):
        group_from_table([[1, 0], [0, 1]])  # 0 not the identity
    # non-associative latin square (order 5 loop)
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError):
        group_from_table(loop)


def test_generator_closure_bound():
    with pytest.raises(ValueError):
        group_from_generators([[1, 2, 3, 4, 0]], max_order=3)


def test_associativity_exhaustive_for_stock_groups():
    for g in (cyclic_group(4), symmetric_group(3), dihedral_group(4)):
        for x in g.elements():
            for y in g.elements():
                for z in g.elements():
                    assert g.mult[g.mult[x][y]][z] == g.mult[x][g.mult[y][z]]


def groups_up_to_order_12():
    """Every group of order at most 12 that the suite builds, each table once."""
    small = [cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3),
             dihedral_group(4), klein_four_group()]
    groups = [*(cyclic_group(n) for n in range(1, 13)),
              *(symmetric_group(n) for n in range(1, 4)),
              *(dihedral_group(n) for n in range(2, 7)),
              group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4"),
              *(direct_product(a, b) for a in small for b in small
                if a.order * b.order <= 12)]
    return list(dict.fromkeys(groups))


SMALL_GROUPS = groups_up_to_order_12()


def power(g, k):
    """The direct product of k copies of g."""
    out = cyclic_group(1)
    for _ in range(k):
        out = direct_product(out, g)
    return out


@pytest.mark.parametrize("maker", [
    lambda: cyclic_group(1),
    lambda: cyclic_group(2),
    lambda: cyclic_group(4),
    lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    lambda: symmetric_group(3),
    lambda: dihedral_group(4),
    lambda: cyclic_group(6),
    lambda: cyclic_group(12),
    lambda: group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4"),
    *(pytest.param(lambda g=g: g, id=repr(g)) for g in SMALL_GROUPS),
])
def test_all_subgroups_matches_brute_force(maker):
    g = maker()
    got = [h.members for h in all_subgroups(g)]
    assert got == brute_force_subgroups(g)
    assert got[0] == (0,)
    assert got[-1] == tuple(g.elements())
    assert len(set(got)) == len(got)


def test_all_subgroups_counts():
    assert len(all_subgroups(cyclic_group(1))) == 1
    assert len(all_subgroups(cyclic_group(2))) == 2
    sizes = sorted(len(h.members) for h in all_subgroups(symmetric_group(3)))
    assert sizes == [1, 2, 2, 2, 3, 6]
    assert len(all_subgroups(dihedral_group(4))) == 10


def test_small_groups_include_the_named_ones():
    tables = {g.mult for g in SMALL_GROUPS}
    assert direct_product(cyclic_group(2), cyclic_group(4)).mult in tables
    assert direct_product(klein_four_group(), cyclic_group(2)).mult in tables


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("k,count", enumerate([1, 2, 5, 16, 67, 374, 2825]))
def test_elementary_abelian_2_groups_have_gaussian_binomial_counts(k, count):
    # the sum over d of the Gaussian binomials [k choose d] at q = 2
    assert len(all_subgroups(power(cyclic_group(2), k))) == count


def test_closed_form_counts():
    assert len(all_subgroups(power(cyclic_group(3), 3))) == 28  # 1 + 13 + 13 + 1
    for n in range(3, 33):  # dihedral_group(2) acts on two vertices: it is C2
        # D_n: a cyclic subgroup per divisor d of n, and n/d dihedral ones of order 2d
        subs = all_subgroups(dihedral_group(n))
        assert len(subs) == len(divisors(n)) + sum(divisors(n)), n
    assert len(subs) == 69


@settings(max_examples=40, deadline=None)
@given(g=st.sampled_from([symmetric_group(3), dihedral_group(4), dihedral_group(6),
                          group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4"),
                          direct_product(cyclic_group(2), cyclic_group(4)),
                          direct_product(cyclic_group(2), symmetric_group(3))]),
       data=st.data())
def test_relabelling_the_elements_relabels_the_lattice(g, data):
    perm = [0] + data.draw(st.permutations(range(1, g.order)))
    table = [[0] * g.order for _ in g.elements()]
    for x in g.elements():
        for y in g.elements():
            table[perm[x]][perm[y]] = perm[g.mult[x][y]]
    subs = all_subgroups(g)
    relabelled = all_subgroups(group_from_table(table))
    assert sorted(h.order for h in relabelled) == sorted(h.order for h in subs)
    assert {frozenset(h.members) for h in relabelled} == \
        {frozenset(perm[x] for x in h.members) for h in subs}


def test_all_subgroups_bound():
    with pytest.raises(ValueError):
        all_subgroups(cyclic_group(4), max_order=3)


def test_subgroup_validation():
    g = symmetric_group(3)
    with pytest.raises(ValueError):
        subgroup(g, [1])  # missing identity
    with pytest.raises(ValueError):
        subgroup(g, [0, 1, 2])  # probably not closed
    assert subgroup(g, range(6)).members == tuple(range(6))


def test_conjugating_element_identity_and_missing(c2=None):
    g = cyclic_group(2)
    h = full_subgroup(g)
    assert conjugating_element(h, h) == 0
    assert conjugating_element(h, trivial_subgroup(g)) is None


def alternating_group_4():
    return group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4")


COSET_GROUPS = [cyclic_group(n) for n in range(2, 9)] + [
    symmetric_group(3), dihedral_group(4), alternating_group_4(),
    direct_product(cyclic_group(2), cyclic_group(4)), symmetric_group(4)]


@pytest.mark.parametrize("g", COSET_GROUPS, ids=repr)
def test_coset_table_matches_brute_force(g):
    for h in all_subgroups(g):
        brute = {frozenset(g.mult[a][x] for x in h.members) for a in g.elements()}
        reps, index = h.cosets
        got = [frozenset(a for a in g.elements() if index[a] == i)
               for i in range(len(reps))]
        assert set(got) == brute and len(got) == len(brute)
        assert list(reps) == sorted(min(c) for c in brute)
        for a in g.elements():
            assert reps[index[a]] == min(g.mult[a][x] for x in h.members)


def test_equal_groups_built_apart_hash_alike():
    g = cyclic_group(4)
    other = group_from_table([list(row) for row in g.mult], "another name")
    assert other is not g and other == g and hash(other) == hash(g)
    assert {g: "c4"}[other] == "c4"
    assert {subgroup(g, [0, 2]): "c2"}[subgroup(other, [0, 2])] == "c2"
    assert len({g, other, cyclic_group(5)}) == 2


def test_conjugating_element_matches_brute_force():
    # the least lawful element of all of G, against a scan of K's coset reps
    for g in COSET_GROUPS[-5:]:
        subs = all_subgroups(g)
        for h in subs:
            for k in subs:
                got = conjugating_element(h, k)
                brute = [a for a in g.elements()
                         if all(g.conjugate(a, x) in set(k.members)
                                for x in h.members)]
                if brute:
                    assert got == brute[0]
                else:
                    assert got is None


def test_conjugating_element_in_s3_between_transpositions():
    g = symmetric_group(3)
    subs = all_subgroups(g)
    order2 = [h for h in subs if len(h.members) == 2]
    assert len(order2) == 3
    a = conjugating_element(order2[0], order2[1])
    assert a is not None


def test_conjugating_element_rejects_mixed_parents():
    with pytest.raises(ValueError):
        conjugating_element(trivial_subgroup(cyclic_group(2)),
                            trivial_subgroup(cyclic_group(3)))


def test_left_cosets_order_and_sizes():
    g = symmetric_group(3)
    h = next(h for h in all_subgroups(g) if len(h.members) == 2)
    reps, index = h.cosets
    cosets = [tuple(a for a in g.elements() if index[a] == i) for i in range(len(reps))]
    assert len(cosets) == 3 and all(len(c) == 2 for c in cosets)
    assert cosets[0][0] == 0
    assert [c[0] for c in cosets] == list(reps) == sorted(reps)
    assert sorted(x for c in cosets for x in c) == list(g.elements())


@pytest.mark.parametrize("g", [cyclic_group(4), symmetric_group(3), dihedral_group(4),
                               direct_product(cyclic_group(2), cyclic_group(4))],
                         ids=["C4", "S3", "D4", "C2xC4"])
def test_subgroup_generators_generate_it_greedily(g):
    for h in all_subgroups(g):
        gens = h.generators
        assert h.generators is gens  # computed once
        assert set(gens) <= set(h.members) and 0 not in gens
        assert list(gens) == sorted(gens)
        # each one lies outside the span of those before it, and all span h
        for t, x in enumerate(gens):
            assert x not in subgroup_span(g, gens[:t])
        assert subgroup_span(g, gens) == set(h.members)
    assert full_subgroup(g).generators == g.generators


def subgroup_span(g, gens):
    """Naive closure of gens (and 0) under the product."""
    span = {0, *gens}
    while True:
        new = {g.mult[a][b] for a in span for b in span} - span
        if not new:
            return span
        span |= new

"""Groups and subgroups against exhaustive oracles."""

from itertools import combinations

import pytest

from orbitkit.groups import all_subgroups, conjugating_element, cyclic_group, \
    dihedral_group, direct_product, group_from_generators, group_from_table, \
    left_cosets, make_group, subgroup, symmetric_group, trivial_subgroup, \
    full_subgroup


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
        assert left_cosets(g, h) == [tuple(sorted(c)) for c in got]


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
    cosets = left_cosets(g, h)
    assert len(cosets) == 3
    assert cosets[0][0] == 0
    reps = [c[0] for c in cosets]
    assert reps == sorted(reps)
    assert sorted(x for c in cosets for x in c) == list(g.elements())


def test_subgroup_conjugated_by():
    g = symmetric_group(3)
    h = next(h for h in all_subgroups(g) if len(h.members) == 2)
    for a in g.elements():
        hc = h.conjugated_by(a)
        assert len(hc.members) == 2
        assert 0 in hc.members

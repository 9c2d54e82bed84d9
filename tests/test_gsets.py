"""G-sets: representability of fixed points, orbits, products."""

from itertools import product as iproduct

import pytest

from orbitkit.groups import all_subgroups, cyclic_group, subgroup, \
    symmetric_group, trivial_subgroup, full_subgroup
from orbitkit.gsets import coset_gset, equivariant_maps, make_gmap, \
    make_gset, orbit_analysis, product_gset, regular_gset, \
    stabilizer, trivial_gset


def brute_force_gmaps(source, target):
    """All equivariant maps by filtering every assignment."""
    out = []
    for values in iproduct(range(target.size), repeat=source.size):
        ok = all(values[source.act[g][x]] == target.act[g][values[x]]
                 for g in source.group.elements() for x in range(source.size))
        if ok:
            out.append(values)
    return sorted(out)


def test_coset_gset_one_point():
    g = cyclic_group(2)
    x = coset_gset(g, full_subgroup(g))
    assert x.size == 1
    assert x.act[1] == (0,)


def test_coset_gset_regular():
    g = cyclic_group(2)
    x = coset_gset(g, trivial_subgroup(g))
    assert x.size == 2
    assert x.act[1] == (1, 0)


def test_coset_gset_s3_transposition():
    g = symmetric_group(3)
    h = next(h for h in all_subgroups(g) if len(h.members) == 2)
    x = coset_gset(g, h)
    assert x.size == 3
    # translation action verified pointwise against coset arithmetic
    cosets = [tuple(sorted(g.mult[a][x_] for x_ in h.members)) for a in h.cosets.reps]
    index = {c: i for i, c in enumerate(cosets)}
    for a in g.elements():
        for i, c in enumerate(cosets):
            moved = tuple(sorted(g.mult[a][x_] for x_ in c))
            assert x.act[a][i] == index[moved]


def test_coset_gset_rejects_foreign_subgroup():
    with pytest.raises(ValueError):
        coset_gset(cyclic_group(2), trivial_subgroup(cyclic_group(3)))


def test_orbit_analysis_trivial_action():
    g = cyclic_group(2)
    x = trivial_gset(g, 3)
    rep = orbit_analysis(x, full_subgroup(g))
    assert len(rep.orbits) == 3
    assert rep.fixed == (0, 1, 2)
    assert all(o.stabilizer.members == (0, 1) for o in rep.orbits)


def test_orbit_analysis_free_orbit_has_no_fixed_points():
    g = cyclic_group(2)
    x = regular_gset(g)
    rep = orbit_analysis(x, full_subgroup(g))
    assert rep.fixed == ()
    assert len(rep.orbits) == 1
    assert rep.orbits[0].stabilizer.members == (0,)


def test_orbit_analysis_s3_coset_fixture():
    g = symmetric_group(3)
    h = next(h for h in all_subgroups(g) if len(h.members) == 2)
    x = coset_gset(g, h)
    rep = orbit_analysis(x, h)
    # exactly the base coset is H-fixed
    assert rep.fixed == (0,)


def test_orbit_analysis_stabilizers_are_full_group_even_for_proper_h():
    g = symmetric_group(3)
    h = trivial_subgroup(g)
    x = coset_gset(g, next(s for s in all_subgroups(g) if len(s.members) == 2))
    rep = orbit_analysis(x, h)
    assert len(rep.orbits) == 1
    assert len(rep.orbits[0].stabilizer.members) == 2


def test_equivariant_maps_from_one_point_orbit():
    g = cyclic_group(2)
    x = trivial_gset(g, 2)
    maps = equivariant_maps(coset_gset(g, full_subgroup(g)), x)
    assert len(maps) == 2


def test_equivariant_maps_regular_to_regular():
    g = cyclic_group(2)
    reg = regular_gset(g)
    maps = equivariant_maps(reg, reg)
    assert len(maps) == 2
    assert sorted(m.values for m in maps) == brute_force_gmaps(reg, reg)


def test_equivariant_maps_none_without_fixed_points():
    g = cyclic_group(2)
    maps = equivariant_maps(coset_gset(g, full_subgroup(g)), regular_gset(g))
    assert maps == []


def test_equivariant_maps_requires_transitive_source():
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        equivariant_maps(trivial_gset(g, 2), trivial_gset(g, 1))


def test_representability_against_brute_force():
    """|maps(G/H, X)| = |X^H| with evaluation a bijection, exhaustively."""
    groups = [cyclic_group(2), cyclic_group(4), symmetric_group(3)]
    for g in groups:
        targets = [trivial_gset(g, 2), regular_gset(g)]
        targets += [coset_gset(g, h) for h in all_subgroups(g)]
        for h in all_subgroups(g):
            src = coset_gset(g, h)
            for tgt in targets:
                if tgt.size > 6:
                    continue
                maps = equivariant_maps(src, tgt)
                fixed = orbit_analysis(tgt, h).fixed
                assert len(maps) == len(fixed)
                assert sorted(m.values[0] for m in maps) == sorted(fixed)
                assert sorted(m.values for m in maps) == brute_force_gmaps(src, tgt)


def test_fixed_points_commute_with_products():
    import random
    rng = random.Random(5)
    g = symmetric_group(3)
    subs = all_subgroups(g)
    pool = [coset_gset(g, h) for h in subs] + [trivial_gset(g, 2)]
    for _ in range(10):
        x = rng.choice(pool)
        y = rng.choice(pool)
        p = product_gset(x, y)
        for h in subs:
            fx = orbit_analysis(x, h).fixed
            fy = orbit_analysis(y, h).fixed
            fp = orbit_analysis(p, h).fixed
            expect = sorted(a * y.size + b for a in fx for b in fy)
            assert sorted(fp) == expect


def test_make_gset_validation():
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        make_gset(g, [[0, 1]])  # missing element action
    with pytest.raises(ValueError):
        make_gset(g, [[0, 1], [0, 0]])  # not a permutation
    with pytest.raises(ValueError):
        make_gset(g, [[1, 0], [0, 1]])  # identity must act trivially
    c4 = cyclic_group(4)
    with pytest.raises(ValueError):
        # g*g should act as act[g] twice; here act[2] disagrees
        make_gset(c4, [[0, 1, 2], [1, 0, 2], [1, 0, 2], [0, 1, 2]])


def test_gmap_validation():
    g = cyclic_group(2)
    reg = regular_gset(g)
    triv = trivial_gset(g, 1)
    m = make_gmap(reg, triv, [0, 0])
    assert m(1) == 0
    with pytest.raises(ValueError):
        make_gmap(triv, reg, [0])  # no fixed point in the target


def test_gset_json_roundtrip():
    from orbitkit.jsonio import load_gset
    g = symmetric_group(3)
    x = coset_gset(g, next(h for h in all_subgroups(g) if len(h.members) == 2))
    data = {"size": x.size, "action": {str(a): list(x.act[a]) for a in g.elements()}}
    again = load_gset(data, g)
    assert again == x

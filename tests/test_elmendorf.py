"""Orbit diagrams and the fixed-point adjunction, with enumeration oracles."""

from itertools import product as iproduct

import pytest

from conftest import swap_boundary1, vee, with_trivial_action
from orbitkit import chains, elmendorf
from orbitkit.chains import concentrated, homology, invariants, \
    normalized_chains
from orbitkit.elmendorf import ChainCat, FinSSetCat, FinSetCat, \
    FinSetObj, OrbitDiagram, VMap, adjunction_check, arrow_poset_census, \
    cellularity_report, free_cell_diagram, i_lower, i_upper, unit_maps
from orbitkit.groups import all_subgroups, cyclic_group, full_subgroup, \
    subgroup, symmetric_group, trivial_subgroup
from orbitkit.errors import InternalError
from orbitkit.gsets import coset_gset, make_gset, regular_gset, trivial_gset
from orbitkit.orbitcat import build_orbit_category
from orbitkit.rings import PrimeField, QQ, ZZ
from orbitkit.simplicial import boundary_simplex, gtensor, standard_simplex


@pytest.fixture(scope="module")
def c2cat():
    g = cyclic_group(2)
    return g, build_orbit_category(g, all_subgroups(g))


# ---------------------------------------------------------------------------
# i_upper / i_lower


def test_i_upper_constant_diagram_gives_trivial_action(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    v = ("x", "y")
    values = {0: v, 1: v}
    ident = VMap.make(v, v, {"x": "x", "y": "y"})
    maps = {key: ident for key in
            [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0)]}
    t = OrbitDiagram(cat, vc, values, maps)
    x = i_upper(t)
    assert x.gset.act[1] == (0, 1)


def test_i_upper_free_cell_is_regular(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    t = free_cell_diagram(cat, trivial_subgroup(g), ("*",), vc)
    x = i_upper(t)
    assert x.gset.size == 2
    assert x.gset.act[1][0] == 1  # the two copies are swapped


def test_i_upper_needs_trivial_subgroup():
    g = cyclic_group(2)
    cat = build_orbit_category(g, [full_subgroup(g)])
    vc = FinSetCat()
    t = free_cell_diagram(cat, full_subgroup(g), ("*",), vc)
    with pytest.raises(ValueError, match="trivial"):
        i_upper(t)


def test_i_lower_trivial_action_constant(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    x = FinSetObj.plain(trivial_gset(g, 3))
    d = i_lower(x, cat, vc)
    assert len(d.values[0]) == 3 and len(d.values[1]) == 3
    for key, m in d.maps.items():
        assert m.as_dict() == {l: l for l in m.source}


def test_i_lower_regular_set(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    x = FinSetObj.plain(regular_gset(g))
    d = i_lower(x, cat, vc)
    assert len(d.values[0]) == 2  # at G/e
    assert len(d.values[1]) == 0  # at G/C2


def test_i_lower_chain_regular(c2cat):
    g, cat = c2cat
    cc = ChainCat(ZZ)
    x = normalized_chains(swap_boundary1(g), ZZ)
    d = i_lower(x, cat, cc)
    assert d.values[0].ranks == (2,)
    assert d.values[1].ranks == (1,)


def structure_map_cases(g, cat):
    """(value category, G-object) pairs with varied fixed points on g."""
    cosets = [coset_gset(g, k) for k in cat.family]
    cases = [(FinSetCat(), FinSetObj.plain(c)) for c in cosets]
    cases += [(FinSSetCat(), gtensor(c, standard_simplex(1))) for c in cosets]
    for r in (ZZ, PrimeField(2)):
        vc = ChainCat(r)
        cases += [(vc, normalized_chains(gtensor(c, standard_simplex(1)), r))
                  for c in cosets]
        # a matrix action, as i_upper builds it
        cases.append((vc, i_upper(free_cell_diagram(
            cat, cat.family[0], concentrated(r, 0), vc))))
    return cases


@pytest.mark.parametrize("g", [cyclic_group(2), cyclic_group(4), symmetric_group(3)],
                         ids=["C2", "C4", "S3"])
def test_i_lower_structure_maps_are_restricted_translations(g):
    """fixed(x, H) o T(R_a) = a o fixed(x, K) for every R_a: G/H -> G/K."""
    cat = build_orbit_category(g, all_subgroups(g))
    for vc, x in structure_map_cases(g, cat):
        t = i_lower(x, cat, vc)
        for m in cat.all_morphisms():
            lhs = vc.compose(vc.fixed(x, m.source), t.structure_map(m))
            rhs = vc.compose(vc.action_as_map(x, m.rep), vc.fixed(x, m.target))
            assert vc.maps_equal(lhs, rhs), (vc, m)


def test_i_lower_takes_invariants_once_per_object(monkeypatch):
    g = cyclic_group(4)
    cat = build_orbit_category(g, all_subgroups(g))
    x = normalized_chains(gtensor(regular_gset(g), standard_simplex(1)), ZZ)
    calls = []

    def counted(c, h):
        calls.append(h.label)
        return invariants(c, h)

    monkeypatch.setattr(chains, "invariants", counted)
    monkeypatch.setattr(elmendorf, "invariants", counted)
    i_lower(x, cat, ChainCat(ZZ))
    assert sorted(calls) == sorted(h.label for h in cat.family)


def test_orbit_diagram_rejects_nonfunctorial_data(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    v = ("x", "y")
    swap = VMap.make(v, v, {"x": "y", "y": "x"})
    ident = VMap.make(v, v, {"x": "x", "y": "y"})
    # identity morphism assigned a non-identity map
    with pytest.raises(ValueError, match="identity"):
        OrbitDiagram(cat, vc, {0: v, 1: v},
                     {(0, 0, 0): swap, (0, 0, 1): swap,
                      (0, 1, 0): ident, (1, 1, 0): ident})
    # composition violated: R_t o R_t = R_e but T(R_t)^2 != T(R_e)
    threeval = ("x", "y", "z")
    bad = VMap.make(threeval, threeval, {"x": "y", "y": "z", "z": "x"})
    idv = VMap.make(threeval, threeval, {l: l for l in threeval})
    with pytest.raises(ValueError, match="functoriality"):
        OrbitDiagram(cat, vc, {0: threeval, 1: threeval},
                     {(0, 0, 0): idv, (0, 0, 1): bad,
                      (0, 1, 0): idv, (1, 1, 0): idv})


# ---------------------------------------------------------------------------
# free cells


def test_free_cell_at_full_subgroup_is_constant(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    t = free_cell_diagram(cat, full_subgroup(g), ("a", "b"), vc)
    assert len(t.values[0]) == 2 and len(t.values[1]) == 2


def test_free_cell_sizes_from_hom_counts():
    g = symmetric_group(3)
    cat = build_orbit_category(g, all_subgroups(g))
    vc = FinSetCat()
    for k_idx, k in enumerate(cat.family):
        t = free_cell_diagram(cat, k, ("*",), vc)
        for i in range(len(cat.family)):
            assert len(t.values[i]) == len(cat.hom[(i, k_idx)])


def test_free_cell_chain_values(c2cat):
    g, cat = c2cat
    cc = ChainCat(ZZ)
    t = free_cell_diagram(cat, trivial_subgroup(g), concentrated(ZZ, 0), cc)
    assert t.values[0].ranks == (2,)
    assert t.values[1].ranks == (0,)


# ---------------------------------------------------------------------------
# adjunction


def test_counit_iso_for_gset_fixtures(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    fixtures = [FinSetObj.plain(regular_gset(g)),
                FinSetObj.plain(trivial_gset(g, 3)),
                FinSetObj.plain(coset_gset(g, full_subgroup(g)))]
    t = free_cell_diagram(cat, trivial_subgroup(g), ("*",), vc)
    for x in fixtures:
        rep = adjunction_check(t, x)
        assert rep.counit_iso
        assert rep.counit_equivariant
        assert rep.triangle_left and rep.triangle_right


def test_counit_iso_for_sset_and_chain_fixtures(c2cat):
    g, cat = c2cat
    vs = FinSSetCat()
    t = free_cell_diagram(cat, trivial_subgroup(g), standard_simplex(0), vs)
    for x in (vee(g), swap_boundary1(g),
              with_trivial_action(boundary_simplex(2), g)):
        rep = adjunction_check(t, x)
        assert rep.counit_iso and rep.triangle_left and rep.triangle_right
    cc = ChainCat(ZZ)
    t2 = free_cell_diagram(cat, trivial_subgroup(g), concentrated(ZZ, 0), cc)
    for xc in (normalized_chains(vee(g), ZZ),
               normalized_chains(swap_boundary1(g), ZZ)):
        rep = adjunction_check(t2, xc)
        assert rep.counit_iso and rep.triangle_left and rep.triangle_right


def test_unit_iso_on_free_cells_matches_cellularity():
    """One generic comparison: the unit at G/H of hom(-, G/K) (x) c is the
    cellularity map (G/K)^H (x) c -> (G/K (x) c)^H, in every value category."""
    c4, s3 = cyclic_group(4), symmetric_group(3)
    rings = (ZZ, QQ, PrimeField(2))
    cases = []
    for g in (c4, s3):
        cases += [(g, FinSetCat(), cell) for cell in (("*",), ("a", "b"))]
        cases += [(g, FinSSetCat(), cell) for cell in (
            standard_simplex(0), boundary_simplex(1), standard_simplex(1))]
        cases += [(g, ChainCat(r), concentrated(r, 0)) for r in rings]
    # the chains of Delta[1] over Q and F_2 take seconds on S3; C4 covers them
    cases += [(c4, ChainCat(r), normalized_chains(standard_simplex(1), r))
              for r in rings]
    cases.append((s3, ChainCat(ZZ), normalized_chains(standard_simplex(1), ZZ)))
    for g, vc, cell in cases:
        fam = all_subgroups(g)
        cat = build_orbit_category(g, fam)
        for k in fam:
            t = free_cell_diagram(cat, k, cell, vc)
            rep = adjunction_check(t, i_upper(t))
            for h in fam:
                cr = cellularity_report(g, h, k, cell, vc)
                assert rep.unit_per_object[h.label] == cr.iso, (vc, k.label, h.label)
                if isinstance(vc, ChainCat):
                    assert cr.iso == (cr.fixed_cosets == cr.orbit_count)
                else:
                    assert cr.iso and cr.orbit_count is None
            assert rep.unit_iso == all(rep.unit_per_object.values())


def test_counit_that_misses_fixed_points_is_internal_error(c2cat, monkeypatch):
    g, cat = c2cat
    x = FinSetObj.plain(make_gset(g, {0: [0, 1, 2], 1: [0, 2, 1]}))
    counit_map = elmendorf.counit_map

    def swapped_counit(y, cat, vcat):
        """The counit of x swaps its fixed point 0 with the moved point 1."""
        d, lhs, eps = counit_map(y, cat, vcat)
        if y is x:
            m = eps.as_dict()
            m[0], m[1] = m[1], m[0]
            eps = VMap.make(eps.source, eps.target, m)
        return d, lhs, eps

    monkeypatch.setattr(elmendorf, "counit_map", swapped_counit)
    vc = FinSetCat()
    t = free_cell_diagram(cat, trivial_subgroup(g), ("*",), vc)
    with pytest.raises(InternalError, match="counit"):
        adjunction_check(t, x)


def test_unit_fails_on_chain_free_cell(c2cat):
    g, cat = c2cat
    cc = ChainCat(ZZ)
    t = free_cell_diagram(cat, trivial_subgroup(g), concentrated(ZZ, 0), cc)
    x = i_upper(t)
    rep = adjunction_check(t, x)
    assert rep.unit_per_object["0"] is True
    assert rep.unit_per_object["0,1"] is False
    assert not rep.unit_iso
    # homology mismatch at G/C2: source value 0, target invariants Z
    _, units = unit_maps(t)
    src_h = homology(units[1].source)
    tgt_h = homology(units[1].target)
    assert src_h[0].free_rank == 0
    assert tgt_h[0].free_rank == 1


# ---------------------------------------------------------------------------
# hom-set bijection by exhaustive enumeration (FinSet)


def enumerate_gmaps(x, y):
    count = 0
    for values in iproduct(range(y.size), repeat=x.size):
        if all(values[x.act[g][p]] == y.act[g][values[p]]
               for g in x.group.elements() for p in range(x.size)):
            count += 1
    return count


def enumerate_naturals(t: OrbitDiagram, d: OrbitDiagram):
    vc = t.vcat
    objs = sorted(t.values)
    spaces = []
    for i in objs:
        src, tgt = t.values[i], d.values[i]
        fns = []
        for assignment in iproduct(tgt, repeat=len(src)):
            fns.append(VMap.make(src, tgt, dict(zip(src, assignment))))
        spaces.append(fns)
    count = 0
    for combo in iproduct(*spaces):
        comp = dict(zip(objs, combo))
        ok = True
        for (i, j, rep), tm in t.maps.items():
            dm = d.maps[(i, j, rep)]
            lhs = vc.compose(comp[i], tm)
            rhs = vc.compose(dm, comp[j])
            if not vc.maps_equal(lhs, rhs):
                ok = False
                break
        if ok:
            count += 1
    return count


def test_adjunction_hom_bijection_counts():
    from orbitkit.groups import direct_product
    for g in (cyclic_group(2), cyclic_group(4),
              direct_product(cyclic_group(2), cyclic_group(2))):
        fam = all_subgroups(g)
        cat = build_orbit_category(g, fam)
        vc = FinSetCat()
        diagrams = [free_cell_diagram(cat, k, ("*",), vc) for k in fam]
        gsets = [regular_gset(g), trivial_gset(g, 2),
                 coset_gset(g, fam[1] if len(fam) > 1 else fam[0])]
        for t in diagrams:
            xt = i_upper(t)
            for y in gsets:
                lhs = enumerate_gmaps(xt.gset, y)
                rhs = enumerate_naturals(t, i_lower(FinSetObj.plain(y), cat, vc))
                assert lhs == rhs, (t, y)


# ---------------------------------------------------------------------------
# cellularity


def test_cellularity_positive_for_sets_and_ssets():
    for g in (cyclic_group(2), symmetric_group(3)):
        fam = all_subgroups(g)
        for h in fam:
            for k in fam:
                r = cellularity_report(g, h, k, ("a", "b"), FinSetCat())
                assert r.iso
                r2 = cellularity_report(g, h, k, standard_simplex(1), FinSSetCat())
                assert r2.iso


def test_cellularity_chain_counterexample(c2cat):
    g, cat = c2cat
    cc = ChainCat(ZZ)
    r = cellularity_report(g, full_subgroup(g), trivial_subgroup(g),
                           concentrated(ZZ, 0), cc)
    assert not r.iso
    assert r.lhs == [0] and r.rhs == [1]
    assert r.fixed_cosets == 0 and r.orbit_count == 1


def test_cellularity_full_orbit_always_iso(c2cat):
    g, cat = c2cat
    cc = ChainCat(ZZ)
    for h in all_subgroups(g):
        r = cellularity_report(g, h, full_subgroup(g), concentrated(ZZ, 0), cc)
        assert r.iso


# ---------------------------------------------------------------------------
# the census


def test_census_c2_all(c2cat):
    g, cat = c2cat
    rep = arrow_poset_census(cat)
    assert rep.diagram_count == 3
    assert rep.gobject_count == 2
    assert rep.diagram_classes == 3


def test_census_one_object():
    g = cyclic_group(2)
    cat = build_orbit_category(g, [full_subgroup(g)])
    rep = arrow_poset_census(cat)
    assert rep.diagram_count == 2 and rep.gobject_count == 2


def test_census_trivial_group():
    g = cyclic_group(1)
    cat = build_orbit_category(g, all_subgroups(g))
    rep = arrow_poset_census(cat)
    assert rep.diagram_count == 2 and rep.gobject_count == 2

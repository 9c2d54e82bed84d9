"""Orbit category: hom sizes, composition laws, faithful realization."""

import pytest

from conftest import stock_groups
from orbitkit.groups import all_subgroups, cyclic_group, dihedral_group, \
    symmetric_group, trivial_subgroup, full_subgroup
from orbitkit.gsets import coset_gset, fixed_points, orbit_analysis
from orbitkit.orbitcat import OrbitMorphism, build_orbit_category, compose, \
    orbit_morphism, realize


def test_c2_hom_sizes():
    g = cyclic_group(2)
    cat = build_orbit_category(g, all_subgroups(g))
    sizes = {k: len(v) for k, v in cat.hom.items()}
    assert sizes == {(0, 0): 2, (0, 1): 1, (1, 0): 0, (1, 1): 1}


def test_one_object_family():
    g = symmetric_group(3)
    cat = build_orbit_category(g, [full_subgroup(g)])
    assert len(cat.family) == 1
    assert len(cat.hom[(0, 0)]) == 1


def test_s3_trivial_family_is_the_group():
    g = symmetric_group(3)
    cat = build_orbit_category(g, [trivial_subgroup(g)])
    assert len(cat.hom[(0, 0)]) == 6


def test_hom_sizes_match_fixed_points_for_stock_groups():
    for g in (cyclic_group(2), symmetric_group(3), dihedral_group(4)):
        fam = all_subgroups(g)
        cat = build_orbit_category(g, fam)
        for i, h in enumerate(cat.family):
            for j, k in enumerate(cat.family):
                fixed = orbit_analysis(coset_gset(g, k), h).fixed
                assert len(cat.hom[(i, j)]) == len(fixed)
                assert {k.cosets.index[m.rep] for m in cat.hom[(i, j)]} == set(fixed)


def test_identity_and_composition_laws_exhaustive():
    for g in (cyclic_group(2), symmetric_group(3), dihedral_group(4)):
        cat = build_orbit_category(g, all_subgroups(g))
        morphisms = list(cat.all_morphisms())
        for m in morphisms:
            assert compose(m, cat.identity(m.source)).rep == m.rep
            assert compose(cat.identity(m.target), m).rep == m.rep
        for m1 in morphisms:
            for m2 in morphisms:
                if m1.target.members != m2.source.members:
                    continue
                for m3 in morphisms:
                    if m2.target.members != m3.source.members:
                        continue
                    left = compose(m3, compose(m2, m1))
                    right = compose(compose(m3, m2), m1)
                    assert left == right


def test_composition_against_gmap_composition_and_faithfulness():
    for g in (cyclic_group(2), symmetric_group(3)):
        cat = build_orbit_category(g, all_subgroups(g))
        morphisms = list(cat.all_morphisms())
        realized = {m: realize(m) for m in morphisms}
        # distinct morphisms realize distinct maps, per hom set
        for (i, j), ms in cat.hom.items():
            values = [realized[m].values for m in ms]
            assert len(set(values)) == len(values)
        for m1 in morphisms:
            for m2 in morphisms:
                if m1.target.members != m2.source.members:
                    continue
                comp = compose(m2, m1)
                r1, r2 = realized[m1], realized[m2]
                pointwise = tuple(r2.values[r1.values[x]]
                                  for x in range(r1.source.size))
                assert realized[comp].values == pointwise


def test_composition_laws_up_to_order_24():
    """Associativity and unitality for groups up to order 24.

    A4 with every subgroup; S4 with a representative family (families are
    arbitrary subgroup lists, so a partial family is a legal category).
    """
    from orbitkit.groups import group_from_generators, subgroup
    a4 = group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4")
    cats = [build_orbit_category(a4, all_subgroups(a4))]
    s4 = symmetric_group(4)
    subs4 = all_subgroups(s4)
    fam = [trivial_subgroup(s4), full_subgroup(s4)]
    fam.append(next(h for h in subs4 if len(h.members) == 4))
    fam.append(next(h for h in subs4 if len(h.members) == 12))
    cats.append(build_orbit_category(s4, fam))
    for cat in cats:
        ms = list(cat.all_morphisms())
        for m in ms:
            assert compose(m, cat.identity(m.source)) == m
            assert compose(cat.identity(m.target), m) == m
        by_source = {}
        for m in ms:
            by_source.setdefault(m.source.members, []).append(m)
        for m1 in ms:
            for m2 in by_source.get(m1.target.members, ()):
                c12 = compose(m2, m1)
                for m3 in by_source.get(m2.target.members, ()):
                    assert compose(m3, c12) == compose(compose(m3, m2), m1)


def test_compose_matches_checked_constructor():
    # compose skips the lawfulness check; orbit_morphism is the oracle
    from orbitkit.groups import direct_product, group_from_generators
    a4 = group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4")
    for g in (symmetric_group(3), dihedral_group(4), a4,
              direct_product(cyclic_group(2), cyclic_group(4))):
        cat = build_orbit_category(g, all_subgroups(g))
        ms = list(cat.all_morphisms())
        for m1 in ms:
            for m2 in ms:
                if m1.target.members == m2.source.members:
                    assert compose(m2, m1) == orbit_morphism(
                        m1.source, m2.target, g.mult[m1.rep][m2.rep])


def test_hom_cross_check_compares_sets(monkeypatch):
    # fixed points moved to other cosets of G/K keep their count but not their set
    import orbitkit.orbitcat as oc
    from orbitkit.errors import InternalError
    real = oc.fixed_points

    def shifted(x, h):
        return tuple((p + 1) % x.size for p in real(x, h))

    g = symmetric_group(3)
    monkeypatch.setattr(oc, "fixed_points", shifted)
    with pytest.raises(InternalError, match="differs from"):
        build_orbit_category(g, all_subgroups(g))


def test_c2_generator_squares_to_identity():
    g = cyclic_group(2)
    e = trivial_subgroup(g)
    rt = orbit_morphism(e, e, 1)
    assert compose(rt, rt).rep == 0


def test_orbit_morphism_validation_and_canonical_rep():
    g = symmetric_group(3)
    subs = all_subgroups(g)
    h2 = next(h for h in subs if len(h.members) == 2)
    a3 = next(h for h in subs if len(h.members) == 3)
    with pytest.raises(ValueError):
        orbit_morphism(a3, h2, 0)  # A3 is not subconjugate to a 2-group
    m = orbit_morphism(trivial_subgroup(g), a3, a3.members[-1])
    assert m.rep == 0  # canonicalized to the least element of the coset
    assert m == orbit_morphism(trivial_subgroup(g), a3, 0) != orbit_morphism(a3, a3, 0)
    assert hash(m) == hash((trivial_subgroup(g), a3, 0))
    assert repr(m) == "R_0[{0}->{0,3,4}]"
    assert repr(orbit_morphism(trivial_subgroup(g), h2, 3)) == "R_2[{0}->{0,1}]"


def test_family_not_closed_under_conjugation_is_allowed():
    g = symmetric_group(3)
    subs = all_subgroups(g)
    h2 = next(h for h in subs if len(h.members) == 2)
    cat = build_orbit_category(g, [trivial_subgroup(g), h2])
    assert len(cat.family) == 2


def test_rejects_non_subgroups():
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        build_orbit_category(g, [trivial_subgroup(cyclic_group(3))])


def test_json_export_shape():
    g = cyclic_group(2)
    cat = build_orbit_category(g, all_subgroups(g))
    data = cat.to_json()
    assert data["objects"] == ["0", "0,1"]
    assert data["hom"]["0;0"] == [0, 1]
    assert data["hom"]["0,1;0"] == []
    text = cat.composition_table_text()
    assert "o" in text


def _generator_cases():
    from orbitkit.groups import group_from_generators
    a4 = group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4")
    cases = []
    for name, g in (("C2", cyclic_group(2)), ("C4", cyclic_group(4)),
                    ("S3", symmetric_group(3)), ("D4", dihedral_group(4)), ("A4", a4)):
        subs = all_subgroups(g)
        cases.append((f"{name}-all", g, subs))
        cases.append((f"{name}-nontrivial", g, [h for h in subs if not h.is_trivial()]))
    s3 = symmetric_group(3)
    h2 = next(h for h in all_subgroups(s3) if len(h.members) == 2)
    cases.append(("S3-one-order-2", s3, [trivial_subgroup(s3), h2, full_subgroup(s3)]))
    return cases


GENERATOR_CASES = _generator_cases()


def composites_of(morphisms):
    """Naive fixpoint: compose every composable pair until nothing new appears."""
    reached = set(morphisms)
    while True:
        new = {compose(b, a) for a in reached for b in reached
               if a.target.members == b.source.members} - reached
        if not new:
            return reached
        reached |= new


@pytest.mark.parametrize("g,family", [c[1:] for c in GENERATOR_CASES],
                         ids=[c[0] for c in GENERATOR_CASES])
def test_generators_close_up_to_every_morphism(g, family):
    """No identity is a generator, and composites of generators give every morphism."""
    cat = build_orbit_category(g, family)
    gens = cat.generators
    assert cat.generators is gens  # computed once
    idents = {cat.identity(h) for h in cat.family}
    assert not idents & set(gens)
    assert len(set(gens)) == len(gens)
    assert composites_of(idents | set(gens)) == set(cat.all_morphisms())
    # irredundant: no generator is a composite of all the other generators
    for s in gens:
        assert s not in composites_of(idents | set(gens) - {s})


def reference_compose(second, first):
    """R_b o R_a as R_c, c the least element of the coset abK, K the target."""
    g = first.source.parent
    ab = g.mult[first.rep][second.rep]
    return OrbitMorphism(first.source, second.target,
                         min(g.mult[ab][x] for x in second.target.members))


def reference_generators(cat):
    """The greedy closure of ``OrbitCategory.generators`` on morphism objects."""
    reached = {cat.identity(h) for h in cat.family}
    out_of = {h.members: [] for h in cat.family}
    into = {h.members: [] for h in cat.family}
    gens = []
    for m in sorted(cat.all_morphisms(), key=lambda m: m.target.order // m.source.order):
        todo = [] if m in reached else [m]
        gens += todo
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                out_of[x.source.members].append(x)
                into[x.target.members].append(x)
                todo += [reference_compose(y, x) for y in out_of[x.target.members]]
                todo += [reference_compose(x, y) for y in into[x.source.members]]
    return tuple(gens)


@pytest.mark.parametrize("name", ["C2xC4", "D4", "A4", "D8", "S4"])
def test_generators_and_pairs_match_the_morphism_closure(name):
    from orbitkit.groups import direct_product, group_from_generators
    g = {"C2xC4": lambda: direct_product(cyclic_group(2), cyclic_group(4)),
         "D4": lambda: dihedral_group(4), "D8": lambda: dihedral_group(8),
         "A4": lambda: group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4"),
         "S4": lambda: symmetric_group(4)}[name]()
    cat = build_orbit_category(g, all_subgroups(g))
    gens = reference_generators(cat)
    assert cat.generators == gens
    pairs = tuple((cat.object_index(a.source), cat.object_index(a.target), l, a.rep, b.rep,
                   reference_compose(b, a).rep)
                  for a in gens for l in range(len(cat.family))
                  for b in cat.hom[(cat.object_index(a.target), l)])
    assert cat.functoriality_pairs == pairs
    if name == "C2xC4":
        assert len(pairs) == 142


def burnside_marks(g, k) -> dict:
    """H -> |(G/K)^H| for every subgroup H, from member sets only: gK is fixed
    by H exactly when H lies in gKg^-1, and each conjugate of K is gKg^-1 for
    |N_G(K):K| cosets gK, so |(G/K)^H| = |N_G(K):K| * #{conjugates of K over H}."""
    kset = frozenset(k.members)
    conjugates = [frozenset(g.mult[g.mult[a][x]][g.inv[a]] for x in kset)
                  for a in g.elements()]
    index = conjugates.count(kset) // len(kset)  # |N_G(K)| / |K|
    return {h.members: index * sum(set(h.members) <= c for c in set(conjugates))
            for h in all_subgroups(g)}


def test_hom_sets_and_fixed_points_match_burnside_marks():
    for g in stock_groups():
        if g.order > 24:
            continue
        cat = build_orbit_category(g, all_subgroups(g))
        for j, k in enumerate(cat.family):
            marks, gk = burnside_marks(g, k), coset_gset(g, k)
            for i, h in enumerate(cat.family):
                assert len(cat.hom[(i, j)]) == marks[h.members], (g, h, k)
                assert len(fixed_points(gk, h)) == marks[h.members], (g, h, k)

"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every tolerance is zero: all comparisons are exact.
"""

import random
from itertools import product as iproduct

import pytest

from conftest import action_matrix, swap_boundary1, vee, with_trivial_action
from orbitkit.chains import concentrated, disk, homology, \
    identity_chain_map, is_acyclic, normalized_chain_map, \
    normalized_chains, prism_homotopy
from orbitkit.elmendorf import ChainCat, FinSSetCat, FinSetCat, \
    adjunction_check, arrow_poset_census, cellularity_report, free_cell_diagram, \
    i_upper, unit_maps
from orbitkit.groups import all_subgroups, conjugating_element, cyclic_group, \
    dihedral_group, direct_product, full_subgroup, symmetric_group, \
    trivial_subgroup
from orbitkit.gsets import coset_gset, equivariant_maps, orbit_analysis, \
    product_gset, regular_gset, trivial_gset
from orbitkit.orbitcat import build_orbit_category, compose, realize
from orbitkit.rings import PrimeField, ZZ
from orbitkit.simplicial import SMap, SimplexRef, boundary_simplex, \
    cell_decomposition, check_F_cofibration, disjoint_copies, empty_sset, \
    gtensor, identity_smap, point_sset, prism, \
    replay_cell_decomposition, standard_simplex, skeleton
from orbitkit.whitehead import verify_certificate, whitehead_verify


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def fixture_groups():
    return [cyclic_group(2), cyclic_group(4),
            direct_product(cyclic_group(2), cyclic_group(2)),
            symmetric_group(3), dihedral_group(4)]


# ---------------------------------------------------------------------------


def test_criterion_1_representability():
    """|Set^G(G/H, X)| = |X^H| with the evaluation bijection, exactly."""
    checked = 0
    for g in fixture_groups():
        subs = all_subgroups(g)
        targets = [coset_gset(g, h) for h in subs]
        targets += [trivial_gset(g, 2), regular_gset(g)]
        small = [t for t in targets if t.size <= 3]
        if len(small) >= 2:
            targets.append(product_gset(small[0], small[1]))
        targets = [t for t in targets if t.size <= 12]
        for h in subs:
            src = coset_gset(g, h)
            for tgt in targets:
                maps = equivariant_maps(src, tgt)  # asserts the bijection
                fixed = orbit_analysis(tgt, h).fixed
                assert len(maps) == len(fixed)
                assert sorted(m.values[0] for m in maps) == sorted(fixed)
                # small cases: compare against exhaustive enumeration
                if tgt.size ** src.size <= 4096:
                    brute = 0
                    for values in iproduct(range(tgt.size), repeat=src.size):
                        if all(values[src.act[a][p]] == tgt.act[a][values[p]]
                               for a in g.elements() for p in range(src.size)):
                            brute += 1
                    assert brute == len(maps)
                checked += 1
    assert checked >= 100
    report(1, f"representability verified on {checked} (G, H, X) triples")


def test_criterion_2_orbit_category_laws():
    """Hom sizes, associativity, unitality, faithfulness; exhaustive."""
    total = 0
    for g in (cyclic_group(2), symmetric_group(3), dihedral_group(4)):
        subs = all_subgroups(g)
        cat = build_orbit_category(g, subs)
        for i, h in enumerate(cat.family):
            for j, k in enumerate(cat.family):
                fixed = orbit_analysis(coset_gset(g, k), h).fixed
                assert len(cat.hom[(i, j)]) == len(fixed)
        ms = list(cat.all_morphisms())
        realized = {m: realize(m) for m in ms}
        for (i, j), homset in cat.hom.items():
            values = [realized[m].values for m in homset]
            assert len(set(values)) == len(values)
        for m in ms:
            assert compose(m, cat.identity(m.source)) == m
            assert compose(cat.identity(m.target), m) == m
        for m1 in ms:
            for m2 in ms:
                if m1.target.members != m2.source.members:
                    continue
                comp = compose(m2, m1)
                r1, r2 = realized[m1], realized[m2]
                assert realized[comp].values == tuple(
                    r2.values[r1.values[x]] for x in range(r1.source.size))
                for m3 in ms:
                    if m2.target.members != m3.source.members:
                        continue
                    assert compose(m3, compose(m2, m1)) \
                        == compose(compose(m3, m2), m1)
                    total += 1
    report(2, f"orbit category laws exhaustive ({total} triples, 3 groups)")


def _mono_fixtures():
    c2 = cyclic_group(2)
    s3 = symmetric_group(3)
    subs3 = all_subgroups(s3)
    h2 = next(h for h in subs3 if len(h.members) == 2)
    out = []

    def empty_into(x):
        return SMap(empty_sset(x.group), x, {})

    # all-free actions
    out.append(("free swap points", empty_into(swap_boundary1(c2))))
    out.append(("free intervals", empty_into(gtensor(regular_gset(c2),
                                                     standard_simplex(1)))))
    out.append(("free S3 points", empty_into(gtensor(regular_gset(s3),
                                                     point_sset()))))
    # all-trivial actions
    out.append(("trivial interval", empty_into(
        with_trivial_action(standard_simplex(1), c2))))
    out.append(("trivial triangle boundary", empty_into(
        with_trivial_action(boundary_simplex(2), c2))))
    out.append(("trivial 2-simplex", empty_into(
        with_trivial_action(standard_simplex(2), s3))))
    # mixed stabilizers
    out.append(("vee", empty_into(vee(c2))))
    out.append(("S3 coset points", empty_into(gtensor(coset_gset(s3, h2),
                                                      point_sset()))))
    # nonempty sources
    v = vee(c2)
    sk0, _ = skeleton(v, 0)
    out.append(("vee skeleton inclusion",
                SMap(sk0, v, {s: SimplexRef(s) for s in sk0.ids()})))
    x2 = swap_boundary1(c2)
    y2 = gtensor(regular_gset(c2), standard_simplex(1))
    out.append(("ends into free intervals",
                SMap(x2, y2, {0: SimplexRef(0), 1: SimplexRef(3)})))
    pt = with_trivial_action(point_sset(), c2)
    out.append(("point into vee", SMap(pt, vee(c2), {0: SimplexRef(2)})))
    ba = gtensor(coset_gset(s3, h2), boundary_simplex(1))
    da = gtensor(coset_gset(s3, h2), standard_simplex(1))
    values = {}
    for p in range(3):
        for s in (0, 1):
            values[p * 2 + s] = SimplexRef(p * 3 + s)
    out.append(("equivariant cell boundary inclusion", SMap(ba, da, values)))
    return out


def test_criterion_3_cell_decomposition_replay():
    """Stagewise pushout replay reconstructs the target, identifier-exactly."""
    fixtures = _mono_fixtures()
    assert len(fixtures) >= 10
    kinds = set()
    for name, f in fixtures:
        cs = cell_decomposition(f)
        replay_cell_decomposition(f, cs)  # raises on any mismatch
        stabs = {s.stabilizer.members
                 for d in cs.by_dim.values() for s in d}
        if stabs <= {(0,)}:
            kinds.add("free")
        elif all(len(m) == f.target.group.order for m in stabs):
            kinds.add("trivial")
        else:
            kinds.add("mixed")
    assert {"free", "trivial", "mixed"} <= kinds
    report(3, f"replay reconstructed {len(fixtures)} monomorphism fixtures")


def test_criterion_4_cofibration_characterization():
    """check_F_cofibration iff all new stabilizers subconjugate to F."""
    agreements = 0
    for name, f in _mono_fixtures():
        g = f.target.group
        families = [[trivial_subgroup(g)], all_subgroups(g)]
        mids = [h for h in all_subgroups(g) if 1 < len(h.members) < g.order]
        if mids:
            families.append([trivial_subgroup(g), mids[0]])
        for fam in families:
            verdict = check_F_cofibration(f, fam)
            cs = cell_decomposition(f)  # replay-verified decomposition
            expected = all(
                any(conjugating_element(s.stabilizer, k) is not None
                    for k in fam)
                for d in cs.by_dim.values() for s in d)
            assert verdict.ok == expected
            if not verdict.ok:
                assert verdict.witness is not None
            agreements += 1
    report(4, f"cofibration test agrees with decompositions in "
              f"{agreements} (fixture, family) pairs")


def test_criterion_5_elmendorf_adjunction():
    """Counit iso, triangles, unit iso on free cells == cellularity flag."""
    cases = 0
    for g in (cyclic_group(2), symmetric_group(3)):
        fam = all_subgroups(g)
        cat = build_orbit_category(g, fam)
        # counit on G-set fixtures
        vc = FinSetCat()
        t0 = free_cell_diagram(cat, trivial_subgroup(g), 1, vc)
        for x in (regular_gset(g), trivial_gset(g, 3), coset_gset(g, fam[1])):
            rep = adjunction_check(t0, x)
            assert rep.counit_iso and rep.counit_equivariant
            assert rep.triangle_left and rep.triangle_right
        # counit on simplicial fixtures
        vs = FinSSetCat()
        t1 = free_cell_diagram(cat, trivial_subgroup(g), point_sset(), vs)
        for x in (gtensor(regular_gset(g), standard_simplex(1)),
                  with_trivial_action(boundary_simplex(2), g)):
            rep = adjunction_check(t1, x)
            assert rep.counit_iso and rep.triangle_left and rep.triangle_right
        # unit on free cells, matched against the cellularity flag
        for vcat, cells in ((vc, [1, 2]),
                            (vs, [point_sset(), boundary_simplex(1),
                                  standard_simplex(1)])):
            for cell in cells:
                for k in fam:
                    t = free_cell_diagram(cat, k, cell, vcat)
                    rep = adjunction_check(t, i_upper(t))
                    assert rep.counit_iso
                    assert rep.triangle_left and rep.triangle_right
                    for h in fam:
                        cr = cellularity_report(g, h, k, cell, vcat)
                        assert rep.unit_per_object[h.label] == cr.iso
                        assert cr.iso  # sets and simplicial sets: always
                        cases += 1
                    assert rep.unit_iso
    report(5, f"adjunction laws and unit-on-cells verified in {cases} cases")


def test_criterion_6_negative_controls():
    """The three counterexamples, exactly as stated."""
    c2 = cyclic_group(2)
    fam = all_subgroups(c2)
    cat = build_orbit_category(c2, fam)
    # (i) arrow-poset census 3 vs 2
    census = arrow_poset_census(cat)
    assert census.diagram_count == 3 and census.gobject_count == 2
    # (ii) chain cellularity failure
    cc = ChainCat(ZZ)
    r = cellularity_report(c2, full_subgroup(c2), trivial_subgroup(c2),
                           concentrated(ZZ, 0), cc)
    assert not r.iso
    assert r.lhs == [0]            # (G/e)^{C2} (x) Z<0> = 0
    assert r.rhs == [1]            # (G/e (x) Z<0>)^{C2} = Z (orbit sum)
    assert r.orbit_count == 1      # M_K = H\(G/K) has one orbit
    # (iii) unit on the Ch(Z) free cell is not a quasi-isomorphism
    t = free_cell_diagram(cat, trivial_subgroup(c2), concentrated(ZZ, 0), cc)
    x = i_upper(t)
    rep = adjunction_check(t, x)
    assert rep.unit_per_object["0,1"] is False
    units = unit_maps(t, x)
    h_src = homology(units[1].source)
    h_tgt = homology(units[1].target)
    assert h_src[0].free_rank == 0 and h_tgt[0].free_rank == 1
    report(6, "census 3 vs 2; chain cellularity fails (0 vs Z); "
              "unit H0 mismatch 0 vs Z at G/C2")


def _gauss_rank_mod_p(rows, p):
    a = [[v % p for v in row] for row in rows]
    rank = 0
    row = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(a)) if a[i][col] % p), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(v * inv) % p for v in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
    return rank


def test_criterion_7_homology_oracle():
    """SNF homology vs independent Gaussian ranks; disks; sphere boundaries."""
    from test_chains import random_fp_complex
    count = 0
    for p in (2, 3):
        ring = PrimeField(p)
        rng = random.Random(2026 + p)
        while count < (60 if p == 2 else 120):
            c = random_fp_complex(rng, ring)
            hs = homology(c)  # Smith-normal-form path
            for n in range(c.top + 1):
                rows_n = [list(row) for row in c.d(n).rows]
                rows_n1 = [list(row) for row in c.d(n + 1).rows]
                r_n = _gauss_rank_mod_p(rows_n, p) if rows_n and rows_n[0] else 0
                r_n1 = _gauss_rank_mod_p(rows_n1, p) if rows_n1 and rows_n1[0] else 0
                assert hs[n].free_rank == c.rank(n) - r_n - r_n1
            count += 1
    assert count >= 100
    for n in range(1, 6):
        assert is_acyclic(disk(ZZ, n))
    for n in (2, 3):
        hs = homology(normalized_chains(boundary_simplex(n), ZZ))
        want = [(1, ())] + [(0, ())] * (n - 2) + [(1, ())]
        assert [(h.free_rank, h.torsion) for h in hs] == want
    report(7, f"SNF homology matched Gaussian oracle on {count} random "
              "complexes; disks acyclic; sphere boundaries correct")


def test_criterion_8_prism_homotopy():
    """d phi + phi d equals the end difference exactly, on every fixture."""
    c2 = cyclic_group(2)
    fixtures = [point_sset(), standard_simplex(1), boundary_simplex(2),
                vee(c2), swap_boundary1(c2)]
    equivariant_seen = False
    for x in fixtures:
        pr = prism(x)
        cx = normalized_chains(x, ZZ)
        cprod = normalized_chains(pr.product, ZZ)
        for hc in (identity_chain_map(cprod),
                   normalized_chain_map(pr.proj, ZZ, cprod, cx)):
            phi = prism_homotopy(hc, pr)  # verifies the identity internally
            e0 = normalized_chain_map(pr.end0, ZZ, cx, cprod)
            e1 = normalized_chain_map(pr.end1, ZZ, cx, cprod)
            z = hc.target
            for n in range(cx.top + 1):
                lhs = z.d(n + 1) @ phi.mat(n) + phi.mat(n - 1) @ cx.d(n)
                rhs = (hc.mat(n) @ e1.mat(n)) - (hc.mat(n) @ e0.mat(n))
                assert lhs == rhs
            if phi.equivariant and x.group.order > 1:
                equivariant_seen = True
                for g in x.group.elements():
                    for n in range(cx.top + 1):
                        assert action_matrix(z, g, n + 1) @ phi.mat(n) \
                            == phi.mat(n) @ action_matrix(cx, g, n)
    assert equivariant_seen
    report(8, "prism identity exact on all fixtures, including an "
              "equivariant swap fixture")


def test_criterion_9_whitehead_end_to_end():
    """Certificates on hypothesis-satisfying fixtures; refusals elsewhere."""
    c2 = cyclic_group(2)
    fam2 = all_subgroups(c2)
    triv = [trivial_subgroup(c2)]
    pt = with_trivial_action(point_sset(), c2)

    positives = []
    x = swap_boundary1(c2)
    positives.append(("identity on swapped points", identity_smap(x), triv))
    positives.append(("vertex into interval, trivial action",
                      SMap(pt, with_trivial_action(standard_simplex(1), c2),
                           {0: SimplexRef(0)}), fam2))
    positives.append(("mixed-stabilizer retract onto the middle vertex",
                      SMap(pt, vee(c2), {0: SimplexRef(2)}), fam2))
    y_free = gtensor(regular_gset(c2), standard_simplex(1))
    positives.append(("free end inclusion",
                      SMap(gtensor(regular_gset(c2), point_sset()), y_free,
                           {0: SimplexRef(0), 1: SimplexRef(3)}), triv))
    positives.append(("vertex into triangle, trivial action",
                      SMap(pt, with_trivial_action(standard_simplex(2), c2),
                           {0: SimplexRef(0)}), fam2))
    assert len(positives) >= 5
    for name, f, fam in positives:
        rep = whitehead_verify(f, fam, ZZ)
        assert rep.isotropy.ok_conjugate, name
        assert all(rep.hyp_b.values()), name
        for s in (f.source, f.target):
            assert check_F_cofibration(SMap(empty_sset(s.group), s, {}), fam).ok
        assert rep.certificate is not None, \
            f"theorem-covered fixture must yield a certificate: {name}"
        assert verify_certificate(rep.certificate,
                                  normalized_chain_map(f, ZZ)), name

    negatives = [
        ("empty into free points", SMap(empty_sset(c2), x, {}), triv),
        ("fold of two points",
         SMap(with_trivial_action(disjoint_copies(point_sset(), 2)[0], c2),
              pt, {0: SimplexRef(0), 1: SimplexRef(0)}), fam2),
        ("swapped points into the vee",
         SMap(x, vee(c2), {0: SimplexRef(0), 1: SimplexRef(1)}), fam2),
    ]
    for name, f, fam in negatives:
        rep = whitehead_verify(f, fam, ZZ)
        assert not (all(rep.hyp_a.values()) and all(rep.hyp_b.values())), name
        assert rep.certificate is None, name
        assert rep.failing_subgroups(), name
    report(9, f"{len(positives)} certificates found and verified; "
              f"{len(negatives)} hypothesis violations refused with "
              "failing subgroups reported")

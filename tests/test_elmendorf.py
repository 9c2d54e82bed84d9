"""Orbit diagrams and the fixed-point adjunction, with enumeration oracles."""

import os
import subprocess
import sys
import textwrap
from itertools import product as iproduct
from pathlib import Path

import pytest

import orbitkit
from conftest import swap_boundary1, vee, with_trivial_action
from orbitkit import chains, elmendorf, exactla
from orbitkit.chains import ChainMap, concentrated, homology, \
    identity_chain_map, invariants, normalized_chains
from orbitkit.elmendorf import ChainCat, FinSSetCat, FinSetCat, OrbitDiagram, VMap, \
    adjunction_check, arrow_poset_census, cellularity_report, free_cell_diagram, \
    i_lower, i_upper, unit_maps
from orbitkit.groups import all_subgroups, cyclic_group, dihedral_group, \
    direct_product, full_subgroup, subgroup, symmetric_group, trivial_subgroup
from orbitkit.errors import InternalError
from orbitkit.exactla import Mat
from orbitkit.gsets import coset_gset, fixed_points, make_gset, regular_gset, \
    trivial_gset
from orbitkit.orbitcat import build_orbit_category, compose as compose_morphisms
from orbitkit.rings import PrimeField, QQ, ZZ
from orbitkit.simplicial import GSSet, SMap, SimplexRef, boundary_simplex, \
    disjoint_copies, gtensor, point_sset, standard_simplex


@pytest.fixture(scope="module")
def c2cat():
    g = cyclic_group(2)
    return g, build_orbit_category(g, all_subgroups(g))


# ---------------------------------------------------------------------------
# i_upper / i_lower


def test_i_upper_constant_diagram_gives_trivial_action(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    values = {0: 2, 1: 2}
    ident = VMap.make(2, 2, (0, 1))
    maps = {key: ident for key in
            [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0)]}
    t = OrbitDiagram(cat, vc, values, maps)
    x = i_upper(t)
    assert x.act[1] == (0, 1)


def test_i_upper_free_cell_is_regular(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    t = free_cell_diagram(cat, trivial_subgroup(g), 1, vc)
    x = i_upper(t)
    assert x.size == 2
    assert x.act[1][0] == 1  # the two copies are swapped


def test_i_upper_needs_trivial_subgroup():
    g = cyclic_group(2)
    cat = build_orbit_category(g, [full_subgroup(g)])
    vc = FinSetCat()
    t = free_cell_diagram(cat, full_subgroup(g), 1, vc)
    with pytest.raises(ValueError, match="trivial"):
        i_upper(t)


def test_i_lower_trivial_action_constant(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    x = trivial_gset(g, 3)
    d = i_lower(x, cat, vc)
    assert d.values[0] == 3 and d.values[1] == 3
    for key, m in d.maps.items():
        assert m.fn == tuple(range(m.source))


def test_i_lower_regular_set(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    x = regular_gset(g)
    d = i_lower(x, cat, vc)
    assert d.values[0] == 2  # at G/e
    assert d.values[1] == 0  # at G/C2


@pytest.mark.parametrize("g", [cyclic_group(2), symmetric_group(3), dihedral_group(4)],
                         ids=["C2", "S3", "D4"])
def test_finset_gobjects_are_the_gsets_read_back(g):
    """A G-set rebuilt from its action maps is itself, and the inclusion of its
    H-fixed points lists them."""
    vc = FinSetCat()
    fam = all_subgroups(g)
    for x in [regular_gset(g), trivial_gset(g, 2)] + [coset_gset(g, k) for k in fam]:
        action = {a: vc.action_as_map(x, a) for a in g.elements()}
        assert vc.gobject(g, x.size, action) == x
        for h in fam:
            assert vc.fixed(x, h).fn == fixed_points(x, h)


def test_vmap_make_refuses_maps_that_are_not_total_into_the_target():
    assert VMap.make(2, 3, [2, 0]) == VMap(2, 3, (2, 0))
    with pytest.raises(ValueError, match="needs 2 values, not 1"):
        VMap.make(2, 3, (2,))
    with pytest.raises(ValueError, match="not defined into the target at 1"):
        VMap.make(2, 3, (2, 3))


def test_finset_is_iso_needs_a_bijection():
    cat = FinSetCat()
    assert cat.is_iso(VMap(2, 2, (1, 0)))
    assert not cat.is_iso(VMap(2, 2, (0, 0)))  # not injective
    assert not cat.is_iso(VMap(2, 3, (0, 1)))  # not surjective


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
    cases = [(FinSetCat(), c) for c in cosets]
    cases += [(FinSSetCat(), gtensor(c, standard_simplex(1))) for c in cosets]
    for r in (ZZ, PrimeField(2)):
        vc = ChainCat(r)
        cases += [(vc, normalized_chains(gtensor(c, standard_simplex(1)), r))
                  for c in cosets]
        # the free cell, its action read off a diagram's maps at G/e by i_upper
        cases.append((vc, i_upper(free_cell_diagram(cat, cat.family[0],
                                                    concentrated(r, 0), vc))))
    return cases


@pytest.mark.parametrize("g", [cyclic_group(2), cyclic_group(4), symmetric_group(3)],
                         ids=["C2", "C4", "S3"])
def test_i_lower_structure_maps_are_restricted_translations(g):
    """fixed(x, H) o T(R_a) = a o fixed(x, K) for every R_a: G/H -> G/K."""
    cat = build_orbit_category(g, all_subgroups(g))
    for vc, x in structure_map_cases(g, cat):
        t = i_lower(x, cat, vc)
        for m in cat.all_morphisms():
            tm = t.maps[(cat.object_index(m.source), cat.object_index(m.target), m.rep)]
            lhs = vc.compose(vc.fixed(x, m.source), tm)
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


# ---------------------------------------------------------------------------
# chain G-objects from i_upper


def test_gobject_keeps_permutation_actions(c2cat):
    """Free cells come back with a permutation action."""
    g, cat = c2cat
    for r in (ZZ, PrimeField(2)):
        vc = ChainCat(r)
        for k in cat.family:
            x = i_upper(free_cell_diagram(
                cat, k, normalized_chains(standard_simplex(1), r), vc))
            assert x.action is not None


def test_gobject_refuses_an_action_that_does_not_permute_the_basis(c2):
    """The sign action of C2 on a rank-1 complex is no permutation: refused,
    naming the degree, as a group acts on chain complexes by permutations only."""
    z = concentrated(ZZ, 0)
    minus = ChainMap(z, z, {0: Mat(ZZ, 1, 1, [[-1]])})
    with pytest.raises(ValueError, match="degree 0 do not permute the basis"):
        ChainCat(ZZ).gobject(c2, z, {0: identity_chain_map(z), 1: minus})


def test_gobject_refuses_permutations_that_break_the_action_laws_or_d():
    """Permutation actions are still checked: a swap of the ends of an edge
    does not commute with d, and a permutation per element need not be an action."""
    c2, c4 = cyclic_group(2), cyclic_group(4)
    swap = Mat(ZZ, 2, 2, [[0, 1], [1, 0]])
    edge = normalized_chains(standard_simplex(1), ZZ)
    flip = ChainMap(edge, edge, {0: swap, 1: Mat.identity(ZZ, 1)}, validate=False)
    with pytest.raises(ValueError, match="does not commute with d_1"):
        ChainCat(ZZ).gobject(c2, edge, {0: identity_chain_map(edge), 1: flip})
    two = concentrated(ZZ, 0, 2)
    ident, s = identity_chain_map(two), ChainMap(two, two, {0: swap})
    with pytest.raises(ValueError, match="homomorphism"):
        ChainCat(ZZ).gobject(c4, two, {0: ident, 1: s, 2: s, 3: ident})


def _free_cell_cases(g):
    cat = build_orbit_category(g, all_subgroups(g))
    cells = [concentrated(ZZ, 0), normalized_chains(standard_simplex(1), ZZ)]
    return [free_cell_diagram(cat, k, cell, ChainCat(ZZ)) for k in cat.family for cell in cells]


@pytest.mark.parametrize("g", [cyclic_group(4), symmetric_group(3)], ids=["C4", "S3"])
def test_adjunction_of_free_cells_over_z_solves_no_system(g, monkeypatch):
    """Every invariant is an orbit sum: no exact system is solved."""
    def refuse(*args):
        raise AssertionError("adjunction_check solved an exact system")

    for name in ("solve_z", "solve_field"):
        monkeypatch.setattr(exactla, name, refuse)
    for t in _free_cell_cases(g):
        adjunction_check(t, i_upper(t))


@pytest.mark.parametrize("vc,cell", [(FinSetCat(), 2),
                                     (FinSSetCat(), standard_simplex(1)),
                                     (ChainCat(ZZ), concentrated(ZZ, 0))],
                         ids=["finset", "sset", "chains"])
def test_adjunction_check_builds_each_fixed_point_inclusion_once(vc, cell, monkeypatch):
    """3n inclusions for n objects: of i_upper(T), of x and of i_upper(i_lower x)."""
    g = symmetric_group(3)
    cat = build_orbit_category(g, all_subgroups(g))
    real, calls = type(vc).fixed, []

    def counted(self, x, h):
        calls.append((id(x), h.members))
        return real(self, x, h)

    monkeypatch.setattr(type(vc), "fixed", counted)
    for k in cat.family:
        t = free_cell_diagram(cat, k, cell, vc)
        x = i_upper(t)
        calls.clear()
        adjunction_check(t, x)
        assert len(calls) == 3 * len(cat.family) == len(set(calls)), k


@pytest.mark.parametrize("vc,cell", [(FinSetCat(), 2),
                                     (FinSSetCat(), standard_simplex(1)),
                                     (ChainCat(ZZ), concentrated(ZZ, 0))],
                         ids=["finset", "sset", "chains"])
def test_adjunction_check_of_i_upper_builds_it_and_its_inclusions_once(vc, cell,
                                                                       monkeypatch):
    """Without x, the counit is that of i_upper(T), built once with its n
    inclusions, which serve the unit too: 2n inclusions, one i_upper(T) and
    one i_upper(i_lower x), and the report of adjunction_check(T, i_upper(T))."""
    g = symmetric_group(3)
    cat = build_orbit_category(g, all_subgroups(g))
    real, real_upper, calls, uppers = type(vc).fixed, elmendorf.i_upper, [], []

    def counted(self, x, h):
        calls.append((id(x), h.members))
        return real(self, x, h)

    def counted_upper(t):
        uppers.append(t)
        return real_upper(t)

    for k in cat.family:
        t = free_cell_diagram(cat, k, cell, vc)
        expect = adjunction_check(t, i_upper(t)).to_json()
        monkeypatch.setattr(type(vc), "fixed", counted)
        monkeypatch.setattr(elmendorf, "i_upper", counted_upper)
        calls.clear()
        uppers.clear()
        assert adjunction_check(t).to_json() == expect, k
        assert len(calls) == 2 * len(cat.family) == len(set(calls)), k
        assert len(uppers) == 2 and uppers[0] is t, k
        monkeypatch.undo()


def test_orbit_diagram_rejects_nonfunctorial_data(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    v = 2
    swap = VMap.make(v, v, (1, 0))
    ident = VMap.make(v, v, (0, 1))
    # identity morphism assigned a non-identity map
    with pytest.raises(ValueError, match="identity"):
        OrbitDiagram(cat, vc, {0: v, 1: v},
                     {(0, 0, 0): swap, (0, 0, 1): swap,
                      (0, 1, 0): ident, (1, 1, 0): ident})
    # composition violated: R_t o R_t = R_e but T(R_t)^2 != T(R_e)
    threeval = 3
    bad = VMap.make(threeval, threeval, (1, 2, 0))
    idv = VMap.make(threeval, threeval, (0, 1, 2))
    with pytest.raises(ValueError,
                       match=r"^functoriality fails at R_1\[\{0\}->\{0\}\] o R_1\[\{0\}->\{0\}\]$"):
        OrbitDiagram(cat, vc, {0: threeval, 1: threeval},
                     {(0, 0, 0): idv, (0, 0, 1): bad,
                      (0, 1, 0): idv, (1, 1, 0): idv})
    # a morphism without a structure map (R_1: G/e -> G/e)
    with pytest.raises(ValueError, match=r"no structure map for R_1\[\{0\}->\{0\}\]"):
        OrbitDiagram(cat, vc, {0: v, 1: v},
                     {(0, 0, 0): ident, (0, 1, 0): ident, (1, 1, 0): ident})
    # a key that names no morphism: there is no map G/{0,1} -> G/e
    with pytest.raises(ValueError, match=r"\(1, 0, 0\) names no morphism"):
        OrbitDiagram(cat, vc, {0: v, 1: v},
                     {(0, 0, 0): ident, (0, 0, 1): swap, (0, 1, 0): ident,
                      (1, 1, 0): ident, (1, 0, 0): ident})


# ---------------------------------------------------------------------------
# functoriality on generators against a scan of every composable pair


def full_scan_accepts(cat, vc, values, maps) -> bool:
    """Reference: F(id) = id and F(b a) = F(a) F(b) for every composable a, b."""
    def f(m):
        return maps[(cat.object_index(m.source), cat.object_index(m.target), m.rep)]

    ms = list(cat.all_morphisms())
    try:
        return (all(vc.maps_equal(f(cat.identity(h)), vc.identity(values[i]))
                    for i, h in enumerate(cat.family))
                and all(vc.maps_equal(f(compose_morphisms(b, a)), vc.compose(f(a), f(b)))
                        for a in ms for b in ms if a.target.members == b.source.members))
    except ValueError:  # maps whose endpoints do not compose
        return False


def check_accepts(cat, vc, values, maps) -> bool:
    try:
        OrbitDiagram(cat, vc, values, maps)
    except ValueError:
        return False
    return True


def rotated(vc, m):
    """m with its images moved one place along, or None if nothing changes."""
    if isinstance(vc, FinSetCat):
        out = VMap(m.source, m.target, m.fn[1:] + m.fn[:1])
        return None if out.fn == m.fn else out
    for n in range(m.top + 1):  # a chain map: the columns of one degree
        a = m.mat(n)
        rows = [r[1:] + r[:1] for r in a.rows]
        if rows != a.rows:
            mats = {k: m.mat(k) for k in range(m.top + 1)}
            mats[n] = Mat(a.ring, a.nrows, a.ncols, rows)
            return ChainMap(m.source, m.target, mats, validate=False)
    return None


def widened(vc, m, side):
    """m with one more source or target point (a zero column or row in degree 0)."""
    if isinstance(vc, FinSetCat):
        if side == "target":
            return VMap(m.source, m.target + 1, m.fn)
        return VMap(m.source + 1, m.target, m.fn + (0,)) if m.target else None
    mats = {k: m.mat(k) for k in range(m.top + 1)}
    a = mats[0]
    mats[0] = Mat(a.ring, a.nrows + 1, a.ncols, a.rows + [[0] * a.ncols]) \
        if side == "target" else Mat(a.ring, a.nrows, a.ncols + 1, [r + [0] for r in a.rows])
    return ChainMap(m.source, m.target, mats, validate=False)


def is_identity(m) -> bool:
    return m.source == m.target and m.rep == 0


def mutants(cat, vc, d):
    """(morphism, maps) pairs: one map rotated, widened, or swapped with a sibling."""
    gens = set(cat.generators)
    composites = [m for m in cat.all_morphisms() if m not in gens and not is_identity(m)]
    top = cat.family[-1]  # maps into it meet no generator pair but (s, id)
    picks = (composites[::max(1, len(composites) // 3)]
             + [s for s in cat.generators if s.target == top or s == cat.generators[0]]
             + [cat.identity(top)])
    for m in picks:
        key = (cat.object_index(m.source), cat.object_index(m.target), m.rep)
        changed = [rotated(vc, d.maps[key]), widened(vc, d.maps[key], "source"),
                   widened(vc, d.maps[key], "target")]
        for other in cat.hom[key[:2]]:
            okey = key[:2] + (other.rep,)
            if okey != key and not vc.maps_equal(d.maps[okey], d.maps[key]):
                yield m, {**d.maps, key: d.maps[okey], okey: d.maps[key]}
                break
        for new in changed:
            if new is not None:
                yield m, {**d.maps, key: new}


def built_diagrams(g, cat):
    """free_cell_diagram and i_lower diagrams over finite sets and chains over Z."""
    fs, cz = FinSetCat(), ChainCat(ZZ)
    mid = cat.family[len(cat.family) // 2]
    interval = normalized_chains(standard_simplex(1), ZZ)
    return [(fs, free_cell_diagram(cat, cat.family[0], 2, fs)),
            (fs, free_cell_diagram(cat, mid, 1, fs)),
            (fs, i_lower(coset_gset(g, mid), cat, fs)),
            (cz, free_cell_diagram(cat, mid, interval, cz)),
            (cz, i_lower(normalized_chains(gtensor(coset_gset(g, cat.family[0]),
                                                   standard_simplex(1)), ZZ), cat, cz))]


def _s3_one_order_2():
    g = symmetric_group(3)
    h2 = next(h for h in all_subgroups(g) if len(h.members) == 2)
    return g, [trivial_subgroup(g), h2, full_subgroup(g)]


@pytest.mark.parametrize("g,family", [
    (g, all_subgroups(g)) for g in (cyclic_group(4), symmetric_group(3), dihedral_group(4))]
    + [_s3_one_order_2()], ids=["C4", "S3", "D4", "S3-one-order-2"])
def test_check_on_generators_agrees_with_the_full_scan(g, family):
    """Same verdict as the scan of every pair, on mutants of orbitkit's own diagrams."""
    cat = build_orbit_category(g, family)
    gens = set(cat.generators)
    verdicts = []
    for vc, d in built_diagrams(g, cat):
        assert full_scan_accepts(cat, vc, d.values, d.maps)
        for m, maps in mutants(cat, vc, d):
            got = check_accepts(cat, vc, d.values, maps)
            assert got == full_scan_accepts(cat, vc, d.values, maps), (vc, m)
            verdicts.append((m in gens, is_identity(m), got))
    assert (False, False, False) in verdicts  # a non-generator's damage is caught
    assert (True, False, False) in verdicts and (False, True, False) in verdicts


def test_check_composes_each_generator_pair_once_and_no_identity_pair(monkeypatch):
    """C2 x C4 with every subgroup: 20 generators, 142 pairs instead of 490, and no
    identity pair: each structure map's source and target are compared with the
    values once each instead."""
    from orbitkit.groups import direct_product
    g = direct_product(cyclic_group(2), cyclic_group(4))
    cat = build_orbit_category(g, all_subgroups(g))
    d = free_cell_diagram(cat, cat.family[0], 1, FinSetCat())
    by_map = {id(d.maps[(cat.object_index(m.source), cat.object_index(m.target), m.rep)]): m
              for m in cat.all_morphisms()}
    seen, compared = [], []
    real, real_same = FinSetCat.composes_to, FinSetCat.same_value

    def counted(self, second, first, h):  # check_functorial compares F(b a) with F(a) F(b)
        seen.append((by_map[id(second)], by_map[id(first)]))
        return real(self, second, first, h)

    def counted_same(self, a, b):
        compared.append((id(a), id(b)))
        return real_same(self, a, b)

    monkeypatch.setattr(FinSetCat, "composes_to", counted)
    monkeypatch.setattr(FinSetCat, "same_value", counted_same)
    d.check_functorial()
    expect = [(a, b) for a in cat.generators for b in cat.all_morphisms()
              if b.source.members == a.target.members]
    assert len(cat.generators) == 20 and len(expect) == 142
    assert sorted(seen, key=repr) == sorted(expect, key=repr)
    ends = [pair for (i, j, _), f in d.maps.items()
            for pair in ((id(f.source), id(d.values[j])), (id(f.target), id(d.values[i])))]
    assert len(ends) == 2 * len(list(cat.all_morphisms()))
    assert sorted(compared) == sorted(ends)


def test_finsset_maps_with_other_faces_are_refused():
    """A structure map whose source has the value's ids but not its faces is refused.

    On a non-generator, as the scan of every pair does; the check compares
    each map's source with the value directly.
    """
    g = cyclic_group(4)
    cat = build_orbit_category(g, all_subgroups(g))
    vc = FinSSetCat()
    d = i_lower(with_trivial_action(standard_simplex(1), g), cat, vc)
    m = next(m for m in cat.all_morphisms()
             if m not in set(cat.generators) and m.source != m.target)
    key = (cat.object_index(m.source), cat.object_index(m.target), m.rep)
    src = d.maps[key].source
    edge = next(s for s in src.ids() if src.dim(s) == 1)
    flipped = GSSet(src.group, src.dim_of,
                    {**src.faces, edge: tuple(reversed(src.faces[edge]))}, src.action)
    const = {s: d.maps[key].values[s] for s in src.ids()}
    maps = {**d.maps, key: SMap(flipped, d.maps[key].target, const, validate=False)}
    assert not full_scan_accepts(cat, vc, d.values, maps)
    with pytest.raises(ValueError, match=r"^the structure map of R_1\[\{0\}->\{0,2\}\] "
                                         "does not run between the values at its ends$"):
        OrbitDiagram(cat, vc, d.values, maps)


def test_chain_maps_from_a_complex_with_another_differential_are_refused():
    """On the C2 free cells of disk(Z, 1), each structure map given a source
    with the value's ranks and matrices but d doubled is refused, also under -O
    (``maps_equal`` compares matrices only, so this is the endpoint check)."""
    script = textwrap.dedent("""
        import sys
        from orbitkit.chains import ChainComplex, ChainMap, disk
        from orbitkit.elmendorf import ChainCat, OrbitDiagram, free_cell_diagram
        from orbitkit.groups import all_subgroups, cyclic_group
        from orbitkit.orbitcat import build_orbit_category
        from orbitkit.rings import ZZ
        g = cyclic_group(2)
        cat = build_orbit_category(g, all_subgroups(g))
        vc, refused = ChainCat(ZZ), 0
        for k in cat.family:
            t = free_cell_diagram(cat, k, disk(ZZ, 1), vc)
            for key, f in t.maps.items():
                if f.source.d(1).is_zero():
                    continue  # doubling changes nothing
                doubled = ChainComplex(ZZ, f.source.ranks, {1: f.source.d(1) + f.source.d(1)})
                bad = ChainMap(doubled, f.target, {n: f.mat(n) for n in range(f.top + 1)},
                               validate=False)
                try:
                    OrbitDiagram(cat, vc, t.values, {**t.maps, key: bad})
                except ValueError as exc:
                    if "does not run between the values" not in str(exc):
                        sys.exit(f"wrong error: {exc}")
                    refused += 1
                else:
                    sys.exit(f"accepted a map from another complex at {key}")
        sys.exit(0 if refused == 6 else f"refused {refused} mutants, want 6")
    """)
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (flags, proc.stderr)


# ---------------------------------------------------------------------------
# free cells


def test_free_cell_at_full_subgroup_is_constant(c2cat):
    g, cat = c2cat
    vc = FinSetCat()
    t = free_cell_diagram(cat, full_subgroup(g), 2, vc)
    assert t.values[0] == 2 and t.values[1] == 2


def test_free_cell_sizes_from_hom_counts():
    g = symmetric_group(3)
    cat = build_orbit_category(g, all_subgroups(g))
    vc = FinSetCat()
    for k_idx, k in enumerate(cat.family):
        t = free_cell_diagram(cat, k, 1, vc)
        for i in range(len(cat.family)):
            assert t.values[i] == len(cat.hom[(i, k_idx)])


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
    fixtures = [regular_gset(g), trivial_gset(g, 3), coset_gset(g, full_subgroup(g))]
    t = free_cell_diagram(cat, trivial_subgroup(g), 1, vc)
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
        cases += [(g, FinSetCat(), cell) for cell in (1, 2)]
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


@pytest.mark.parametrize("g", [cyclic_group(4), symmetric_group(3),
                               direct_product(cyclic_group(2), cyclic_group(4))],
                         ids=["C4", "S3", "C2xC4"])
def test_finset_reports_match_those_of_discrete_ssets(g):
    """A G-set is a discrete G-simplicial set: on free cells of n points the
    adjunction and cellularity reports of the two value categories agree, a
    size n reading as n vertices (and 0 as the empty simplicial set, which has
    no dimensions)."""
    fam = all_subgroups(g)
    cat = build_orbit_category(g, fam)
    fs, ss = FinSetCat(), FinSSetCat()
    for n in range(3):
        points = disjoint_copies(point_sset(), n)[0]
        for k in fam:
            t_fs, t_ss = (free_cell_diagram(cat, k, c, vc) for vc, c in ((fs, n), (ss, points)))
            assert (adjunction_check(t_fs, i_upper(t_fs)).to_json()
                    == adjunction_check(t_ss, i_upper(t_ss)).to_json()), (n, k.label)
            for h in fam:
                r_fs = cellularity_report(g, h, k, n, fs)
                r_ss = cellularity_report(g, h, k, points, ss)
                assert (r_fs.iso, r_fs.fixed_cosets) == (r_ss.iso, r_ss.fixed_cosets)
                for size, counts in ((r_fs.lhs, r_ss.lhs), (r_fs.rhs, r_ss.rhs)):
                    assert counts == ({"0": size} if size else {}), (n, k.label, h.label)


def test_counit_that_misses_fixed_points_is_internal_error(c2cat, monkeypatch):
    g, cat = c2cat
    x = make_gset(g, {0: [0, 1, 2], 1: [0, 2, 1]})
    counit_map = elmendorf.counit_map

    def swapped_counit(y, cat, vcat, *fixed):
        """The counit of x swaps its fixed point 0 with the moved point 1."""
        d, lhs, eps = counit_map(y, cat, vcat, *fixed)
        if y is x:
            fn = list(eps.fn)
            fn[0], fn[1] = fn[1], fn[0]
            eps = VMap.make(eps.source, eps.target, fn)
        return d, lhs, eps

    monkeypatch.setattr(elmendorf, "counit_map", swapped_counit)
    vc = FinSetCat()
    t = free_cell_diagram(cat, trivial_subgroup(g), 1, vc)
    with pytest.raises(InternalError, match="counit"):
        adjunction_check(t, x)


def _three_points(g):
    """Vertex 0 fixed, vertices 1 and 2 swapped by the generator of C2."""
    return GSSet(g, {0: 0, 1: 0, 2: 0}, {},
                 {0: {0: 0, 1: 1, 2: 2}, 1: {0: 0, 1: 2, 2: 1}})


def test_finsset_maps_that_miss_fixed_points_are_internal_errors(c2cat, monkeypatch):
    g, cat = c2cat
    vc = FinSSetCat()
    x = _three_points(g)
    fixed = vc.fixed(x, full_subgroup(g))
    with pytest.raises(ValueError, match="unknown simplex 1"):
        vc.corestrict(vc.identity(x), fixed)
    counit_map = elmendorf.counit_map

    def swapped_counit(y, cat, vcat, *fixed):
        """The counit of x swaps its fixed vertex 0 with the moved vertex 1."""
        d, lhs, eps = counit_map(y, cat, vcat, *fixed)
        if y is x:
            eps = SMap(eps.source, eps.target,
                       {**eps.values, 0: SimplexRef(1), 1: SimplexRef(0)})
        return d, lhs, eps

    monkeypatch.setattr(elmendorf, "counit_map", swapped_counit)
    t = free_cell_diagram(cat, trivial_subgroup(g), standard_simplex(0), vc)
    with pytest.raises(InternalError, match="counit"):
        adjunction_check(t, x)


def test_finsset_maps_that_miss_fixed_points_raise_under_python_O():
    script = textwrap.dedent("""
        import sys
        from orbitkit import elmendorf
        from orbitkit.errors import InternalError
        from orbitkit.groups import all_subgroups, cyclic_group, full_subgroup
        from orbitkit.orbitcat import build_orbit_category
        from orbitkit.simplicial import GSSet, SMap, SimplexRef, standard_simplex
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        g = cyclic_group(2)
        cat = build_orbit_category(g, all_subgroups(g))
        vc = elmendorf.FinSSetCat()
        x = GSSet(g, {0: 0, 1: 0, 2: 0}, {},
                  {0: {0: 0, 1: 1, 2: 2}, 1: {0: 0, 1: 2, 2: 1}})
        try:
            vc.corestrict(vc.identity(x), vc.fixed(x, full_subgroup(g)))
            sys.exit("corestrict accepted a map that misses the fixed points")
        except ValueError:
            pass
        counit_map = elmendorf.counit_map

        def swapped_counit(y, cat, vcat, *fixed):
            d, lhs, eps = counit_map(y, cat, vcat, *fixed)
            if y is x:
                eps = SMap(eps.source, eps.target,
                           {**eps.values, 0: SimplexRef(1), 1: SimplexRef(0)})
            return d, lhs, eps

        elmendorf.counit_map = swapped_counit
        t = elmendorf.free_cell_diagram(cat, cat.family[0], standard_simplex(0), vc)
        try:
            elmendorf.adjunction_check(t, x)
            sys.exit("a counit that misses the fixed points was accepted")
        except InternalError as exc:
            if "counit" not in str(exc):
                sys.exit(f"wrong error: {exc}")
    """)
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    units = unit_maps(t, x)
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
        for assignment in iproduct(range(tgt), repeat=src):
            fns.append(VMap.make(src, tgt, assignment))
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
        diagrams = [free_cell_diagram(cat, k, 1, vc) for k in fam]
        gsets = [regular_gset(g), trivial_gset(g, 2),
                 coset_gset(g, fam[1] if len(fam) > 1 else fam[0])]
        for t in diagrams:
            xt = i_upper(t)
            for y in gsets:
                lhs = enumerate_gmaps(xt, y)
                rhs = enumerate_naturals(t, i_lower(y, cat, vc))
                assert lhs == rhs, (t, y)


# ---------------------------------------------------------------------------
# cellularity


def test_cellularity_positive_for_sets_and_ssets():
    for g in (cyclic_group(2), symmetric_group(3)):
        fam = all_subgroups(g)
        for h in fam:
            for k in fam:
                r = cellularity_report(g, h, k, 2, FinSetCat())
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


def brute_force_census(cat):
    """The loop the census ran before backtracking: all 2^n assignments."""
    n = len(cat.family)
    constraints = [(i, j) for (i, j), ms in cat.hom.items() if ms]
    assignments = []
    for bits in range(2 ** n):
        t = [(bits >> i) & 1 for i in range(n)]
        if all(t[j] <= t[i] for i, j in constraints):
            assignments.append({cat.family[i].label: t[i] for i in range(n)})
    assignments.sort(key=lambda d: tuple(sorted(d.items())))
    return assignments


def _census_families():
    import random
    from orbitkit.groups import direct_product, group_from_generators
    a4 = group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4")
    rng = random.Random(12)
    out = []
    for name, g in (("C1", cyclic_group(1)), ("C2", cyclic_group(2)),
                    ("C4", cyclic_group(4)), ("C6", cyclic_group(6)),
                    ("S3", symmetric_group(3)), ("D4", dihedral_group(4)), ("A4", a4),
                    ("C2xC4", direct_product(cyclic_group(2), cyclic_group(4))),
                    ("C2^3", direct_product(cyclic_group(2),
                                            direct_product(cyclic_group(2),
                                                           cyclic_group(2))))):
        subs = all_subgroups(g)
        assert len(subs) <= 16
        out.append((f"{name}-all", g, subs))
        out.append((f"{name}-nontrivial", g, [h for h in subs if not h.is_trivial()]))
        for r in range(2):
            out.append((f"{name}-random{r}", g, rng.sample(subs, rng.randint(1, len(subs)))))
    return out


CENSUS_FAMILIES = _census_families()


@pytest.mark.parametrize("g,family", [c[1:] for c in CENSUS_FAMILIES],
                         ids=[c[0] for c in CENSUS_FAMILIES])
def test_census_matches_the_brute_force_loop(g, family):
    cat = build_orbit_category(g, family)
    rep = arrow_poset_census(cat)
    assert rep.assignments == brute_force_census(cat)
    assert rep.diagram_count == rep.diagram_classes == len(rep.assignments)


def test_census_s4_matches_a_brute_force_over_conjugacy_classes():
    """Conjugate subgroups share their value; 2^11 class assignments, not 2^30."""
    g = symmetric_group(4)
    subs = all_subgroups(g)
    classes = []
    for h in subs:
        if not any(h.members in c for c in classes):
            classes.append({tuple(sorted(g.mult[g.mult[a][x]][g.inv[a]] for x in h.members))
                            for a in g.elements()})
    assert len(classes) == 11

    def subconjugate(hs, ks):  # some a with a^-1 H a inside K, from the table alone
        h, k = min(hs), set(min(ks))
        return any(all(g.mult[g.mult[g.inv[a]][x]][a] in k for x in h)
                   for a in g.elements())

    below = [[subconjugate(a, b) for b in classes] for a in classes]
    expect = []
    for bits in range(2 ** len(classes)):
        t = [(bits >> c) & 1 for c in range(len(classes))]
        if all(t[b] <= t[a] for a in range(len(classes)) for b in range(len(classes))
               if below[a][b]):
            value = {m: t[c] for c, cl in enumerate(classes) for m in cl}
            expect.append({h.label: value[h.members] for h in subs})
    expect.sort(key=lambda d: tuple(sorted(d.items())))
    rep = arrow_poset_census(build_orbit_category(g, subs))
    assert rep.diagram_count == 54
    assert rep.assignments == expect


def test_census_refuses_past_the_cap(tmp_path, capsys):
    """C2^4 has 67 subgroups and more than 10,000 diagrams: exit 2, at once."""
    import json
    import time
    from orbitkit.cli import main
    from orbitkit.groups import direct_product
    c2 = cyclic_group(2)
    g = direct_product(direct_product(c2, c2), direct_product(c2, c2))
    path = tmp_path / "c2_4.json"
    path.write_text(json.dumps({"order": g.order, "mult": [list(r) for r in g.mult]}))
    t0 = time.perf_counter()
    code = main(["census", "--group", str(path), "--family", "all"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    err = capsys.readouterr().err
    assert f"MAX_CENSUS_DIAGRAMS = {elmendorf.MAX_CENSUS_DIAGRAMS}" in err
    assert elmendorf.MAX_CENSUS_DIAGRAMS == 10_000


def test_census_at_the_cap_is_accepted(monkeypatch):
    """The cap refuses more than MAX_CENSUS_DIAGRAMS diagrams, not as many."""
    g = symmetric_group(4)
    cat = build_orbit_category(g, all_subgroups(g))
    monkeypatch.setattr(elmendorf, "MAX_CENSUS_DIAGRAMS", 54)
    assert arrow_poset_census(cat).diagram_count == 54
    monkeypatch.setattr(elmendorf, "MAX_CENSUS_DIAGRAMS", 53)
    with pytest.raises(ValueError, match="MAX_CENSUS_DIAGRAMS = 53"):
        arrow_poset_census(cat)


def test_census_on_larger_lattices_is_quick():
    import time
    for g, count in ((dihedral_group(8), 47), (symmetric_group(4), 54)):
        cat = build_orbit_category(g, all_subgroups(g))
        t0 = time.perf_counter()
        assert arrow_poset_census(cat).diagram_count == count
        assert time.perf_counter() - t0 < 1.0

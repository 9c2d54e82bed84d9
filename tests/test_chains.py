"""Chain complexes: normalized chains, invariants, homology, prism homotopies."""

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import orbitkit
from conftest import action_matrix, dense, dense_mat, from_columns, reference_kernel, \
    stock_groups, swap_boundary1, vee
from orbitkit import chains, exactla
from orbitkit.chains import ChainComplex, ChainHomotopy, ChainMap, HomologyGroup, \
    chain_maps_equal, compose_chain_maps, concentrated, corestrict, disk, equivariance_defect, \
    fixed_chains, homology, homotopy_defect, identity_chain_map, invariants, is_acyclic, \
    is_quasi_iso, mapping_cone, normalized_chain_map, normalized_chains, orbit_reduction, \
    prism_homotopy, restrict_to_invariants, zero_complex
from hypothesis import given, settings, strategies as st

from orbitkit.cli import main
from orbitkit.elmendorf import ChainCat
from orbitkit.errors import InternalError
from orbitkit.exactla import Mat, rank
from orbitkit.groups import all_subgroups, cyclic_group, dihedral_group, full_subgroup, \
    klein_four_group, subgroup, symmetric_group, trivial_subgroup
from orbitkit.gsets import GSet, coset_gset, make_gset, regular_gset, trivial_gset
from orbitkit.rings import PrimeField, QQ, ZZ
from orbitkit.simplicial import TRIVIAL_GROUP, GSSet, SimplexRef, SMap, boundary_simplex, \
    compose_smaps, fixed_sset, gtensor, identity_smap, make_smap, point_sset, prism, \
    sset_to_json, standard_simplex


# ---------------------------------------------------------------------------
# normalized chains


def test_chains_of_point():
    c = normalized_chains(point_sset(), ZZ)
    assert c.ranks == (1,)
    assert [h.free_rank for h in homology(c)] == [1]


def test_chains_of_interval():
    c = normalized_chains(standard_simplex(1), ZZ)
    assert c.ranks == (2, 1)
    assert dense(c.d(1)) == [[-1], [1]]


def test_chains_of_swap_boundary(c2):
    c = normalized_chains(swap_boundary1(c2), ZZ)
    assert c.ranks == (2,)
    assert dense(action_matrix(c, 1, 0)) == [[0, 1], [1, 0]]


def test_degenerate_faces_contribute_zero(c2):
    # the prism of a point has middle cells with degenerate projections;
    # normalized chains of the interval still give d(edge) = v1 - v0
    pr = prism(point_sset())
    c = normalized_chains(pr.product, ZZ)
    assert c.ranks == (2, 1)
    col = [c.d(1).rows[i][0] for i in range(2)]
    assert sorted(col) == [-1, 1]


def test_functoriality_of_normalized_chains():
    d1 = standard_simplex(1)
    pt = point_sset()
    f = make_smap(pt, d1, {0: 0})
    collapse = make_smap(d1, pt, {0: 0, 1: 0, 2: (0, (0,))})
    cf = normalized_chain_map(f, ZZ)
    cc = normalized_chain_map(collapse, ZZ)
    comp_smap = compose_smaps(collapse, f)
    comp_chain = normalized_chain_map(comp_smap, ZZ)
    assert chain_maps_equal(comp_chain,
                            ChainMap(cf.source, cc.target,
                                     {0: cc.mat(0) @ cf.mat(0)}, validate=False))


def test_d_squared_guard():
    with pytest.raises(ValueError, match="d_1 d_2"):
        ChainComplex(ZZ, (1, 1, 1), {1: dense_mat(ZZ, 1, 1, [[1]]),
                                     2: dense_mat(ZZ, 1, 1, [[1]])})


def test_negative_rank_is_refused():
    with pytest.raises(ValueError, match="negative rank -1 in degree 1"):
        ChainComplex(ZZ, [1, -1], {})


# ---------------------------------------------------------------------------
# invariants


def test_invariants_trivial_subgroup_is_identity(c2):
    c = normalized_chains(swap_boundary1(c2), ZZ)
    inv, incl = invariants(c, trivial_subgroup(c2))
    assert inv.ranks == c.ranks
    assert dense(incl.mat(0)) == [[1, 0], [0, 1]]


def test_invariants_regular_rep_orbit_sum(c2):
    c = normalized_chains(swap_boundary1(c2), ZZ)
    inv, incl = invariants(c, full_subgroup(c2))
    assert inv.ranks == (1,)
    assert dense(incl.mat(0)) == [[1], [1]]


def test_invariants_regular_rep_over_f2(c2):
    f2 = PrimeField(2)
    c = normalized_chains(swap_boundary1(c2), f2)
    inv, incl = invariants(c, full_subgroup(c2))
    assert inv.ranks == (1,)
    assert [row[0] for row in incl.mat(0).rows] == [f2.one, f2.one]


def test_invariants_differential_commutes(c2):
    x = vee(c2)
    c = normalized_chains(x, ZZ)
    inv, incl = invariants(c, full_subgroup(c2))
    assert inv.ranks == (2, 1)
    assert incl.mat(0) @ inv.d(1) == c.d(1) @ incl.mat(1)


def test_corestrict_refuses_a_matrix_map_off_the_invariants(c2):
    # a map given by matrices is factored as P f and checked by K (P f) = f
    c = ChainComplex(ZZ, (2,), {}, [regular_gset(c2)])
    inv, incl = invariants(c, full_subgroup(c2))
    hits_sum = ChainMap(concentrated(ZZ, 0), c, {0: dense_mat(ZZ, 2, 1, [[3], [3]])})
    assert dense(corestrict(hits_sum, incl).mat(0)) == [[3]]
    hits_e1 = ChainMap(concentrated(ZZ, 0), c, {0: dense_mat(ZZ, 2, 1, [[1], [0]])})
    with pytest.raises(InternalError, match="does not factor"):
        corestrict(hits_e1, incl)


def test_invariants_reject_a_differential_that_does_not_restrict(c2):
    # built without validation: d sends the one 1-cell to one point of a swapped pair
    c = ChainComplex(ZZ, (2, 1), {1: dense_mat(ZZ, 2, 1, [[1], [0]])},
                     (coset_gset(c2, trivial_subgroup(c2)), trivial_gset(c2, 1)),
                     validate=False)
    with pytest.raises(InternalError, match="must restrict"):
        invariants(c, full_subgroup(c2))


def moore_space(m: int) -> GSSet:
    """M(Z/m, 1): a vertex 0, loops 1..m, a triangle m + k with faces (1, k + 1, k)
    for k < m, so loop k is k times loop 1 in homology, and a triangle 2m with
    faces (m, s0 0, s0 0); for m = 2, triangle 3 has faces (1, 2, 1)."""
    loop, s0v = (SimplexRef(0), SimplexRef(0)), SimplexRef(0, (0,))
    dim_of = {0: 0, **{e: 1 for e in range(1, m + 1)}, **{t: 2 for t in range(m + 1, 2 * m + 1)}}
    faces = {**{e: loop for e in range(1, m + 1)},
             **{m + k: (SimplexRef(1), SimplexRef(k + 1), SimplexRef(k)) for k in range(1, m)},
             2 * m: (SimplexRef(m), s0v, s0v)}
    return GSSet(TRIVIAL_GROUP, dim_of, faces, {0: {s: s for s in dim_of}})


def fixed_chains_comparison(x, h, ring) -> ChainMap:
    """The canonical map C(X^H) -> C(X)^H: fixed simplices are singleton orbit sums."""
    c = normalized_chains(x, ring)
    return corestrict(normalized_chain_map(fixed_sset(x, h)[1], ring, cy=c),
                      invariants(c, h)[1])


def test_orbit_sums_factor_without_solving(c2, monkeypatch):
    calls = []

    def counting(core):
        def counted(*args, **kwargs):
            calls.append(core.__name__)
            return core(*args, **kwargs)
        return counted

    for name in ("_echelon", "rref", "_forward_rank"):  # every elimination core
        monkeypatch.setattr(exactla, name, counting(getattr(exactla, name)))
    c = normalized_chains(vee(c2), ZZ)
    for h in (trivial_subgroup(c2), full_subgroup(c2)):
        inv, incl = invariants(c, h)
        assert chain_maps_equal(corestrict(incl, incl), identity_chain_map(inv))
        fixed_chains_comparison(vee(c2), h, ZZ)
    assert calls == []


def test_fixed_chains_comparison_injective_never_conflated(c2):
    x = vee(c2)
    cmp_map = fixed_chains_comparison(x, full_subgroup(c2), ZZ)
    # fixed chains: just the middle vertex; invariants also see orbit sums
    assert cmp_map.source.ranks == (1,)
    assert cmp_map.target.ranks == (2, 1)
    # injective: the single column is nonzero and primitive
    col = [cmp_map.mat(0).rows[i][0] for i in range(2)]
    assert col.count(0) == 1 and sorted(col) == [0, 1]


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from([cyclic_group(2), cyclic_group(4), symmetric_group(3),
                              dihedral_group(4)]),
       data=st.data(), base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(0, 2), ring=st.sampled_from([ZZ, QQ, PrimeField(2)]))
def test_fixed_chains_comparison_is_injective(group, data, base, n, ring):
    # C(X^H) -> C(X)^H has full column rank in every degree, for every H
    subgroups = all_subgroups(group)
    x = gtensor(coset_gset(group, data.draw(st.sampled_from(subgroups))), base(n))
    for h in subgroups:
        cmp_map = fixed_chains_comparison(x, h, ring)
        for d in range(cmp_map.source.top + 1):
            assert rank(cmp_map.mat(d)) == cmp_map.source.rank(d), (h, d)


SMALL_GROUPS = [g for g in stock_groups() if g.order <= 12]
FIXED_CHAINS_BASES = st.one_of(st.builds(standard_simplex, st.integers(0, 2)),
                               st.builds(boundary_simplex, st.integers(1, 3)),
                               st.builds(moore_space, st.integers(2, 4)))
RING_TAGS = {"Z": ZZ, "Q": QQ, "Fp:2": PrimeField(2)}


def disjoint_union(x: GSSet, y: GSSet) -> GSSet:
    """x and y side by side over their common group, y's ids shifted past x's."""
    shift = max(x.dim_of, default=-1) + 1
    return GSSet(x.group, {**x.dim_of, **{s + shift: n for s, n in y.dim_of.items()}},
                 {**x.faces, **{s + shift: tuple(r._replace(base=r.base + shift) for r in fs)
                                for s, fs in y.faces.items()}},
                 {g: {**x.action[g], **{s + shift: t + shift for s, t in y.action[g].items()}}
                  for g in x.group.elements()})


@st.composite
def orbit_tensors(draw) -> GSSet:
    """G/K (x) A for a stock group of order <= 12, each of its subgroups K, and A
    one of Delta[n], the boundary of Delta[n] and M(Z/m, 1); or two such side by side."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    subgroups = all_subgroups(group)
    x, y = (gtensor(coset_gset(group, draw(st.sampled_from(subgroups))),
                    draw(FIXED_CHAINS_BASES)) for _ in range(2))
    return disjoint_union(x, y) if draw(st.booleans()) else x


@settings(max_examples=40, deadline=None)
@given(x=orbit_tensors())
def test_fixed_chains_are_the_chains_of_the_fixed_points(x):
    # for every H and ring: C(X) on its H-fixed basis has the ranks, degrees and
    # differentials of C(X^H), and homology's fixed-point column is its homology
    with tempfile.TemporaryDirectory() as tmp:
        group, sset, out = (os.path.join(tmp, name) for name in ("g.json", "x.json", "out"))
        with open(group, "w", encoding="utf-8") as fh:
            json.dump({"order": x.group.order, "mult": x.group.mult}, fh)
        with open(sset, "w", encoding="utf-8") as fh:
            json.dump(sset_to_json(x), fh)
        for tag, ring in RING_TAGS.items():
            c = normalized_chains(x, ring)
            assert main(["homology", "--group", group, "--sset", sset, "--family", "all",
                         "--ring", tag, "--format", "json", "--out", out]) == 0
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            for h in all_subgroups(x.group):
                got, want = fixed_chains(c, h), normalized_chains(fixed_sset(x, h)[0], ring)
                assert got.group is None and (got.ranks, got.top) == (want.ranks, want.top)
                assert all(got.d(n) == want.d(n) for n in range(1, want.top + 1)), (tag, h)
                assert report[h.label]["chains_of_fixed_points"] == [
                    {"degree": g.degree, "free": g.free_rank, "torsion": list(g.torsion)}
                    for g in homology(want)], (tag, h)


def test_fixed_chains_share_the_matrices_when_h_moves_nothing(c2):
    c = normalized_chains(vee(c2), ZZ)
    plain = fixed_chains(c, trivial_subgroup(c2))
    assert plain.group is None and plain.d(1) is c.d(1)
    free = normalized_chains(gtensor(coset_gset(c2, trivial_subgroup(c2)),
                                     standard_simplex(2)), ZZ)
    assert fixed_chains(free, full_subgroup(c2)).ranks == (0,)  # ends at degree 0
    middle = fixed_chains(c, full_subgroup(c2))  # the vertex m
    assert (middle.ranks, middle.top) == ((1,), 0)


# a C2 complex whose d is equivariant but takes the fixed vector e to a + b,
# a and b swapped: the fixed basis vectors are not a subcomplex
UNCLOSED = """
from orbitkit.chains import ChainComplex, fixed_chains
from orbitkit.errors import InternalError
from orbitkit.exactla import Mat
from orbitkit.groups import cyclic_group, full_subgroup
from orbitkit.gsets import GSet
from orbitkit.rings import ZZ
c2 = cyclic_group(2)
c = ChainComplex(ZZ, (2, 1), {1: Mat(ZZ, 2, 1, [{0: 1}, {0: 1}])},
                 [GSet(c2, 2, ((0, 1), (1, 0))), GSet(c2, 1, ((0,), (0,)))])
try:
    fixed_chains(c, full_subgroup(c2))
    refused = None
except InternalError as exc:
    refused = str(exc)
"""


def test_fixed_chains_refuse_a_differential_that_leaves_the_fixed_basis():
    namespace = {}
    exec(UNCLOSED, namespace)
    assert "d_1 takes a fixed basis vector out" in (namespace["refused"] or "")
    script = UNCLOSED + "import sys\nsys.exit(0 if refused and sys.flags.optimize else 1)\n"
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# homology


def test_disks_and_spheres():
    for n in range(1, 6):
        assert is_acyclic(disk(ZZ, n))
    assert [ (h.free_rank, h.torsion) for h in homology(concentrated(ZZ, 0)) ] \
        == [(1, ())]
    assert homology(concentrated(ZZ, 0)) == [HomologyGroup(0, 1)] == [HomologyGroup(0, 1, ())]
    for n in (2, 3):
        hs = homology(normalized_chains(boundary_simplex(n), ZZ))
        assert hs[0].free_rank == 1 and not hs[0].torsion
        assert hs[n - 1].free_rank == 1 and not hs[n - 1].torsion
        assert all(hs[k].is_zero() for k in range(1, n - 1))


def test_torsion():
    c = ChainComplex(ZZ, (1, 1), {1: dense_mat(ZZ, 1, 1, [[2]])})
    hs = homology(c)
    assert hs[0].free_rank == 0 and hs[0].torsion == (2,)
    assert hs[1].is_zero()
    assert hs[0].text() == "Z/2"
    assert repr(hs[0]) == "HomologyGroup(degree=0, free_rank=0, torsion=(2,))"


def test_torsion_chain_divisibility():
    d = dense_mat(ZZ, 2, 2, [[2, 0], [0, 4]])
    c = ChainComplex(ZZ, (2, 2), {1: d})
    hs = homology(c)
    assert hs[0].torsion == (2, 4)


def gauss_rank_mod_p(rows, p):
    """Plain row-reduction rank mod p, independent of the library."""
    a = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, len(a)):
            if a[i][col] % p:
                piv = i
                break
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


def random_fp_complex(rng, ring, max_rank=6, top=3):
    """Random complex over F_p with d*d = 0 by construction."""
    ranks = [rng.randint(0, max_rank) for _ in range(top + 1)]
    diffs = {}
    prev_kernel = None
    for n in range(1, top + 1):
        if ranks[n - 1] == 0 or ranks[n] == 0:
            diffs[n] = Mat(ring, ranks[n - 1], ranks[n])
            prev_kernel = None
            continue
        if prev_kernel is None:
            m = dense_mat(ring, ranks[n - 1], ranks[n],
                          [[rng.randint(-3, 3) for _ in range(ranks[n])]
                           for _ in range(ranks[n - 1])])
        else:
            k = from_columns(ring, ranks[n - 1], prev_kernel)
            coeff = dense_mat(ring, k.ncols, ranks[n],
                              [[rng.randint(-3, 3) for _ in range(ranks[n])]
                               for _ in range(k.ncols)])
            m = k @ coeff
        diffs[n] = m
        prev_kernel = reference_kernel(m)
    return ChainComplex(ring, ranks, diffs)


@pytest.mark.parametrize("p", [2, 3])
def test_homology_smith_path_matches_field_gauss_oracle(p):
    ring = PrimeField(p)
    rng = random.Random(100 + p)
    for _ in range(60):
        c = random_fp_complex(rng, ring)
        hs = homology(c)
        for n in range(c.top + 1):
            rows_n, rows_n1 = dense(c.d(n)), dense(c.d(n + 1))
            r_n = gauss_rank_mod_p(rows_n, p) if c.rank(n) and c.rank(n - 1) else 0
            r_n1 = gauss_rank_mod_p(rows_n1, p) if c.rank(n + 1) and c.rank(n) else 0
            betti = c.rank(n) - r_n - r_n1
            assert hs[n].free_rank == betti
            assert hs[n].torsion == ()


def random_z_complex(rng, max_rank=5, top=3):
    """Random integer complex; each d_{n+1} maps into a sublattice of ker d_n,
    so homology often has torsion."""
    ranks = [rng.randint(1, max_rank) for _ in range(top + 1)]
    diffs = {}
    kernel = [[int(i == j) for i in range(ranks[0])] for j in range(ranks[0])]
    for n in range(1, top + 1):
        k = from_columns(ZZ, ranks[n - 1], kernel)
        rows = [[rng.randint(-3, 3) for _ in range(ranks[n])] for _ in range(k.ncols)]
        diffs[n] = k @ dense_mat(ZZ, k.ncols, ranks[n], rows)
        kernel = reference_kernel(diffs[n])
    return ChainComplex(ZZ, ranks, diffs)


def test_universal_coefficients_across_z_q_fp():
    """Field homology (row reduction) against integer homology (Smith form):
    b_n over Q is the free rank over Z, and over F_p each Z/t with p | t in
    degrees n and n-1 adds one dimension."""
    rng = random.Random(2027)
    torsion_seen = 0
    for _ in range(40):
        c = random_z_complex(rng)
        hz = homology(c)
        torsion_seen += sum(len(h.torsion) for h in hz)
        for ring in (QQ, PrimeField(2), PrimeField(3), PrimeField(5)):
            cf = ChainComplex(ring, c.ranks, {n: dense_mat(ring, c.rank(n - 1), c.rank(n),
                                                           c.d(n).rows)
                                              for n in range(1, c.top + 1)})
            for n, h in enumerate(homology(cf)):
                want = hz[n].free_rank
                if ring != QQ:
                    below = hz[n - 1].torsion if n else ()
                    want += sum(1 for t in hz[n].torsion + below if t % ring.p == 0)
                assert (h.free_rank, h.torsion) == (want, ()), (ring, n)
    assert torsion_seen >= 20


# ---------------------------------------------------------------------------
# quasi-isomorphisms


def test_quasi_iso_identity_and_disks():
    c = normalized_chains(boundary_simplex(2), ZZ)
    assert is_quasi_iso(identity_chain_map(c))
    for n in range(1, 4):
        f = ChainMap(zero_complex(ZZ), disk(ZZ, n), {})
        assert is_quasi_iso(f)
    f = ChainMap(zero_complex(ZZ), concentrated(ZZ, 0), {})
    assert not is_quasi_iso(f)


def test_quasi_iso_detects_multiplication_by_two():
    z = concentrated(ZZ, 0)
    f = ChainMap(z, z, {0: dense_mat(ZZ, 1, 1, [[2]])})
    assert not is_quasi_iso(f)
    over_q = concentrated(QQ, 0)
    fq = ChainMap(over_q, over_q, {0: dense_mat(QQ, 1, 1, [[2]])})
    assert is_quasi_iso(fq)


def test_mapping_cone_shape():
    c = normalized_chains(standard_simplex(1), ZZ)
    cone = mapping_cone(identity_chain_map(c))
    assert cone.ranks == (2, 3, 1)
    assert is_acyclic(cone)


def test_the_cone_of_an_equivariant_map_carries_the_sum_action(s3):
    k = next(h for h in all_subgroups(s3) if h.order == 2)
    orbit = coset_gset(s3, k)
    x = gtensor(orbit, standard_simplex(1))
    bdry = gtensor(orbit, boundary_simplex(1))
    incl = SMap(bdry, x, {s: SimplexRef(s // 2 * 3 + s % 2) for s in bdry.ids()})
    for f in (identity_smap(x), prism(x).end0, incl):
        for ring in (ZZ, PrimeField(2)):
            cf = normalized_chain_map(f, ring)
            cone = mapping_cone(cf)
            assert cone.group is s3
            cone.validate()  # G-sets valid, d commutes with every generator
            src, tgt = cf.source, cf.target
            diffs = {n: cone.d(n) for n in range(1, cone.top + 1)}

            def acts(c, n):
                return c.action[n].act if 0 <= n <= c.top else [()] * s3.order

            # mutant: the source summand not shifted past the target's rank
            unshifted = [GSet(s3, r, tuple(y + x for y, x in
                                           zip(acts(tgt, n), acts(src, n - 1))))
                         for n, r in enumerate(cone.ranks)]
            with pytest.raises(ValueError, match="permutation"):
                ChainComplex(ring, cone.ranks, diffs, unshifted)
    plain = normalized_chain_map(incl, ZZ)
    plain.equivariant = False
    assert mapping_cone(plain).action is None and mapping_cone(plain).group is None


# ---------------------------------------------------------------------------
# prism homotopies


def test_prism_homotopy_point_against_hand_computation():
    pt = point_sset()
    pr = prism(pt)
    cprod = normalized_chains(pr.product, ZZ)
    hc = identity_chain_map(cprod)
    phi = prism_homotopy(hc, pr)
    # phi_0(vertex) = +- the edge; its boundary is the endpoint difference
    assert [abs(v) for row in phi.mat(0).rows for v in row] == [1]
    e0 = normalized_chain_map(pr.end0, ZZ, normalized_chains(pt, ZZ), cprod)
    e1 = normalized_chain_map(pr.end1, ZZ, normalized_chains(pt, ZZ), cprod)
    assert cprod.d(1) @ phi.mat(0) == e1.mat(0) - e0.mat(0)


def test_prism_homotopy_projection_gives_zero_difference():
    x = standard_simplex(1)
    pr = prism(x)
    cx = normalized_chains(x, ZZ)
    cprod = normalized_chains(pr.product, ZZ)
    hc = normalized_chain_map(pr.proj, ZZ, cprod, cx)
    phi = prism_homotopy(hc, pr)
    # both end composites equal the identity, so d phi + phi d = 0
    for n in range(cx.top + 1):
        lhs = cx.d(n + 1) @ phi.mat(n) + phi.mat(n - 1) @ cx.d(n)
        assert lhs.is_zero()


def test_prism_homotopy_equivariant_swap(c2):
    x = swap_boundary1(c2)
    pr = prism(x)
    cx = normalized_chains(x, ZZ)
    cprod = normalized_chains(pr.product, ZZ)
    hc = normalized_chain_map(pr.proj, ZZ, cprod, cx)
    assert hc.equivariant
    phi = prism_homotopy(hc, pr)
    assert phi.equivariant
    for g in c2.elements():
        assert action_matrix(cx, g, 1) @ phi.mat(0) == phi.mat(0) @ action_matrix(cx, g, 0)


def test_prism_homotopy_rejects_wrong_source():
    x = standard_simplex(1)
    cx = normalized_chains(x, ZZ)
    with pytest.raises(ValueError, match="prism"):
        prism_homotopy(identity_chain_map(cx), prism(x))


# ---------------------------------------------------------------------------
# actions validated


def test_rep_must_commute_with_d(c2):
    # swapping two points commutes with d = (1, 1) on the one edge, not with d = (-1, 1)
    d = dense_mat(ZZ, 2, 1, [[-1], [1]])
    swap = [make_gset(c2, [[0, 1], [1, 0]]), trivial_gset(c2, 1)]
    with pytest.raises(ValueError, match="commute"):
        ChainComplex(ZZ, (2, 1), {1: d}, swap)
    ChainComplex(ZZ, (2, 1), {1: dense_mat(ZZ, 2, 1, [[1], [1]])}, swap)


ACTION_GROUPS = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
                 symmetric_group(3)]


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(ACTION_GROUPS), data=st.data(),
       base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(0, 2))
def test_permutation_and_matrix_actions_agree(group, data, base, n):
    # the orbit sums of the stored permutations span the kernel of
    # (rho(g) - 1 | g in H), rho(g) the permutation matrices, computed test-side
    subgroups = all_subgroups(group)
    k = data.draw(st.sampled_from(subgroups))
    x = gtensor(coset_gset(group, k), base(n))
    for ring in (ZZ, QQ, PrimeField(2)):
        c = normalized_chains(x, ring)
        for h in subgroups:
            incl = invariants(c, h)[1]
            for d in range(c.top + 1):
                assert_orbit_sums_span_the_kernel(c, h, d, incl.mat(d))


def assert_orbit_sums_span_the_kernel(c, h, d: int, sums: Mat):
    """The columns of sums, disjoint 0/1 orbit indicators, lie in the kernel of
    the stacked rho(g) - 1 for g in H, as many as its dimension, and span it:
    each vector of the test-side kernel basis (over Z, of the saturated
    lattice) is the combination of the columns weighted by its value on them."""
    ring, r = c.ring, c.rank(d)
    stack = [row for g in h.members
             for row in (action_matrix(c, g, d) - Mat.identity(ring, r)).rows]
    kernel = reference_kernel(dense_mat(ring, len(stack), r, stack))
    assert len(kernel) == sums.ncols
    for g in h.members:
        assert action_matrix(c, g, d) @ sums == sums
    firsts = [next((i for i, row in enumerate(sums.rows) if row[j]), None)
              for j in range(sums.ncols)]
    assert None not in firsts  # no column is zero
    for v in kernel:
        weights = dense_mat(ring, sums.ncols, 1, [[v[i]] for i in firsts])
        assert sums @ weights == dense_mat(ring, r, 1, [[e] for e in v])


def test_orbit_sums_make_no_matrix_products(c2, monkeypatch):
    c = normalized_chains(gtensor(regular_gset(c2), standard_simplex(2)), QQ)
    matmul, calls = Mat.__matmul__, []

    def counting_matmul(a, b):
        calls.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counting_matmul)
    for h in all_subgroups(c2):
        invariants(c, h)
    assert calls == []


def _dense_equivariance_defect(out, into, mat, degrees, shift, elements):
    """Test-side oracle: the first (a, n) with P_out(a) mat(n) != mat(n) P_into(a),
    P built densely from the permutation actions of ``out`` and ``into``."""
    for n in degrees:
        for a in elements:
            if action_matrix(out, a, n + shift) @ mat(n) != mat(n) @ action_matrix(into, a, n):
                return a, n
    return None


def _random_equivariant_rows(rnd, out, into, n, shift):
    """Rows of a random out_{n+shift} x into_n matrix, constant on each G-orbit of index pairs."""
    rows = [[None] * into.rank(n) for _ in range(out.rank(n + shift))]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v is None:
                v = rnd.randrange(-2, 3)
                for a in out.group.elements():
                    rows[out.action[n + shift].act[a][i]][into.action[n].act[a][j]] = v
    return rows


@settings(max_examples=100, deadline=None)
@given(group=st.sampled_from([cyclic_group(2), cyclic_group(4), symmetric_group(3),
                              dihedral_group(4)]),
       data=st.data(), shift=st.sampled_from([-1, 0, 1]),
       ring=st.sampled_from([ZZ, PrimeField(2)]), seed=st.integers(0, 2 ** 32))
def test_equivariance_defect_matches_a_dense_oracle(group, data, shift, ring, seed):
    # M: into -> out of degree shift, equivariant in every degree or perturbed
    # at one entry
    subgroups, rnd = all_subgroups(group), random.Random(seed)

    def space():
        k = data.draw(st.sampled_from(subgroups))
        base = data.draw(st.sampled_from([standard_simplex, boundary_simplex]))
        return normalized_chains(gtensor(coset_gset(group, k), base(data.draw(st.integers(0, 2)))),
                                 ring)

    out, into = space(), space()
    degrees = range(-1, max(out.top, into.top) + 2)
    mats, perturbed = {}, data.draw(st.sampled_from([None, *degrees]))
    for n in degrees:
        rows = _random_equivariant_rows(rnd, out, into, n, shift)
        if n == perturbed and rows and rows[0]:
            rows[rnd.randrange(len(rows))][rnd.randrange(len(rows[0]))] += 1
        mats[n] = dense_mat(ring, out.rank(n + shift), into.rank(n), rows)
    # every element in order, then shuffled, and a few: the order decides the first one
    shuffled = data.draw(st.permutations(group.elements()))
    for elements in (group.elements(), shuffled, shuffled[:2]):
        want = _dense_equivariance_defect(out, into, mats.__getitem__, degrees, shift, elements)
        assert chains.equivariance_defect(out, into, mats.__getitem__, degrees, shift,
                                          elements) == want


def _orbit_sum_inclusion(c: ChainComplex, h, n: int):
    """Test-side K (orbit indicators) and P (least-index selectors) in degree n."""
    act = c.action[n].act
    orbs = sorted({tuple(sorted({act[g][i] for g in h.members})) for i in range(c.rank(n))})
    k = [[int(i in orbit) for orbit in orbs] for i in range(c.rank(n))]
    p = [[int(i == orbit[0]) for i in range(c.rank(n))] for orbit in orbs]
    return dense_mat(c.ring, c.rank(n), len(orbs), k), dense_mat(c.ring, len(orbs), c.rank(n), p)


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(ACTION_GROUPS), data=st.data(),
       base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(0, 3))
def test_orbit_sum_differential_is_the_dense_product(group, data, base, n):
    # d' read off the orbit sums of d's rows against P (d K) as dense products
    subgroups = all_subgroups(group)
    x = gtensor(coset_gset(group, data.draw(st.sampled_from(subgroups))), base(n))
    for ring in (ZZ, QQ, PrimeField(2), PrimeField(3)):
        c = normalized_chains(x, ring)
        for h in subgroups:
            inv, incl = invariants(c, h)
            ks = [_orbit_sum_inclusion(c, h, m) for m in range(c.top + 1)]
            assert [incl.mat(m) for m in range(c.top + 1)] == [k for k, _ in ks]
            for m in range(1, c.top + 1):
                (k0, p0), (k1, _) = ks[m - 1], ks[m]
                assert inv.d(m) == p0 @ (c.d(m) @ k1)
                assert k0 @ inv.d(m) == c.d(m) @ k1


def _dense(f: ChainMap, coords: bool = False) -> ChainMap:
    """f with its matrices only, so every operation on it takes the Mat path;
    with ``coords``, an inclusion from ``invariants`` keeps P as a list of Mats."""
    d = ChainMap(f.source, f.target, {n: f.mat(n) for n in range(f.top + 1)}, validate=False)
    if coords:
        d.coords = list(f.coords)
    return d


def _same_mats(f: ChainMap, g: ChainMap) -> bool:
    return all(f.mat(n) == g.mat(n) for n in range(max(f.top, g.top) + 1))


def _copower_remap_reference(ring, c, src, tgt, to) -> dict:
    """Test-side matrices: copy p of c goes to copy to[p], non-injective or not."""
    mats = {}
    for n in range(c.top + 1):
        r, m = c.rank(n), [[0] * src.rank(n) for _ in range(tgt.rank(n))]
        for p, q in enumerate(to):
            for j in range(r):
                m[q * r + j][p * r + j] += 1
        mats[n] = dense_mat(ring, tgt.rank(n), src.rank(n), m)
    return mats


@settings(max_examples=40, deadline=None)
@given(group=st.sampled_from([cyclic_group(4), symmetric_group(3), dihedral_group(4)]),
       data=st.data(), base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(0, 2), ring=st.sampled_from([ZZ, QQ, PrimeField(2)]))
def test_maps_of_bases_agree_with_the_matrix_path(group, data, base, n, ring):
    # identities, actions, orbit-sum inclusions and copower remaps keep index
    # tuples; compose, maps_equal, corestrict, is_iso and mat(n) must give what
    # the same maps given as matrices give
    subgroups = all_subgroups(group)
    x = gtensor(coset_gset(group, data.draw(st.sampled_from(subgroups))), base(n))
    c, vc = normalized_chains(x, ring), ChainCat(ring)
    gs = data.draw(st.lists(st.sampled_from(group.elements()), min_size=1, max_size=3))
    hs = data.draw(st.lists(st.sampled_from(subgroups), min_size=1, max_size=3))
    ident, acts = identity_chain_map(c), [vc.action_as_map(c, g) for g in gs]
    incls = [invariants(c, h)[1] for h in hs]
    for f, g in zip(acts, gs):
        assert all(f.mat(m) == action_matrix(c, g, m) for m in range(c.top + 1))
    assert all(ident.mat(m) == Mat.identity(ring, c.rank(m)) for m in range(c.top + 1))
    for incl, h in zip(incls, hs):
        ks = [_orbit_sum_inclusion(c, h, m) for m in range(c.top + 1)]
        assert [incl.mat(m) for m in range(c.top + 1)] == [k for k, _ in ks]
        assert list(incl.coords) == [p for _, p in ks]
    ends = [ident] + acts  # maps c -> c
    maps = ends + incls + [vc.compose(a, i) for a in acts for i in incls]
    assert all(f.sel is not None for f in maps)
    for a in ends:
        for b in maps:
            comp = vc.compose(a, b)
            assert comp.sel is not None and _same_mats(comp, vc.compose(_dense(a), _dense(b)))
    for a in maps:
        assert vc.is_iso(a) == vc.is_iso(_dense(a))
        for b in maps:
            assert vc.maps_equal(a, b) == vc.maps_equal(_dense(a), _dense(b))
        for incl in incls:
            if a.target.ranks != c.ranks:
                continue  # only maps into c factor through an inclusion into c
            try:
                got = corestrict(a, incl)
            except InternalError:
                got = None
            try:
                want = corestrict(_dense(a), _dense(incl, coords=True))
            except InternalError:
                want = None
            assert (got is None) == (want is None)
            assert got is None or (got.sel is not None and _same_mats(got, want))
    # copower remaps: copies must go to distinct copies, else a Mat or a refusal
    k = data.draw(st.integers(0, 3))
    to = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    src, tgt = vc.copower(range(k), c), vc.copower(range(4), c)
    ref = ChainMap(src, tgt, _copower_remap_reference(ring, c, src, tgt, to))
    try:
        remap = vc.copower_remap(src, tgt, to, c)
    except ValueError:
        assert len(set(to)) < len(to)
    else:
        assert _same_mats(remap, ref)
        assert vc.is_iso(remap) == vc.is_iso(_dense(remap))


def test_copower_remap_never_overwrites_a_copy():
    """Two copies sent to one: refused, since a map of bases has one 1 per row."""
    c = normalized_chains(standard_simplex(1), ZZ)
    vc = ChainCat(ZZ)
    src, tgt = vc.copower(range(2), c), vc.copower(range(2), c)
    with pytest.raises(ValueError, match="distinct copies"):
        vc.copower_remap(src, tgt, [0, 0], c)


BAD_ENTRIES = {
    "entry-string": (ZZ, "x"),
    "entry-fraction-in-Z": (ZZ, "1/2"),
    "entry-zero-denominator": (QQ, "1/0"),
    "entry-pair": (QQ, [1, 2]),
    # bool is an int subclass, so True and False must be refused explicitly
    "entry-bool": (QQ, True),
    "entry-bool-in-Z": (ZZ, False),
    "entry-bool-in-Fp": (PrimeField(3), True),
}


@pytest.mark.parametrize("name", sorted(BAD_ENTRIES))
def test_mat_refuses_bad_ring_entries(name):
    ring, v = BAD_ENTRIES[name]
    with pytest.raises((ValueError, ZeroDivisionError)):
        dense_mat(ring, 1, 1, [[v]])


_ROW, _D1 = dense_mat(ZZ, 1, 2, [[-1, 1]]), {1: dense_mat(ZZ, 2, 1, [[-1], [1]])}
BAD_COMPLEXES = {  # a complex over the group g that the constructor must refuse, and why
    "d-wrong-shape": (lambda g: ChainComplex(ZZ, (2, 1), {1: _ROW}), "d_1 has shape 1x2"),
    "d-degree-range": (lambda g: ChainComplex(ZZ, (2, 1), {**_D1, 2: Mat(ZZ, 1, 0)}),
                       "illegal degree 2"),
    # rep-: the representation, one G-set of basis indices per degree; degree 1
    # acted on by the elements of another group, and an element that is no permutation
    "rep-element-range": (lambda g: ChainComplex(ZZ, (2, 1), _D1,
                                                 [trivial_gset(g, 2),
                                                  trivial_gset(cyclic_group(3), 1)]),
                          "degree 1 has the wrong shape"),
    "rep-degree-range": (lambda g: ChainComplex(ZZ, (1,), {}, [trivial_gset(g, 1)] * 2),
                         "one permutation action per degree"),
    "rep-flat": (lambda g: ChainComplex(ZZ, (2,), {}, [GSet(g, 2, ((0, 1), (0, 0)))]),
                 "not a permutation"),
    "rep-wrong-shape": (lambda g: ChainComplex(ZZ, (2, 1), _D1,
                                               [trivial_gset(g, 2), trivial_gset(g, 2)]),
                        "degree 1 has the wrong shape"),
}


@pytest.mark.parametrize("name", sorted(BAD_COMPLEXES))
def test_chain_complex_refuses_bad_parts(c2, name):
    build, words = BAD_COMPLEXES[name]
    with pytest.raises(ValueError, match=words):
        build(c2)


def test_a_matrix_over_another_ring_is_refused_naming_its_degree():
    # 2 over F_2 is 0: accepted over Z, this d would read H_0 = Z where d = 2 gives Z/2
    with pytest.raises(ValueError, match="d_1 has shape 1x1 over Fp:2, want 1x1 over Z"):
        ChainComplex(ZZ, (1, 1), {1: dense_mat(PrimeField(2), 1, 1, [[2]])})
    z = concentrated(ZZ, 0)
    with pytest.raises(ValueError, match="chain map matrix in degree 0 has shape 1x1 "
                                         "over Q, want 1x1 over Z"):
        ChainMap(z, z, {0: Mat.identity(QQ, 1)})
    with pytest.raises(ValueError, match="homotopy matrix in degree 0 has shape 0x1 "
                                         "over Q, want 0x1 over Z"):
        ChainHomotopy(z, z, {0: Mat(QQ, 0, 1)})
    assert [h.text() for h in homology(ChainComplex(ZZ, (1, 1), {1: dense_mat(ZZ, 1, 1, [[2]])}))] \
        == ["Z/2", "0"]


def test_json_roundtrip(c2):
    # Mat.to_json writes what the Mat constructor reads back
    c = normalized_chains(vee(c2), ZZ)
    for m in [c.d(n) for n in range(1, c.top + 1)] \
            + [action_matrix(c, 1, n) for n in range(c.top + 1)]:
        assert dense_mat(ZZ, m.nrows, m.ncols, m.to_json()) == m
    half = dense_mat(QQ, 1, 1, [["1/2"]])
    assert half.to_json() == [["1/2"]]
    assert dense_mat(QQ, 1, 1, half.to_json()) == half


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(ACTION_GROUPS), data=st.data(),
       base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(0, 2))
def test_derived_objects_pass_the_checks_they_skip(group, data, base, n):
    # normalized_chains, invariants, corestrict, mapping_cone and compose_smaps
    # build their results without validating them; validating them here must succeed
    subgroups = all_subgroups(group)
    k = data.draw(st.sampled_from(subgroups))
    x = gtensor(coset_gset(group, k), base(n))
    pr = prism(x)
    for second, first in ((pr.proj, pr.end0), (pr.end1, pr.proj),
                          (pr.end0, fixed_sset(x, k)[1])):
        comp = compose_smaps(second, first)
        checked = SMap(first.source, second.target, comp.values)
        assert checked.values == comp.values
        assert checked.equivariant or not comp.equivariant
    for ring in (ZZ, QQ, PrimeField(2)):
        c = normalized_chains(x, ring)
        c.validate()
        cf = normalized_chain_map(pr.end0, ring, c)
        for h in subgroups:
            inv, incl = invariants(c, h)
            inv.validate()
            mapping_cone(incl).validate()
            assert all(incl.coords[d] @ incl.mat(d) == Mat.identity(ring, inv.rank(d))
                       for d in range(c.top + 1))
            assert chain_maps_equal(corestrict(incl, incl), identity_chain_map(inv))
            for g in (fixed_chains_comparison(x, h, ring), restrict_to_invariants(cf, h)):
                g.validate()
                mapping_cone(g).validate()


# ---------------------------------------------------------------------------
# orbit reduction


def free_c2_circle(c2) -> GSSet:
    """Vertices 0 and 1 and edges 2: 0 -> 1 and 3: 1 -> 0, both pairs swapped:
    the block of d between the two orbits is [[-1, 1], [1, -1]], not a unit."""
    return GSSet(c2, {0: 0, 1: 0, 2: 1, 3: 1},
                 {2: (SimplexRef(1), SimplexRef(0)), 3: (SimplexRef(0), SimplexRef(1))},
                 {0: {s: s for s in range(4)}, 1: {0: 1, 1: 0, 2: 3, 3: 2}})


def swapped_edges(c2) -> GSSet:
    """Two edges 2 and 3 from vertex 0 to vertex 1, swapped: an orbit of two
    edges over orbits of one vertex each."""
    ends = (SimplexRef(1), SimplexRef(0))
    return GSSet(c2, {0: 0, 1: 0, 2: 1, 3: 1}, {2: ends, 3: ends},
                 {0: {s: s for s in range(4)}, 1: {0: 0, 1: 1, 2: 3, 3: 2}})


def assert_reduction_keeps_invariant_homology(x):
    """For every H and ring Z, Q, F_2, F_3: H(C^H) = H(orbit_reduction(C)^H),
    and the reduced complex passes validate; returns its ranks per ring."""
    ranks = {}
    for ring in (ZZ, QQ, PrimeField(2), PrimeField(3)):
        c = normalized_chains(x, ring)
        r = orbit_reduction(c)[0]
        r.validate()
        ranks[ring.name] = r.ranks
        for h in all_subgroups(x.group):
            assert homology(invariants(r, h)[0]) == homology(invariants(c, h)[0]), (ring, h)
    return ranks


REDUCTION_BASES = [standard_simplex(n) for n in range(4)] \
    + [boundary_simplex(n) for n in range(1, 4)] + [moore_space(2)]


@settings(max_examples=40, deadline=None)
@given(group=st.sampled_from([cyclic_group(1), cyclic_group(2), cyclic_group(3),
                              cyclic_group(4), symmetric_group(3), dihedral_group(4),
                              klein_four_group()]),
       data=st.data(), base=st.sampled_from(REDUCTION_BASES))
def test_orbit_reduction_keeps_the_homology_of_every_invariant_complex(group, data, base):
    k = data.draw(st.sampled_from(all_subgroups(group)))
    assert_reduction_keeps_invariant_homology(gtensor(coset_gset(group, k), base))


def test_orbit_reduction_on_free_spheres_and_moore_spaces(d4, c4):
    e = trivial_subgroup(d4)
    ranks = assert_reduction_keeps_invariant_homology(
        gtensor(coset_gset(d4, e), boundary_simplex(3)))
    assert set(ranks.values()) == {(8, 0, 8)}
    # the Z/2 of the attaching map survives: a pivot must square to 1, as
    # 2 = -1 does over F_3 only
    x = gtensor(coset_gset(c4, subgroup(c4, [0, 2])), moore_space(2))
    assert assert_reduction_keeps_invariant_homology(x) == {
        "Z": (2, 2, 2), "Q": (2, 2, 2), "Fp:2": (2, 2, 2), "Fp:3": (2, 0, 0)}
    assert homology(invariants(orbit_reduction(normalized_chains(x, ZZ))[0],
                               full_subgroup(c4))[0])[1].torsion == (2,)


def test_orbit_reduction_pairs_only_unit_bijections(c2):
    # neither input has a pair: a block with two entries per column, and
    # orbits of different sizes
    for x in (free_c2_circle(c2), swapped_edges(c2)):
        assert set(assert_reduction_keeps_invariant_homology(x).values()) == {(2, 2)}


def assert_equivariant_retraction(c):
    """orbit_reduction(c) = (r, incl, proj, h) with proj incl = 1 and
    incl proj - 1 = d h + h d exactly, incl and proj equivariant chain maps and
    h equivariant under every group element."""
    r, incl, proj, h = orbit_reduction(c)
    degrees = range(c.top + 1)
    assert all(proj.mat(n) @ incl.mat(n) == Mat.identity(c.ring, r.rank(n)) for n in degrees)
    assert not homotopy_defect(h, identity_chain_map(c), compose_chain_maps(incl, proj))
    for f in (incl, proj):
        f.validate()  # raises off the chain-map law
        assert f.equivariant
    assert equivariance_defect(c, c, h.mat, degrees, 1, c.group.elements()) is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(group=st.sampled_from([cyclic_group(1), cyclic_group(2), cyclic_group(3),
                              cyclic_group(4), symmetric_group(3), dihedral_group(4)]),
       data=st.data(), n=st.integers(0, 3),
       ring=st.sampled_from([ZZ, QQ, PrimeField(2), PrimeField(3)]),
       sphere=st.sampled_from(["simplex", "boundary", "moore"]))
def test_orbit_reduction_is_an_equivariant_strong_deformation_retraction(group, data, n,
                                                                         ring, sphere):
    """On G/K (x) Delta[n], its boundary or M(Z/2, 1), and on the cone of its
    projection to G/G (x) the same, whose orbits have different stabilizers."""
    k = data.draw(st.sampled_from(all_subgroups(group)))
    base = {"simplex": standard_simplex(n), "boundary": boundary_simplex(max(n, 1)),
            "moore": moore_space(2)}[sphere]
    x = gtensor(coset_gset(group, k), base)
    point = gtensor(coset_gset(group, full_subgroup(group)), base)
    stride = max(base.dim_of) + 1
    onto = SMap(x, point, {s: SimplexRef(s % stride) for s in x.ids()})
    assert onto.equivariant
    for c in (normalized_chains(x, ring), mapping_cone(normalized_chain_map(onto, ring))):
        assert_equivariant_retraction(c)


def test_orbit_reduction_leaves_plain_complexes_and_reduces_trivial_groups():
    trivial = normalized_chains(boundary_simplex(3), ZZ)  # the trivial group acts
    assert trivial.group.order == 1
    assert orbit_reduction(trivial)[0].ranks == (1, 0, 1)  # from (4, 6, 4)
    assert_equivariant_retraction(trivial)
    plain = trivial.forget_action()  # c itself, with the identity retraction
    r, incl, proj, h = orbit_reduction(plain)
    assert r is plain and all(h.mat(n).is_zero() for n in range(plain.top + 1))
    assert chain_maps_equal(incl, identity_chain_map(plain))
    assert chain_maps_equal(proj, identity_chain_map(plain))

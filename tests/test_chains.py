"""Chain complexes: normalized chains, invariants, homology, prism homotopies."""

import random
from itertools import product as iproduct

import pytest

from conftest import swap_boundary1, vee
from orbitkit import chains
from orbitkit.chains import ChainComplex, ChainMap, chain_maps_equal, \
    concentrated, corestrict, disk, homology, \
    identity_chain_map, invariants, is_acyclic, is_quasi_iso, mapping_cone, \
    normalized_chain_map, normalized_chains, prism_homotopy, \
    restrict_to_invariants, zero_complex
from hypothesis import given, settings, strategies as st

from orbitkit.elmendorf import ChainCat
from orbitkit.errors import InternalError
from orbitkit.exactla import Mat, rank
from orbitkit.groups import all_subgroups, cyclic_group, dihedral_group, full_subgroup, \
    symmetric_group, trivial_subgroup
from orbitkit.gsets import coset_gset, make_gset, regular_gset, trivial_gset
from orbitkit.rings import PrimeField, QQ, ZZ
from orbitkit.simplicial import SMap, boundary_simplex, compose_smaps, \
    fixed_sset, gtensor, make_smap, point_sset, prism, standard_simplex


# ---------------------------------------------------------------------------
# normalized chains


def test_chains_of_point():
    c = normalized_chains(point_sset(), ZZ)
    assert c.ranks == (1,)
    assert [h.free_rank for h in homology(c)] == [1]


def test_chains_of_interval():
    c = normalized_chains(standard_simplex(1), ZZ)
    assert c.ranks == (2, 1)
    assert c.d(1).rows == [[-1], [1]]


def test_chains_of_swap_boundary(c2):
    c = normalized_chains(swap_boundary1(c2), ZZ)
    assert c.ranks == (2,)
    assert c.rep_mat(1, 0).rows == [[0, 1], [1, 0]]


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
        ChainComplex(ZZ, (1, 1, 1), {1: Mat(ZZ, 1, 1, [[1]]),
                                     2: Mat(ZZ, 1, 1, [[1]])})


# ---------------------------------------------------------------------------
# invariants


def test_invariants_trivial_subgroup_is_identity(c2):
    c = normalized_chains(swap_boundary1(c2), ZZ)
    inv, incl = invariants(c, trivial_subgroup(c2))
    assert inv.ranks == c.ranks
    assert incl.mat(0).rows == [[1, 0], [0, 1]]


def test_invariants_regular_rep_orbit_sum(c2):
    c = normalized_chains(swap_boundary1(c2), ZZ)
    inv, incl = invariants(c, full_subgroup(c2))
    assert inv.ranks == (1,)
    assert incl.mat(0).rows == [[1], [1]]


def test_invariants_regular_rep_over_f2(c2):
    f2 = PrimeField(2)
    c = normalized_chains(swap_boundary1(c2), f2)
    inv, incl = invariants(c, full_subgroup(c2))
    assert inv.ranks == (1,)
    assert [row[0] for row in incl.mat(0).rows] == [f2.one, f2.one]


def test_invariants_sign_representation(c2):
    # non-permutation action: the generator negates the generator of Z
    rep = {0: {0: Mat.identity(ZZ, 1)}, 1: {0: Mat(ZZ, 1, 1, [[-1]])}}
    c = ChainComplex(ZZ, (1,), {}, group=c2, rep=rep)
    inv, _ = invariants(c, full_subgroup(c2))
    assert inv.ranks == (0,)
    f2 = PrimeField(2)
    rep2 = {0: {0: Mat.identity(f2, 1)}, 1: {0: Mat(f2, 1, 1, [[-1]])}}
    c2c = ChainComplex(f2, (1,), {}, group=c2, rep=rep2)
    inv2, _ = invariants(c2c, full_subgroup(c2))
    assert inv2.ranks == (1,)  # -1 = 1 mod 2


def test_invariants_differential_commutes(c2):
    x = vee(c2)
    c = normalized_chains(x, ZZ)
    inv, incl = invariants(c, full_subgroup(c2))
    assert inv.ranks == (2, 1)
    assert incl.mat(0) @ inv.d(1) == c.d(1) @ incl.mat(1)


def test_invariant_lattice_without_unit_coordinate(c2):
    # the involution fixes Z(2, 3) only; no coordinate of (2, 3) is a unit,
    # so the left inverse of the inclusion comes from a solve over Z
    rep = {0: {0: Mat.identity(ZZ, 2)}, 1: {0: Mat(ZZ, 2, 2, [[7, -4], [12, -7]])}}
    c = ChainComplex(ZZ, (2,), {}, group=c2, rep=rep)
    inv, incl = invariants(c, full_subgroup(c2))
    assert inv.ranks == (1,)
    assert incl.mat(0).rows in ([[2], [3]], [[-2], [-3]])
    assert all(type(v) is int for row in incl.coords[0].rows for v in row)
    assert incl.coords[0] @ incl.mat(0) == Mat.identity(ZZ, 1)
    hits_e1 = ChainMap(concentrated(ZZ, 0), c, {0: Mat(ZZ, 2, 1, [[1], [0]])})
    with pytest.raises(InternalError, match="does not factor"):
        corestrict(hits_e1, incl)


def test_invariants_reject_a_differential_that_does_not_restrict(c2):
    # built without validation: d sends the one 1-cell to one point of a swapped pair
    c = ChainComplex(ZZ, (2, 1), {1: Mat(ZZ, 2, 1, [[1], [0]])}, group=c2,
                     validate=False)
    c.action = (coset_gset(c2, trivial_subgroup(c2)), trivial_gset(c2, 1))
    with pytest.raises(InternalError, match="must restrict"):
        invariants(c, full_subgroup(c2))


def fixed_chains_comparison(x, h, ring) -> ChainMap:
    """The canonical map C(X^H) -> C(X)^H: fixed simplices are singleton orbit sums."""
    c = normalized_chains(x, ring)
    return corestrict(normalized_chain_map(fixed_sset(x, h)[1], ring, cy=c),
                      invariants(c, h)[1])


def test_orbit_sums_factor_without_solving(c2, monkeypatch):
    solve, calls = chains.solve_exact, []

    def counting_solve(a, b):
        calls.append(a)
        return solve(a, b)

    monkeypatch.setattr(chains, "solve_exact", counting_solve)
    c = normalized_chains(vee(c2), ZZ)
    for h in (trivial_subgroup(c2), full_subgroup(c2)):
        inv, incl = invariants(c, h)
        assert chain_maps_equal(corestrict(incl, incl), identity_chain_map(inv))
        fixed_chains_comparison(vee(c2), h, ZZ)
    assert calls == []
    # matrix actions solve once per degree, for the left inverse
    invariants(_with_matrices(c), full_subgroup(c2))
    assert len(calls) == c.top + 1


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


# ---------------------------------------------------------------------------
# homology


def test_disks_and_spheres():
    for n in range(1, 6):
        assert is_acyclic(disk(ZZ, n))
    assert [ (h.free_rank, h.torsion) for h in homology(concentrated(ZZ, 0)) ] \
        == [(1, ())]
    for n in (2, 3):
        hs = homology(normalized_chains(boundary_simplex(n), ZZ))
        assert hs[0].free_rank == 1 and not hs[0].torsion
        assert hs[n - 1].free_rank == 1 and not hs[n - 1].torsion
        assert all(hs[k].is_zero() for k in range(1, n - 1))


def test_torsion():
    c = ChainComplex(ZZ, (1, 1), {1: Mat(ZZ, 1, 1, [[2]])})
    hs = homology(c)
    assert hs[0].free_rank == 0 and hs[0].torsion == (2,)
    assert hs[1].is_zero()
    assert hs[0].text() == "Z/2"


def test_torsion_chain_divisibility():
    d = Mat(ZZ, 2, 2, [[2, 0], [0, 4]])
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
    from orbitkit.exactla import kernel_exact
    ranks = [rng.randint(0, max_rank) for _ in range(top + 1)]
    diffs = {}
    prev_kernel = None
    for n in range(1, top + 1):
        if ranks[n - 1] == 0 or ranks[n] == 0:
            diffs[n] = Mat.zeros(ring, ranks[n - 1], ranks[n])
            prev_kernel = None
            continue
        if prev_kernel is None:
            m = Mat(ring, ranks[n - 1], ranks[n],
                    [[rng.randint(-3, 3) for _ in range(ranks[n])]
                     for _ in range(ranks[n - 1])])
        else:
            k = Mat(ring, len(prev_kernel), ranks[n - 1], prev_kernel).transpose()
            coeff = Mat(ring, k.ncols, ranks[n],
                        [[rng.randint(-3, 3) for _ in range(ranks[n])]
                         for _ in range(k.ncols)])
            m = k @ coeff
        diffs[n] = m
        prev_kernel = kernel_exact(m)
    return ChainComplex(ring, ranks, diffs)


@pytest.mark.parametrize("p", [2, 3])
def test_homology_smith_path_matches_field_gauss_oracle(p):
    ring = PrimeField(p)
    rng = random.Random(100 + p)
    for _ in range(60):
        c = random_fp_complex(rng, ring)
        hs = homology(c)
        for n in range(c.top + 1):
            rows_n = [list(row) for row in c.d(n).rows]
            rows_n1 = [list(row) for row in c.d(n + 1).rows]
            r_n = gauss_rank_mod_p(rows_n, p) if c.rank(n) and c.rank(n - 1) else 0
            r_n1 = gauss_rank_mod_p(rows_n1, p) if c.rank(n + 1) and c.rank(n) else 0
            betti = c.rank(n) - r_n - r_n1
            assert hs[n].free_rank == betti
            assert hs[n].torsion == ()


def random_z_complex(rng, max_rank=5, top=3):
    """Random integer complex; each d_{n+1} maps into a sublattice of ker d_n,
    so homology often has torsion."""
    from orbitkit.exactla import kernel_z
    ranks = [rng.randint(1, max_rank) for _ in range(top + 1)]
    diffs = {}
    kernel = [[int(i == j) for i in range(ranks[0])] for j in range(ranks[0])]
    for n in range(1, top + 1):
        k = Mat(ZZ, len(kernel), ranks[n - 1], kernel).transpose()
        rows = [[rng.randint(-3, 3) for _ in range(ranks[n])] for _ in range(k.ncols)]
        diffs[n] = k @ Mat(ZZ, k.ncols, ranks[n], rows)
        kernel = kernel_z(diffs[n])
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
            cf = ChainComplex(ring, c.ranks, {n: Mat(ring, c.rank(n - 1), c.rank(n),
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
    f = ChainMap(z, z, {0: Mat(ZZ, 1, 1, [[2]])})
    assert not is_quasi_iso(f)
    over_q = concentrated(QQ, 0)
    fq = ChainMap(over_q, over_q, {0: Mat(QQ, 1, 1, [[2]])})
    assert is_quasi_iso(fq)


def test_mapping_cone_shape():
    c = normalized_chains(standard_simplex(1), ZZ)
    cone = mapping_cone(identity_chain_map(c))
    assert cone.ranks == (2, 3, 1)
    assert is_acyclic(cone)


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
        assert cx.rep_mat(g, 1) @ phi.mat(0) == phi.mat(0) @ cx.rep_mat(g, 0)


def test_prism_homotopy_rejects_wrong_source():
    x = standard_simplex(1)
    cx = normalized_chains(x, ZZ)
    with pytest.raises(ValueError, match="prism"):
        prism_homotopy(identity_chain_map(cx), prism(x))


# ---------------------------------------------------------------------------
# representations validated


def test_rep_must_commute_with_d(c2):
    rep = {0: {0: Mat.identity(ZZ, 2), 1: Mat.identity(ZZ, 1)},
           1: {0: Mat(ZZ, 2, 2, [[0, 1], [1, 0]]), 1: Mat.identity(ZZ, 1)}}
    d = Mat(ZZ, 2, 1, [[-1], [1]])
    with pytest.raises(ValueError, match="commute"):
        ChainComplex(ZZ, (2, 1), {1: d}, group=c2, rep=rep)
    rep_ok = {0: {0: Mat.identity(ZZ, 2), 1: Mat.identity(ZZ, 1)},
              1: {0: Mat(ZZ, 2, 2, [[0, 1], [1, 0]]),
                  1: Mat(ZZ, 1, 1, [[-1]])}}
    ChainComplex(ZZ, (2, 1), {1: d}, group=c2, rep=rep_ok)
    swap = [make_gset(c2, [[0, 1], [1, 0]]), trivial_gset(c2, 1)]
    with pytest.raises(ValueError, match="commute"):
        ChainComplex.permuted(ZZ, (2, 1), {1: d}, c2, swap)


def test_rep_must_give_matrices_by_degree_of_the_complex(c2):
    swap = Mat(ZZ, 2, 2, [[0, 1], [1, 0]])
    # neither a bare matrix read as the identity nor a degree past the top ignored
    with pytest.raises(ValueError, match="representation of 1 is not a dict"):
        ChainComplex(ZZ, (2,), {}, group=c2, rep={0: {}, 1: swap})
    with pytest.raises(ValueError, match="representation of 1 in illegal degree 5"):
        ChainComplex(ZZ, (2,), {}, group=c2, rep={0: {}, 1: {5: swap}})
    c = ChainComplex(ZZ, (2,), {}, group=c2, rep={0: {}, 1: {0: swap}})
    assert c.rep_mat(1, 0) == swap
    assert invariants(c, full_subgroup(c2))[0].ranks == (1,)


ACTION_GROUPS = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
                 symmetric_group(3)]


def _with_matrices(c: ChainComplex) -> ChainComplex:
    """The same complex with its permutation action given as matrices."""
    return ChainComplex(c.ring, c.ranks, {d: c.d(d) for d in range(1, c.top + 1)},
                        group=c.group,
                        rep={g: {d: c.rep_mat(g, d) for d in range(c.top + 1)}
                             for g in c.group.elements()})


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(ACTION_GROUPS), data=st.data(),
       base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(0, 2))
def test_permutation_and_matrix_actions_agree(group, data, base, n):
    # orbit sums of the stored permutations against exact kernels of the
    # same action given as matrices
    subgroups = all_subgroups(group)
    k = data.draw(st.sampled_from(subgroups))
    x = gtensor(coset_gset(group, k), base(n))
    for ring in (ZZ, QQ, PrimeField(2)):
        c = normalized_chains(x, ring)
        m = _with_matrices(c)
        assert c.action is not None and m.action is None
        for h in subgroups:
            inv_p, inv_m = invariants(c, h)[0], invariants(m, h)[0]
            assert inv_p.ranks == inv_m.ranks
            assert homology(inv_p) == homology(inv_m)


def test_orbit_sums_make_no_matrix_products(c2, monkeypatch):
    c = normalized_chains(gtensor(regular_gset(c2), standard_simplex(2)), QQ)
    m = _with_matrices(c)
    matmul, calls = Mat.__matmul__, []

    def counting_matmul(a, b):
        calls.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counting_matmul)
    for h in all_subgroups(c2):
        invariants(c, h)
    assert calls == []
    # matrix actions: d K, P (d K) and the check K d' = d K in every degree
    inv, incl = invariants(m, full_subgroup(c2))
    for n in range(1, m.top + 1):
        dk = [b for a, b in calls if a is m.d(n)]
        assert len(dk) == 1 and dk[0] is incl.mat(n)
        assert any(a is incl.coords[n - 1] for a, _ in calls)
        assert any(a is incl.mat(n - 1) and b is inv.d(n) for a, b in calls)


def _perm_mat(ring, p) -> Mat:
    """Test-side: the matrix sending basis vector j to basis vector p[j]."""
    m = Mat.zeros(ring, len(p), len(p))
    for j, i in enumerate(p):
        m.rows[i][j] = ring.one
    return m


def _dense_equivariance_defect(out, into, mat, degrees, shift, elements):
    """Test-side oracle: the first (a, n) with P_out(a) mat(n) != mat(n) P_into(a),
    P built densely from the permutation actions of ``out`` and ``into``."""
    def rho(c, a, n):
        return _perm_mat(c.ring, c.action[n].act[a]) if 0 <= n <= c.top \
            else Mat.zeros(c.ring, 0, 0)
    for n in degrees:
        for a in elements:
            if rho(out, a, n + shift) @ mat(n) != mat(n) @ rho(into, a, n):
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
    # at one entry; both actions permutations, both matrices, or mixed
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
        mats[n] = Mat(ring, out.rank(n + shift), into.rank(n), rows)
    forms = list(iproduct((out, _with_matrices(out)), (into, _with_matrices(into))))
    # every element in order, then shuffled, and a few: the order decides the first one
    shuffled = data.draw(st.permutations(group.elements()))
    for elements in (group.elements(), shuffled, shuffled[:2]):
        want = _dense_equivariance_defect(out, into, mats.__getitem__, degrees, shift, elements)
        for out_form, into_form in forms:
            assert chains.equivariance_defect(out_form, into_form, mats.__getitem__, degrees,
                                              shift, elements) == want


def _orbit_sum_inclusion(c: ChainComplex, h, n: int):
    """Test-side K (orbit indicators) and P (least-index selectors) in degree n."""
    act = c.action[n].act
    orbs = sorted({tuple(sorted({act[g][i] for g in h.members})) for i in range(c.rank(n))})
    k, p = Mat.zeros(c.ring, c.rank(n), len(orbs)), Mat.zeros(c.ring, len(orbs), c.rank(n))
    for j, orbit in enumerate(orbs):
        for i in orbit:
            k.rows[i][j] = c.ring.one
        p.rows[j][orbit[0]] = c.ring.one
    return k, p


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
        r, m = c.rank(n), mats.setdefault(n, Mat.zeros(ring, tgt.rank(n), src.rank(n)))
        for p, q in enumerate(to):
            for j in range(r):
                m.rows[q * r + j][p * r + j] = m.rows[q * r + j][p * r + j] + ring.one
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
        assert all(f.mat(m) == c.rep_mat(g, m) for m in range(c.top + 1))
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
        Mat(ring, 1, 1, [[v]])


_ONE, _ROW, _D1 = Mat.identity(ZZ, 1), Mat(ZZ, 1, 2, [[-1, 1]]), {1: Mat(ZZ, 2, 1, [[-1], [1]])}
BAD_COMPLEXES = {  # a complex over the group g that the constructor must refuse, and why
    "d-wrong-shape": (lambda g: ChainComplex(ZZ, (2, 1), {1: _ROW}), "d_1 has shape 1x2"),
    "d-degree-range": (lambda g: ChainComplex(ZZ, (2, 1), {**_D1, 2: Mat(ZZ, 1, 0)}),
                       "illegal degree 2"),
    "rep-element-range": (lambda g: ChainComplex(ZZ, (1,), {}, group=g,
                                                 rep={0: {}, 1: {}, 5: {0: _ONE}}),
                          "5, which is not a group element"),
    "rep-degree-range": (lambda g: ChainComplex(ZZ, (1,), {}, group=g,
                                                rep={0: {}, 1: {-1: _ONE}}),
                         "illegal degree -1"),
    "rep-flat": (lambda g: ChainComplex(ZZ, (1,), {}, group=g, rep={0: {}, 1: _ONE}),
                 "not a dict"),
    "rep-wrong-shape": (lambda g: ChainComplex(ZZ, (2, 1), _D1, group=g,
                                               rep={0: {}, 1: {1: _ROW}}),
                        "degree 1 has the wrong shape"),
}


@pytest.mark.parametrize("name", sorted(BAD_COMPLEXES))
def test_chain_complex_refuses_bad_parts(c2, name):
    build, words = BAD_COMPLEXES[name]
    with pytest.raises(ValueError, match=words):
        build(c2)


def test_json_roundtrip(c2):
    # Mat.to_json writes what the Mat constructor reads back
    c = normalized_chains(vee(c2), ZZ)
    for m in [c.d(n) for n in range(1, c.top + 1)] + [c.rep_mat(1, n) for n in range(c.top + 1)]:
        assert Mat(ZZ, m.nrows, m.ncols, m.to_json()) == m
    half = Mat(QQ, 1, 1, [["1/2"]])
    assert half.to_json() == [["1/2"]]
    assert Mat(QQ, 1, 1, half.to_json()) == half


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
            for cc in (c, _with_matrices(c)):
                inv, incl = invariants(cc, h)
                inv.validate()
                mapping_cone(incl).validate()
                assert all(incl.coords[d] @ incl.mat(d) == Mat.identity(ring, inv.rank(d))
                           for d in range(cc.top + 1))
                assert chain_maps_equal(corestrict(incl, incl), identity_chain_map(inv))
            for g in (fixed_chains_comparison(x, h, ring), restrict_to_invariants(cf, h)):
                g.validate()
                mapping_cone(g).validate()

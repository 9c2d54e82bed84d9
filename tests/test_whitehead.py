"""Certificates: search, verification, and the full hypothesis pipeline."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbitkit

from conftest import action_matrix, dense, dense_mat, from_columns, reference_kernel, \
    swap_boundary1, vee, with_trivial_action
from orbitkit.chains import ChainComplex, ChainHomotopy, ChainMap, \
    compose_chain_maps, concentrated, homotopy_defect, identity_chain_map, \
    is_quasi_iso, mapping_cone, normalized_chain_map, normalized_chains, orbit_reduction, \
    restrict_to_invariants, zero_complex
from orbitkit.errors import InternalError
from orbitkit.exactla import Mat
from orbitkit.groups import all_subgroups, conjugating_element, cyclic_group, dihedral_group, \
    direct_product, full_subgroup, group_from_generators, symmetric_group, trivial_subgroup
from orbitkit.gsets import coset_gset, orbits, product_gset, regular_gset, stabilizer
from orbitkit.rings import PrimeField, QQ, ZZ
from orbitkit.simplicial import GSSet, SMap, SimplexRef, boundary_simplex, empty_sset, \
    fixed_sset, gtensor, identity_smap, make_smap, point_sset, prism, standard_simplex
from orbitkit.whitehead import Certificate, IsotropyReport, _LinearSystem, _block, \
    _invariant_quasi_isos, _pair_orbits, _positions, certificate_search, isotropy_check, \
    verify_certificate, whitehead_verify


def test_identity_certificate():
    c = normalized_chains(standard_simplex(1), ZZ)
    cert = certificate_search(identity_chain_map(c))
    assert cert is not None
    assert verify_certificate(cert, identity_chain_map(c))


def test_vertex_into_interval_certificate():
    pt = point_sset()
    d1 = standard_simplex(1)
    f = make_smap(pt, d1, {0: 0})
    cf = normalized_chain_map(f, ZZ)
    cert = certificate_search(cf)
    assert cert is not None
    # g collapses both vertices to the point, s is supported on the edge
    assert dense(cert.backward.mat(0)) == [[1, 1]]
    assert cert.forward_homotopy.mat(0).ncols == 2


def test_rank_obstruction_gives_no_certificate():
    cf = ChainMap(zero_complex(ZZ), concentrated(ZZ, 0), {})
    assert certificate_search(cf) is None


def test_verify_certificate_rejects_perturbation():
    pt = point_sset()
    d1 = standard_simplex(1)
    cf = normalized_chain_map(make_smap(pt, d1, {0: 0}), ZZ)
    cert = certificate_search(cf)
    s = cert.forward_homotopy
    m0 = s.mat(0)
    rows = dense(m0)
    rows[0][0] += 1
    smat = dense_mat(m0.ring, m0.nrows, m0.ncols, rows)
    bad = Certificate(cert.backward,
                      ChainHomotopy(s.source, s.target, {0: smat}),
                      cert.backward_homotopy)
    assert verify_certificate(cert, cf)
    assert not verify_certificate(bad, cf)


def test_verify_certificate_refuses_a_certificate_over_another_ring():
    cq = certificate_search(identity_chain_map(concentrated(QQ, 0)))
    assert cq is not None
    assert verify_certificate(cq, identity_chain_map(concentrated(ZZ, 0))) is False


def test_verify_certificate_refuses_blocks_of_the_wrong_shape():
    cf = normalized_chain_map(make_smap(point_sset(), standard_simplex(1), {0: 0}), ZZ)
    cert = certificate_search(cf)
    g, s, t = cert.backward, cert.forward_homotopy, cert.backward_homotopy
    assert verify_certificate(cert, cf)

    def wider(m):  # one more zero column
        return dense_mat(ZZ, m.nrows, m.ncols + 1, [[*row, 0] for row in m.rows])

    def one_more_in_degree_0(c):
        return ChainComplex(ZZ, (c.rank(0) + 1,) + c.ranks[1:], {}, validate=False)

    bad_g = ChainMap(g.source, g.target, {0: wider(g.mat(0)), 1: g.mat(1)}, validate=False)
    bad_s, bad_t = (ChainHomotopy(one_more_in_degree_0(h.source), h.target, {0: wider(h.mat(0))})
                    for h in (s, t))
    for bad in (Certificate(bad_g, s, t), Certificate(g, bad_s, t), Certificate(g, s, bad_t)):
        assert verify_certificate(bad, cf) is False


def equivariance_only_mutants():
    """(cf, cert) pairs: cf = id on C2/e x boundary Delta[2] over Z, and cert its
    identity certificate with s_0 + N, where N sends each vertex of copy 0 to
    copy 0's boundary 1-cycle and copy 1's to 0.  d N = 0 and N d = 0, so every
    homotopy identity holds, but N is not equivariant."""
    c2 = cyclic_group(2)
    x = gtensor(coset_gset(c2, trivial_subgroup(c2)), boundary_simplex(2))
    cycle = [1, -1, 1, 0, 0, 0]  # edges 01 - 02 + 12 of copy 0, which comes first
    n = dense_mat(ZZ, 6, 6, [[v] * 3 + [0] * 3 for v in cycle])
    out = []
    for cf in [normalized_chain_map(identity_smap(x), ZZ)]:
        src, tgt = cf.source, cf.target
        assert (tgt.d(1) @ n).is_zero() and (n @ tgt.d(1)).is_zero()
        g = ChainMap(tgt, src, {k: Mat.identity(ZZ, src.rank(k)) for k in range(2)})
        s = ChainHomotopy(tgt, tgt, {0: n})
        out.append((cf, Certificate(g, s, ChainHomotopy(src, src, {}))))
    return out


def test_verify_certificate_checks_equivariance_beyond_the_homotopies():
    for cf, cert in equivariance_only_mutants():
        assert not homotopy_defect(cert.forward_homotopy, identity_chain_map(cf.target),
                                   compose_chain_maps(cf, cert.backward))
        assert not homotopy_defect(cert.backward_homotopy, identity_chain_map(cf.source),
                                   compose_chain_maps(cert.backward, cf))
        assert verify_certificate(cert, cf) is False
        s = cert.forward_homotopy
        zero = ChainHomotopy(s.source, s.target, {})
        assert verify_certificate(Certificate(cert.backward, zero, cert.backward_homotopy), cf)


def test_verify_certificate_checks_equivariance_under_python_O():
    script = textwrap.dedent("""
        import sys
        from orbitkit.whitehead import verify_certificate
        from test_whitehead import equivariance_only_mutants
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        if any(verify_certificate(cert, cf) for cf, cert in equivariance_only_mutants()):
            sys.exit("accepted a certificate that is not equivariant")
    """)
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_certificate_respects_equivariance(c2):
    # X = two swapped points into Y = two swapped intervals (end inclusion)
    x = gtensor(regular_gset(c2), point_sset())
    y = gtensor(regular_gset(c2), standard_simplex(1))
    f = SMap(x, y, {0: SimplexRef(0), 1: SimplexRef(3)})
    assert f.equivariant
    cf = normalized_chain_map(f, ZZ)
    cert = certificate_search(cf)
    assert cert is not None
    g = cert.backward
    for a in c2.elements():
        for n in range(2):
            assert action_matrix(cf.source, a, n) @ g.mat(n) \
                == g.mat(n) @ action_matrix(cf.target, a, n)


def random_field_complex(rng, ring, max_rank=4, top=2):
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
                    [[rng.randint(-2, 2) for _ in range(ranks[n])]
                     for _ in range(ranks[n - 1])])
        else:
            k = from_columns(ring, ranks[n - 1], prev_kernel)
            m = k @ dense_mat(ring, k.ncols, ranks[n],
                        [[rng.randint(-2, 2) for _ in range(ranks[n])]
                         for _ in range(k.ncols)])
        diffs[n] = m
        prev_kernel = reference_kernel(m)
    return ChainComplex(ring, ranks, diffs)


def random_chain_map(rng, src, tgt):
    """A random point of the linear space of chain maps src -> tgt."""
    ring = src.ring
    top = max(src.top, tgt.top)
    idx = {}
    count = 0
    for n in range(top + 1):
        for i in range(tgt.rank(n)):
            for j in range(src.rank(n)):
                idx[(n, i, j)] = count
                count += 1
    if count == 0:
        return ChainMap(src, tgt, {})
    rows = []
    for n in range(1, top + 1):
        for i in range(tgt.rank(n - 1)):
            for j in range(src.rank(n)):
                row = [ring.zero] * count
                for k in range(tgt.rank(n)):
                    v = tgt.d(n).rows[i][k]
                    if v != ring.zero:
                        row[idx[(n, k, j)]] = row[idx[(n, k, j)]] + v
                for k in range(src.rank(n - 1)):
                    v = src.d(n).rows[k][j]
                    if v != ring.zero:
                        key = idx[(n - 1, i, k)]
                        row[key] = row[key] - v
                rows.append(row)
    if rows:
        basis = reference_kernel(dense_mat(ring, len(rows), count, rows))
    else:
        basis = [[ring.one if i == j else ring.zero for i in range(count)]
                 for j in range(count)]
    sol = [ring.zero] * count
    for vec in basis:
        c = ring.normalize(rng.randint(-2, 2))
        sol = [a + c * b for a, b in zip(sol, vec)]
    mats = {}
    for n in range(top + 1):
        mats[n] = dense_mat(ring, tgt.rank(n), src.rank(n),
                            [[sol[idx[(n, i, j)]] for j in range(src.rank(n))]
                             for i in range(tgt.rank(n))])
    return ChainMap(src, tgt, mats)


def test_nonequivariant_sanity_certificates_iff_quasi_iso():
    """Over fields with trivial symmetry the search finds a certificate
    exactly when the map is a quasi-isomorphism (random rank <= 4)."""
    rng = random.Random(41)
    for ring in (QQ, PrimeField(2)):
        fixtures = []
        base = ChainComplex(ring, (1, 1), {1: dense_mat(ring, 1, 1, [[1]])})
        fixtures.append(ChainMap(zero_complex(ring), base, {}))
        fixtures.append(ChainMap(zero_complex(ring), concentrated(ring, 1), {}))
        fixtures.append(ChainMap(concentrated(ring, 0), concentrated(ring, 0),
                                 {0: dense_mat(ring, 1, 1, [[2]])}))  # 2 = 0 mod 2
        for _ in range(12):
            src = random_field_complex(rng, ring)
            tgt = random_field_complex(rng, ring)
            fixtures.append(random_chain_map(rng, src, tgt))
            fixtures.append(identity_chain_map(src))
        quasi = 0
        for cf in fixtures:
            cert = certificate_search(cf)
            assert (cert is not None) == is_quasi_iso(cf)
            if cert is not None:
                quasi += 1
                assert verify_certificate(cert, cf)
        assert 0 < quasi < len(fixtures)


def test_integer_versus_rational_certificates():
    # multiplication by 2 on Z<0>: rational homotopy inverse only
    fz = ChainMap(concentrated(ZZ, 0), concentrated(ZZ, 0),
                  {0: dense_mat(ZZ, 1, 1, [[2]])})
    assert certificate_search(fz) is None
    fq = ChainMap(concentrated(QQ, 0), concentrated(QQ, 0),
                  {0: dense_mat(QQ, 1, 1, [[2]])})
    assert certificate_search(fq) is not None


def test_unknown_cap():
    import orbitkit.whitehead as wh
    old = wh.MAX_CELLS
    try:
        wh.MAX_CELLS = 100
        for ring in (ZZ, PrimeField(2)):
            cf = identity_chain_map(ChainComplex(ring, (80,), {}))
            with pytest.raises(ValueError, match="cap"):
                certificate_search(cf)
    finally:
        wh.MAX_CELLS = old


def test_trivial_group_cones_are_reduced_before_the_solve():
    # whole, each cone's system exceeds MAX_CELLS; reduced, it is small
    for ring in (ZZ, PrimeField(2)):
        for f in (identity_smap(standard_simplex(5)), identity_smap(boundary_simplex(5)),
                  prism(standard_simplex(3)).end1):
            assert f.source.group.order == 1
            cf = normalized_chain_map(f, ring)
            cert = certificate_search(cf)
            assert cert is not None and verify_certificate(cert, cf)


def free_simplex(order, n):
    return gtensor(regular_gset(cyclic_group(order)), standard_simplex(n))


def test_large_integer_system_is_never_written_out_densely(monkeypatch):
    # unreduced, the C8/e x Delta[3] identity over Z or F_2 is a 1,520 x 1,384
    # system; no Mat near its 2.1M cells is built, before or after the reduction
    init = Mat.__init__
    largest = []

    def spy(self, ring, nrows, ncols, *args, **kwargs):
        largest.append(nrows * ncols)
        init(self, ring, nrows, ncols, *args, **kwargs)

    monkeypatch.setattr(Mat, "__init__", spy)
    for ring in (ZZ, PrimeField(2)):
        cf = normalized_chain_map(identity_smap(free_simplex(8, 3)), ring)
        cert = certificate_search(cf)
        assert cert is not None and verify_certificate(cert, cf)
        assert max(largest) <= 100_000
        largest.clear()


def test_search_solves_the_reduced_cone_in_orbit_coordinates(monkeypatch):
    import orbitkit.whitehead as wh
    shapes = []
    solve = wh.solve_exact

    def spy(a, b):
        shapes.append((a.nrows, a.ncols))
        return solve(a, b)

    monkeypatch.setattr(wh, "solve_exact", spy)
    # the cones of these identities and prism end inclusions reduce to 0: the
    # contraction is -h, and no system is solved
    for f in (identity_smap(free_simplex(4, 1)), identity_smap(free_simplex(8, 2)),
              prism(free_simplex(4, 1)).end0):
        cf = normalized_chain_map(f, ZZ)
        assert not any(orbit_reduction(mapping_cone(cf))[0].ranks)
        cert = certificate_search(cf)
        assert cert is not None and verify_certificate(cert, cf)
    assert shapes == []
    # 2 id on Q[C4] in degree 0: its cone Q[C4] <-2- Q[C4] keeps both orbits, as
    # 2 is not +-1; one unknown per C4-orbit of the index pairs of H' (the only
    # block is H'_0, Q[C4] -> Q[C4]) and one row per orbit of each degree's pairs
    reg = ChainComplex(QQ, (4,), {}, [regular_gset(cyclic_group(4))])
    twice = ChainMap(reg, reg, {0: dense_mat(QQ, 4, 4, [[2 * (i == j) for j in range(4)]
                                                  for i in range(4)])})
    r = orbit_reduction(mapping_cone(twice))[0]
    assert r.ranks == (4, 4)
    cert = certificate_search(twice)
    assert cert is not None and verify_certificate(cert, twice)
    orbit_count = {n: len(_pair_orbits(r.action[n + 1], r.action[n])) for n in range(r.top)}
    assert orbit_count == {0: 4}
    rows = sum(len(_pair_orbits(x, x)) for x in r.action)
    assert shapes == [(rows, sum(orbit_count.values()))] == [(8, 4)]


def test_identity_and_composite_chain_maps_keep_equivariance():
    c = normalized_chains(free_simplex(2, 1), ZZ)
    ident = identity_chain_map(c)
    comp = compose_chain_maps(ident, ident)
    for f in (ident, comp):
        assert f.equivariant
        cert = certificate_search(f)
        assert cert is not None and verify_certificate(cert, f)
    unchecked = ChainMap(c, c, {n: ident.mat(n) for n in range(c.top + 1)},
                         validate=False)
    assert not compose_chain_maps(ident, unchecked).equivariant


def assert_blocks_span_the_equivariant_matrices(left, ln, right, rn):
    """``_block`` for left_ln x right_rn has as many unknowns as the kernel of the
    equivariance constraints rho_left(a) X - X rho_right(a) = 0 (a a generator,
    X read row by row) has dimensions; its indicators lie in that kernel and
    span it: each vector of the test-side kernel basis (over Z, of the
    saturated lattice) is the sum of the indicators weighted by its values."""
    ring, group = left.ring, left.group
    r, c = left.rank(ln), right.rank(rn)
    block = _block(group, 0, left, ln, right, rn, {})
    rows = []
    for a in group.generators:
        rho_l, rho_r = action_matrix(left, a, ln), action_matrix(right, a, rn)
        for i in range(r):
            for j in range(c):
                row = [0] * (r * c)
                for p in range(r):
                    row[p * c + j] += rho_l.rows[i][p]
                for q in range(c):
                    row[i * c + q] -= rho_r.rows[q][j]
                rows.append(row)
    kernel = reference_kernel(dense_mat(ring, len(rows), r * c, rows))
    assert block.size == len(kernel)
    first = {}  # each unknown's first entry
    for e, u in enumerate(block.coords):
        first.setdefault(u, e)
    for u in range(block.size):  # each indicator solves the constraints
        assert not any(ring.normalize(sum(x for x, w in zip(row, block.coords) if w == u))
                       for row in rows)
    for v in kernel:  # and v is the sum of the indicators weighted by its values
        assert [ring.normalize(v[first[u]]) for u in block.coords] == \
            [ring.normalize(x) for x in v]


@pytest.mark.parametrize("ring", [ZZ, QQ, PrimeField(2)], ids=str)
def test_permutation_and_matrix_actions_give_one_verdict(ring):
    # the orbit indicators of every block of the solver's unknowns against the
    # test-side kernel of the permutation matrices' equivariance constraints
    c2 = cyclic_group(2)
    x = free_simplex(2, 1)
    maps = [normalized_chain_map(identity_smap(x), ring),
            normalized_chain_map(prism(x).end0, ring)]
    # 2 id on R[C2] in degree 0: inverse over Q only (2 = 0 in F_2)
    reg = ChainComplex(ring, (2,), {}, [regular_gset(c2)])
    maps.append(ChainMap(reg, reg, {0: dense_mat(ring, 2, 2, [[2, 0], [0, 2]])}))
    expect = [True, True, ring == QQ]
    for cf, found in zip(maps, expect):
        assert cf.equivariant
        cert = certificate_search(cf)
        assert (cert is not None) == found
        assert cert is None or verify_certificate(cert, cf)
        src, tgt = cf.source, cf.target
        for n in range(-1, max(src.top, tgt.top) + 2):
            for left, right, shift in ((src, tgt, 0), (tgt, tgt, 1), (src, src, 1)):
                assert_blocks_span_the_equivariant_matrices(left, n + shift, right, n)


# ---------------------------------------------------------------------------
# the full report


def test_whitehead_identity_passes_everything(c2):
    x = swap_boundary1(c2)
    from orbitkit.simplicial import identity_smap
    rep = whitehead_verify(identity_smap(x), [trivial_subgroup(c2)], ZZ)
    assert all(rep.hyp_a.values()) and all(rep.hyp_b.values())
    assert rep.certificate is not None


def test_whitehead_vertex_interval_trivial_action(c2):
    pt = with_trivial_action(point_sset(), c2)
    d1 = with_trivial_action(standard_simplex(1), c2)
    f = SMap(pt, d1, {0: SimplexRef(0)})
    rep = whitehead_verify(f, all_subgroups(c2), ZZ)
    assert rep.isotropy.ok_conjugate and rep.isotropy.ok_strict
    assert all(rep.hyp_a.values()) and all(rep.hyp_b.values())
    assert rep.certificate is not None
    assert verify_certificate(rep.certificate, normalized_chain_map(f, ZZ))


def test_whitehead_mixed_stabilizer_retract(c2):
    pt = with_trivial_action(point_sset(), c2)
    y = vee(c2)
    f = SMap(pt, y, {0: SimplexRef(2)})
    rep = whitehead_verify(f, all_subgroups(c2), ZZ)
    assert all(rep.hyp_b.values())
    assert rep.certificate is not None


def test_whitehead_empty_to_free_orbit_distinguishes_families(c2):
    x = swap_boundary1(c2)
    f = SMap(empty_sset(c2), x, {})
    rep_full = whitehead_verify(f, [full_subgroup(c2)], ZZ)
    # fixed sets are empty on both sides for H = C2: hypothesis (b) passes
    assert rep_full.hyp_b == {"0,1": True}
    # but hypothesis (a) sees the orbit-sum invariants and fails
    assert rep_full.hyp_a == {"0,1": False}
    rep_triv = whitehead_verify(f, [trivial_subgroup(c2)], ZZ)
    assert rep_triv.hyp_b == {"0": False}
    assert rep_triv.failing_subgroups() == ["0"]
    assert rep_triv.certificate is None and not rep_triv.searched


def test_whitehead_fold_map_fails(c2):
    from orbitkit.simplicial import disjoint_copies
    two = with_trivial_action(disjoint_copies(point_sset(), 2)[0], c2)
    one = with_trivial_action(point_sset(), c2)
    fold = SMap(two, one, {0: SimplexRef(0), 1: SimplexRef(0)})
    rep = whitehead_verify(fold, [full_subgroup(c2)], ZZ)
    assert not all(rep.hyp_a.values()) and not all(rep.hyp_b.values())
    assert rep.failing_subgroups() == ["0,1"]
    assert rep.certificate is None


def test_whitehead_swap_into_vee_fails_and_reports_subgroups(c2):
    # isotropy holds for the full family, but neither fixed-point
    # comparison is a quasi-isomorphism: two points against a
    # contractible target at e, empty against a point at C2
    x = swap_boundary1(c2)
    y = vee(c2)
    f = SMap(x, y, {0: SimplexRef(0), 1: SimplexRef(1)})
    rep = whitehead_verify(f, all_subgroups(c2), ZZ)
    assert rep.isotropy.ok_conjugate
    assert rep.hyp_b == {"0": False, "0,1": False}
    assert rep.hyp_a == {"0": False, "0,1": False}
    assert rep.certificate is None and not rep.searched
    assert rep.failing_subgroups() == ["0", "0,1"]
    assert rep.to_json() == {
        "isotropy": {"subconjugate": True, "strict": True, "witness": None},
        "hyp_a": {"0": False, "0,1": False}, "hyp_b": {"0": False, "0,1": False},
        "certificate": None, "searched": False}


def test_isotropy_strict_versus_conjugate(s3):
    # stabilizer is a conjugate of the family member but not a member
    from orbitkit.gsets import coset_gset
    subs = all_subgroups(s3)
    order2 = [h for h in subs if len(h.members) == 2]
    x = gtensor(coset_gset(s3, order2[0]), point_sset())
    f = SMap(empty_sset(s3), x, {})
    rep = isotropy_check(f, [order2[1]])
    assert rep.ok_conjugate
    assert not rep.ok_strict


def test_whitehead_requires_equivariant_map(c2):
    x = swap_boundary1(c2)
    f = SMap(x, x, {0: SimplexRef(0), 1: SimplexRef(0)})
    assert not f.equivariant
    with pytest.raises(ValueError, match="equivariant"):
        whitehead_verify(f, all_subgroups(c2), ZZ)


def test_certificate_search_reverifies_under_python_O():
    # the final re-verification must not be an assert that -O strips
    script = textwrap.dedent("""
        import sys
        import orbitkit.whitehead as w
        from orbitkit import InternalError, ZZ, cyclic_group, gtensor, \\
            identity_smap, normalized_chain_map, regular_gset, standard_simplex
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        w.verify_certificate = lambda cert, cf: False
        c2 = cyclic_group(2)
        for x in (standard_simplex(1),
                  gtensor(regular_gset(c2), standard_simplex(1))):
            cf = normalized_chain_map(identity_smap(x), ZZ)
            try:
                w.certificate_search(cf)
            except InternalError:
                continue
            sys.exit("returned a certificate that failed re-verification")
    """)
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# hypothesis (a) on one reduced cone, and pair orbits from stabilizers


def _cosets_map(k, l_):
    """The values of G/K -> G/L, rK -> rL, for K inside L."""
    reps, _ = k.cosets
    return [l_.cosets.index[r] for r in reps]


def hypothesis_a_maps(group, k, n):
    """Equivariant maps over G/K (x) Delta[n]: the identity, both prism end
    inclusions, the prism's projection and the collapse of each copy of
    Delta[n] to a point (not injective), the projection onto G/G (x) Delta[n],
    and the inclusion of G/K (x) the boundary of Delta[n]."""
    orbit = coset_gset(group, k)
    x = gtensor(orbit, standard_simplex(n))
    pr = prism(x)
    stride = len(standard_simplex(n).dim_of)
    point = gtensor(orbit, point_sset())
    collapse = SMap(x, point, {s: SimplexRef(s // stride, tuple(range(d - 1, -1, -1)))
                               for s, d in x.dim_of.items()})
    whole = full_subgroup(group)
    top = gtensor(coset_gset(group, whole), standard_simplex(n))
    to_top = _cosets_map(k, whole)
    onto = SMap(x, top, {s: SimplexRef(to_top[s // stride] * stride + s % stride)
                         for s in x.ids()})
    maps = [identity_smap(x), pr.end0, pr.end1, pr.proj, collapse, onto]
    if n:
        bdry = gtensor(orbit, boundary_simplex(n))
        inner = stride - 1
        maps.append(SMap(bdry, x, {s: SimplexRef(s // inner * stride + s % inner)
                                   for s in bdry.ids()}))
    return maps


HYP_A_GROUPS = [symmetric_group(3), dihedral_group(4), cyclic_group(4)]
RINGS = [ZZ, QQ, PrimeField(2), PrimeField(3)]


def invariant_quasi_isos(cf, subgroups):
    """Hypothesis (a) as ``whitehead_verify`` decides it, on cf's reduced cone."""
    return _invariant_quasi_isos(orbit_reduction(mapping_cone(cf))[0], subgroups)


def invariant_quasi_isos_by_restriction(cf, subgroups):
    return {h.label: is_quasi_iso(restrict_to_invariants(cf, h)) for h in subgroups}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(group=st.sampled_from(HYP_A_GROUPS), data=st.data(), n=st.integers(0, 2),
       ring=st.sampled_from(RINGS))
def test_hypothesis_a_on_the_reduced_cone_matches_each_restriction(group, data, n, ring):
    subgroups = all_subgroups(group)
    k = data.draw(st.sampled_from([h for h in subgroups if not h.is_trivial()]))
    f = data.draw(st.sampled_from(hypothesis_a_maps(group, k, n)))
    assert f.equivariant
    cf = normalized_chain_map(f, ring)
    assert invariant_quasi_isos(cf, subgroups) == \
        invariant_quasi_isos_by_restriction(cf, subgroups)


def test_hypothesis_a_on_the_reduced_cone_says_no_where_a_restriction_does(s3, d4):
    seen = set()
    for group in (s3, d4):
        subgroups = all_subgroups(group)
        k = next(h for h in subgroups if h.order == 2)
        *_, onto, inclusion = hypothesis_a_maps(group, k, 1)
        for ring in RINGS:
            for f in (onto, inclusion):  # G/K -> G/G, and the boundary of Delta[1]
                cf = normalized_chain_map(f, ring)
                verdicts = invariant_quasi_isos(cf, subgroups)
                assert verdicts == invariant_quasi_isos_by_restriction(cf, subgroups)
                assert not all(verdicts.values())
                seen.update(verdicts.values())
    assert seen == {False, True}


def test_hypothesis_a_refuses_a_chain_map_that_is_not_equivariant(c2):
    c = normalized_chains(gtensor(regular_gset(c2), point_sset()), ZZ)
    swap = ChainMap(c, c, {0: dense_mat(ZZ, 2, 2, [[1, 0], [0, 0]])})
    assert not swap.equivariant
    with pytest.raises(InternalError, match="equivariant"):
        invariant_quasi_isos(swap, all_subgroups(c2))


def _pair_orbits_g_orbits(x, y):
    """Mutant: G-orbits of y where G_p-orbits belong."""
    elements, c = x.group.elements(), y.size
    return [tuple(sorted({x.act[a][p] * c + y.act[a][q] for a in elements}))
            for (p, *_) in orbits(x.act, elements) for (q, *_) in orbits(y.act, elements)]


def _pair_orbits_short_stabilizer(x, y):
    """Mutant: G_p less its last element, when it has one besides the identity."""
    elements, c = x.group.elements(), y.size
    out = []
    for (p, *_) in orbits(x.act, elements):
        stab = stabilizer(x.group, x.act, p).members
        for (q, *_) in orbits(y.act, stab[:-1] if len(stab) > 1 else stab):
            out.append(tuple(sorted({x.act[a][p] * c + y.act[a][q] for a in elements})))
    return out


PAIR_GROUPS = [symmetric_group(3), dihedral_group(4),
               group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4"),
               direct_product(cyclic_group(2), cyclic_group(4))]


def assert_pair_orbits_are_product_orbits(pair_orbits):
    for group in PAIR_GROUPS:
        for k in all_subgroups(group):
            for l_ in all_subgroups(group):
                x, y = coset_gset(group, k), coset_gset(group, l_)
                want = orbits(product_gset(x, y).act, group.elements())
                assert pair_orbits(x, y) == want, (group, k, l_)


def test_pair_orbits_from_stabilizers_are_the_orbits_of_the_product():
    assert_pair_orbits_are_product_orbits(_pair_orbits)
    for mutant in (_pair_orbits_g_orbits, _pair_orbits_short_stabilizer):
        with pytest.raises(AssertionError):
            assert_pair_orbits_are_product_orbits(mutant)


# ---------------------------------------------------------------------------
# certificates read off one contraction of the orbit-reduced cone


def reference_solve(f: ChainMap):
    """Reference: (g, s, t) by degree with f g - 1 = d s + s d and g f - 1 = d t + t d
    for an equivariant chain map f, solved as three linked equation families (g a
    chain map, both homotopies) on f's own complexes, without any reduction, or None."""
    src, tgt = f.source, f.target
    ring, top = src.ring, max(src.top, tgt.top)
    group = src.group if tgt.group is not None else None
    if group is not None and group.order == 1:
        group = None

    count, memo = 0, {}
    g, s, t = {}, {}, {}
    for blocks, left, right, shift in ((g, src, tgt, 0), (s, tgt, tgt, 1),
                                       (t, src, src, 1)):
        for n in range(-1, top + 2):
            blocks[n] = _block(group, count, left, n + shift, right, n, memo)
            count += blocks[n].size

    def eye(c, n):
        return Mat.identity(ring, c.rank(n))

    system = _LinearSystem(ring, count)
    for n in range(1, top + 1):
        # chain map: d_src g_n - g_{n-1} d_tgt = 0
        system.add_equations([(src.d(n), g[n], eye(tgt, n)),
                              (-eye(src, n - 1), g[n - 1], tgt.d(n))],
                             _positions(group, src, n - 1, tgt, n, memo))
    for n in range(top + 1):
        # homotopy on the target: f g - d s - s d = id
        system.add_equations([(f.mat(n), g[n], eye(tgt, n)),
                              (-tgt.d(n + 1), s[n], eye(tgt, n)),
                              (-eye(tgt, n), s[n - 1], tgt.d(n))],
                             _positions(group, tgt, n, tgt, n, memo), diagonal=True)
        # homotopy on the source: g f - d t - t d = id
        system.add_equations([(eye(src, n), g[n], f.mat(n)),
                              (-src.d(n + 1), t[n], eye(src, n)),
                              (-eye(src, n), t[n - 1], src.d(n))],
                             _positions(group, src, n, src, n, memo), diagonal=True)

    solution = system.solve()
    if solution is None:
        return None
    return tuple({n: blocks[n].value(ring, solution) for n in range(top + 2)}
                 for blocks in (g, s, t))


def test_the_reference_finds_certificates_that_verify():
    for ring in RINGS:
        cf = normalized_chain_map(prism(free_simplex(2, 1)).end0, ring)
        g, s, t = reference_solve(cf)
        src, tgt = cf.source, cf.target
        degrees = range(max(src.top, tgt.top) + 1)
        cert = Certificate(ChainMap(tgt, src, {n: g[n] for n in degrees}),
                           ChainHomotopy(tgt, tgt, {n: s[n] for n in degrees}),
                           ChainHomotopy(src, src, {n: t[n] for n in degrees}))
        assert verify_certificate(cert, cf)


def assert_transport_keeps_the_verdict(cf) -> bool:
    """certificate_search(cf), a contraction of the orbit-reduced cone carried back,
    passes verify_certificate on cf, and exists exactly when the reference's three
    equation families on cf's own complexes have a solution; returns whether it exists."""
    cert = certificate_search(cf)
    assert (cert is not None) == (reference_solve(cf) is not None)
    assert cert is None or verify_certificate(cert, cf)
    return cert is not None


TRANSPORT_GROUPS = [cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3),
                    dihedral_group(4), cyclic_group(1)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(group=st.sampled_from(TRANSPORT_GROUPS), data=st.data(), n=st.integers(0, 1),
       ring=st.sampled_from(RINGS))
def test_a_transported_certificate_verifies_and_keeps_the_unreduced_verdict(group, data, n,
                                                                           ring):
    """On the identity, the prism end inclusions and projection, the collapse of
    each copy of Delta[n], G/K -> G/G and the boundary inclusion of G/K (x) Delta[n];
    n <= 1 keeps the reference's unreduced systems of the prisms small."""
    k = data.draw(st.sampled_from(all_subgroups(group)))
    f = data.draw(st.sampled_from(hypothesis_a_maps(group, k, n)))
    assert_transport_keeps_the_verdict(normalized_chain_map(f, ring))


def scaled(cf: ChainMap, c) -> ChainMap:
    """c times cf, an equivariant chain map when cf is one."""
    ring = cf.source.ring
    return ChainMap(cf.source, cf.target,
                    {n: dense_mat(ring, m.nrows, m.ncols, [[c * v for v in row]
                                                           for row in m.rows])
                     for n, m in enumerate(cf)})


def random_orbit_map(data, group, ring) -> ChainMap:
    """A random equivariant map R[G/K] -> R[G/L] in degree 0: a random integer
    combination of the indicators of the pair orbits."""
    subgroups = all_subgroups(group)
    x, y = (coset_gset(group, data.draw(st.sampled_from(subgroups))) for _ in range(2))
    rows = [[0] * x.size for _ in range(y.size)]
    for orbit in _pair_orbits(y, x):
        c = data.draw(st.integers(-2, 2))
        for e in orbit:
            i, j = divmod(e, x.size)
            rows[i][j] = c
    src, tgt = (ChainComplex(ring, (z.size,), {}, [z]) for z in (x, y))
    return ChainMap(src, tgt, {0: dense_mat(ring, y.size, x.size, rows)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(group=st.sampled_from(TRANSPORT_GROUPS[:4]), data=st.data(),
       ring=st.sampled_from(RINGS), scalar=st.sampled_from([1, -1, 2, 3]))
def test_the_cone_contraction_gives_the_verdict_of_three_equation_families(group, data, ring,
                                                                          scalar):
    """On random equivariant maps: scalar multiples of the maps of
    ``hypothesis_a_maps`` over G/K (x) Delta[n], n <= 1, and random combinations of
    pair-orbit indicators between permutation modules in degree 0.  Units,
    non-equivalences and 2 id (a rational inverse only) all occur."""
    if data.draw(st.booleans()):
        k = data.draw(st.sampled_from(all_subgroups(group)))
        f = data.draw(st.sampled_from(hypothesis_a_maps(group, k, data.draw(st.integers(0, 1)))))
        cf = scaled(normalized_chain_map(f, ring), scalar)
    else:
        cf = random_orbit_map(data, group, ring)
    assert cf.equivariant
    assert_transport_keeps_the_verdict(cf)


def test_transport_keeps_the_verdict_on_twice_the_identity_of_the_regular_representation():
    c2 = cyclic_group(2)
    found = {}
    for ring in RINGS:  # 2 is a unit over Q and F_3 only
        reg = ChainComplex(ring, (2,), {}, [regular_gset(c2)])
        twice = ChainMap(reg, reg, {0: dense_mat(ring, 2, 2, [[2, 0], [0, 2]])})
        found[ring.name] = assert_transport_keeps_the_verdict(twice)
    assert found == {"Z": False, "Q": True, "Fp:2": False, "Fp:3": True}


def misread_certificate(cf, contraction, s_sign=-1, t_from=1):
    """A test-side reader of (g, s, t) from a contraction H of cf's cone: as
    ``whitehead._certificate`` with s_n = s_sign H_n[Y_{n+1}, Y_n] and
    t_n = H_{n + t_from}[X_{n + t_from}, X_{n + t_from - 1}]."""
    src, tgt = cf.source, cf.target

    def part(n, x_rows, x_cols):
        y, y1 = tgt.rank(n), tgt.rank(n + 1)
        rows = contraction[n].rows[y1:] if x_rows else contraction[n].rows[:y1]
        return dense_mat(src.ring, len(rows), src.rank(n - 1) if x_cols else y,
                         [row[y:] if x_cols else row[:y] for row in rows])

    degrees = range(max(src.top, tgt.top) + 1)
    g = ChainMap(tgt, src, {n: part(n, True, False) for n in degrees}, validate=False)
    s = {n: part(n, False, False) for n in degrees}
    return Certificate(g, ChainHomotopy(tgt, tgt, {n: m if s_sign > 0 else -m
                                                   for n, m in s.items()}),
                       ChainHomotopy(src, src, {n: part(n + t_from, True, True)
                                                for n in degrees}))


def without_h(c):
    """Mutant of the transport: the cone's retraction with h dropped, so that
    H = incl H' proj."""
    r, incl, proj, _ = orbit_reduction(c)
    return r, incl, proj, ChainHomotopy(c, c, {})


def test_verify_certificate_refuses_a_misread_contraction(monkeypatch):
    import orbitkit.whitehead as wh
    # the prism end inclusion's s is not 0, and its sign shows outside F_2
    maps = [normalized_chain_map(prism(free_simplex(3, 1)).end0, ring)
            for ring in (ZZ, QQ, PrimeField(3))]
    monkeypatch.setattr(wh, "_certificate", misread_certificate)
    certs = [certificate_search(cf) for cf in maps]  # the reader as it should be
    assert all(cert is not None and verify_certificate(cert, cf)
               for cert, cf in zip(certs, maps))
    mutants = [("_certificate", lambda cf, h: misread_certificate(cf, h, s_sign=1)),
               ("_certificate", lambda cf, h: misread_certificate(cf, h, t_from=0)),
               ("orbit_reduction", without_h)]
    for name, mutant in mutants:
        with monkeypatch.context() as m:
            m.setattr(wh, name, mutant)
            for cf in maps:
                with pytest.raises(InternalError, match="re-verification"):
                    certificate_search(cf)


def relabelled(x: GSSet) -> tuple[GSSet, dict]:
    """x with its simplex identifiers reversed, and the relabelling."""
    ids = sorted(x.dim_of)
    tau = dict(zip(ids, reversed(ids)))
    faces = {tau[s]: tuple(SimplexRef(tau[r.base], r.word) for r in fs)
             for s, fs in x.faces.items()}
    action = {a: {tau[s]: tau[t] for s, t in m.items()} for a, m in x.action.items()}
    return GSSet(x.group, {tau[s]: n for s, n in x.dim_of.items()}, faces, action), tau


def test_whitehead_verify_reduces_the_cone_once(monkeypatch):
    import orbitkit.whitehead as wh
    calls = []

    def counted(c):
        calls.append(c)
        return orbit_reduction(c)

    monkeypatch.setattr(wh, "orbit_reduction", counted)
    group = cyclic_group(4)
    x = free_simplex(4, 1)
    y, tau = relabelled(x)
    maps = [identity_smap(x), SMap(x, y, {s: SimplexRef(tau[s]) for s in x.ids()}),
            prism(x).end0]
    for f in maps:
        assert f.equivariant
        report = whitehead_verify(f, all_subgroups(group), ZZ)
        assert report.searched and report.certificate is not None
        assert len(calls) == 1
        calls.clear()


# ---------------------------------------------------------------------------
# route (b) at e on f's own chains, isotropy once per stabilizer, and an
# unflagged map under the trivial group


def fixed_point_quasi_isos(f: SMap, family, ring) -> dict:
    """Hypothesis (b) with every H through its fixed points, e among them: f restricted
    to X^H -> Y^H, validated as a simplicial map, compared by its normalized chains."""
    out = {}
    for h in family:
        fx, _ = fixed_sset(f.source, h)
        fy, _ = fixed_sset(f.target, h)
        restricted = SMap(fx, fy, {s: f.values[s] for s in fx.ids()})
        out[h.label] = is_quasi_iso(normalized_chain_map(restricted, ring))
    return out


def report_maps():
    """(group, map) for the simplicial G-maps this file builds: the maps of the full
    report's tests over C2, ``hypothesis_a_maps`` over G/K for every K in S3, D4 and C4
    (the S3/C2 maps, whose orbits are not free, and the inclusions of the boundary of
    Delta[1], which fail), and the C4 maps of ``test_whitehead_verify_reduces_the_cone_once``."""
    c2 = cyclic_group(2)
    swap, y = swap_boundary1(c2), vee(c2)
    pt, d1 = with_trivial_action(point_sset(), c2), with_trivial_action(standard_simplex(1), c2)
    from orbitkit.simplicial import disjoint_copies
    two = with_trivial_action(disjoint_copies(point_sset(), 2)[0], c2)
    out = [(c2, f) for f in (identity_smap(swap), SMap(pt, d1, {0: SimplexRef(0)}),
                             SMap(pt, y, {0: SimplexRef(2)}), SMap(empty_sset(c2), swap, {}),
                             SMap(two, pt, {0: SimplexRef(0), 1: SimplexRef(0)}),
                             SMap(swap, y, {0: SimplexRef(0), 1: SimplexRef(1)}))]
    for group in HYP_A_GROUPS:
        out += [(group, f) for k in all_subgroups(group) for n in (0, 1)
                for f in hypothesis_a_maps(group, k, n)]
    x = free_simplex(4, 1)
    x2, tau = relabelled(x)
    out += [(x.group, f) for f in (identity_smap(x), prism(x).end0,
                                   SMap(x, x2, {s: SimplexRef(tau[s]) for s in x.ids()}))]
    return out


def test_hypothesis_b_at_e_on_f_s_own_chains_keeps_every_verdict():
    # each H's verdict is the family's entry for H, so every subgroup, e included, is
    # checked once per ring; a family without e once more over Z
    seen = set()
    for group, f in report_maps():
        assert f.equivariant
        subgroups = all_subgroups(group)
        without_e = [h for h in subgroups if not h.is_trivial()]
        for family, ring in ((subgroups, ZZ), (subgroups, QQ), (subgroups, PrimeField(2)),
                             (without_e, ZZ)):
            report = whitehead_verify(f, family, ring)
            assert report.hyp_b == fixed_point_quasi_isos(f, family, ring)
            seen.update((label == "0", ok) for label, ok in report.hyp_b.items())
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def isotropy_reference(f: SMap, family) -> IsotropyReport:
    """isotropy_check deciding conjugacy at every simplex, in (dimension, id) order."""
    ok_c, ok_s, witness = True, True, None
    for sset in (f.source, f.target):
        for s in sorted(sset.ids(), key=lambda s: (sset.dim(s), s)):
            stab = stabilizer(sset.group, sset.action, s)
            ok_s = ok_s and stab.members in {k.members for k in family}
            if not any(conjugating_element(stab, k) is not None for k in family):
                ok_c = False
                witness = s if witness is None else witness
    return IsotropyReport(ok_c, ok_s, witness)


def test_isotropy_names_the_first_simplex_with_a_failing_stabilizer(s3):
    # S3/C2 x Delta[1] with ids reversed, so that its edges come before its vertices
    # by id: every simplex over one coset shares that coset's stabilizer, a conjugate
    # of C2, and the witness is the least vertex id
    order2 = [h for h in all_subgroups(s3) if h.order == 2]
    x, tau = relabelled(gtensor(coset_gset(s3, order2[0]), standard_simplex(1)))
    assert min(x.dim_of) in x.ids_of_dim(1)
    f = SMap(empty_sset(s3), x, {})
    for family in ([trivial_subgroup(s3)], [order2[1]], [full_subgroup(s3)],
                   [h for h in all_subgroups(s3) if h.order == 3]):
        report = isotropy_check(f, family)
        assert report == isotropy_reference(f, family)
        if not report.ok_conjugate:
            assert report.witness == min(x.ids_of_dim(0))
    for group, f in report_maps():
        for family in (all_subgroups(group), [trivial_subgroup(group)]):
            assert isotropy_check(f, family) == isotropy_reference(f, family)


def test_an_unflagged_chain_map_under_the_trivial_group_is_solved_on_its_reduced_cone():
    # every chain map is equivariant under e, so its cone is orbit-reduced as
    # identity_chain_map's is; whole, the identity of Delta[5]'s chains exceeds MAX_CELLS
    for ring in (ZZ, PrimeField(2)):
        c = normalized_chains(standard_simplex(5), ring)
        assert c.group.order == 1
        cf = ChainMap(c, c, dict(enumerate(identity_chain_map(c))), validate=False)
        assert not cf.equivariant and mapping_cone(cf).group == c.group
        cert = certificate_search(cf)
        assert cert is not None and verify_certificate(cert, cf)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(group=st.sampled_from(TRANSPORT_GROUPS), data=st.data(), n=st.integers(0, 2),
       kind=st.sampled_from(["identity", "prism"]))
def test_a_z_certificate_implies_one_over_q_f2_and_f3(group, data, n, kind):
    """On G/K (x) Delta[n] identities and prism end inclusions: whenever
    ``whitehead_verify`` returns a certificate over Z, it returns one over Q,
    F_2 and F_3 too, each re-verified on the map's own chains over its ring.
    These maps are equivariant homotopy equivalences, so Z always has one."""
    k = data.draw(st.sampled_from(all_subgroups(group)))
    x = gtensor(coset_gset(group, k), standard_simplex(n))
    f = identity_smap(x) if kind == "identity" else prism(x).end0
    family = all_subgroups(group)
    assert whitehead_verify(f, family, ZZ).certificate is not None
    for ring in (QQ, PrimeField(2), PrimeField(3)):
        cert = whitehead_verify(f, family, ring).certificate
        assert cert is not None, ring
        assert verify_certificate(cert, normalized_chain_map(f, ring))

"""Certificates: search, verification, and the full hypothesis pipeline."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import orbitkit

from conftest import swap_boundary1, vee, with_trivial_action
from orbitkit.chains import ChainComplex, ChainHomotopy, ChainMap, \
    compose_chain_maps, concentrated, homotopy_defect, identity_chain_map, \
    is_quasi_iso, normalized_chain_map, normalized_chains, zero_complex
from orbitkit.exactla import Mat
from orbitkit.groups import all_subgroups, cyclic_group, full_subgroup, \
    trivial_subgroup
from orbitkit.gsets import coset_gset, regular_gset
from orbitkit.rings import PrimeField, QQ, ZZ
from orbitkit.simplicial import SMap, SimplexRef, boundary_simplex, empty_sset, \
    gtensor, identity_smap, make_smap, point_sset, prism, standard_simplex
from orbitkit.whitehead import Certificate, certificate_search, isotropy_check, \
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
    assert cert.backward.mat(0).rows == [[1, 1]]
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
    smat = Mat(m0.ring, m0.nrows, m0.ncols, m0.rows)
    smat.rows[0][0] = smat.rows[0][0] + 1
    bad = Certificate(cert.backward,
                      ChainHomotopy(s.source, s.target, {0: smat}),
                      cert.backward_homotopy)
    assert verify_certificate(cert, cf)
    assert not verify_certificate(bad, cf)


def test_verify_certificate_refuses_blocks_of_the_wrong_shape():
    cf = normalized_chain_map(make_smap(point_sset(), standard_simplex(1), {0: 0}), ZZ)
    cert = certificate_search(cf)
    g, s, t = cert.backward, cert.forward_homotopy, cert.backward_homotopy
    assert verify_certificate(cert, cf)

    def wider(m):  # one more zero column
        return Mat(ZZ, m.nrows, m.ncols + 1, [row + [0] for row in m.rows])

    def one_more_in_degree_0(c):
        return ChainComplex(ZZ, (c.rank(0) + 1,) + c.ranks[1:], {}, validate=False)

    bad_g = ChainMap(g.source, g.target, {0: wider(g.mat(0)), 1: g.mat(1)}, validate=False)
    bad_s, bad_t = (ChainHomotopy(one_more_in_degree_0(h.source), h.target, {0: wider(h.mat(0))})
                    for h in (s, t))
    for bad in (Certificate(bad_g, s, t), Certificate(g, bad_s, t), Certificate(g, s, bad_t)):
        assert verify_certificate(bad, cf) is False


def equivariance_only_mutants():
    """(cf, cert) pairs: cf = id on C2/e x boundary Delta[2] over Z, as permutations,
    as matrices and mixed, and cert its identity certificate with s_0 + N, where N
    sends each vertex of copy 0 to copy 0's boundary 1-cycle and copy 1's to 0.
    d N = 0 and N d = 0, so every homotopy identity holds, but N is not equivariant."""
    c2 = cyclic_group(2)
    x = gtensor(coset_gset(c2, trivial_subgroup(c2)), boundary_simplex(2))
    cycle = [1, -1, 1, 0, 0, 0]  # edges 01 - 02 + 12 of copy 0, which comes first
    n = Mat(ZZ, 6, 6, [[v] * 3 + [0] * 3 for v in cycle])
    out = []
    for cf in action_forms(normalized_chain_map(identity_smap(x), ZZ)):
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
            assert cf.source.rep_mat(a, n) @ g.mat(n) \
                == g.mat(n) @ cf.target.rep_mat(a, n)


def random_field_complex(rng, ring, max_rank=4, top=2):
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
                    [[rng.randint(-2, 2) for _ in range(ranks[n])]
                     for _ in range(ranks[n - 1])])
        else:
            k = Mat(ring, len(prev_kernel), ranks[n - 1], prev_kernel).transpose()
            m = k @ Mat(ring, k.ncols, ranks[n],
                        [[rng.randint(-2, 2) for _ in range(ranks[n])]
                         for _ in range(k.ncols)])
        diffs[n] = m
        prev_kernel = kernel_exact(m)
    return ChainComplex(ring, ranks, diffs)


def random_chain_map(rng, src, tgt):
    """A random point of the linear space of chain maps src -> tgt."""
    from orbitkit.exactla import kernel_exact
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
        basis = kernel_exact(Mat(ring, len(rows), count, rows))
    else:
        basis = [[ring.one if i == j else ring.zero for i in range(count)]
                 for j in range(count)]
    sol = [ring.zero] * count
    for vec in basis:
        c = ring.normalize(rng.randint(-2, 2))
        sol = [a + c * b for a, b in zip(sol, vec)]
    mats = {}
    for n in range(top + 1):
        m = Mat.zeros(ring, tgt.rank(n), src.rank(n))
        for i in range(tgt.rank(n)):
            for j in range(src.rank(n)):
                m.rows[i][j] = sol[idx[(n, i, j)]]
        mats[n] = m
    return ChainMap(src, tgt, mats)


def test_nonequivariant_sanity_certificates_iff_quasi_iso():
    """Over fields with trivial symmetry the search finds a certificate
    exactly when the map is a quasi-isomorphism (random rank <= 4)."""
    rng = random.Random(41)
    for ring in (QQ, PrimeField(2)):
        fixtures = []
        base = ChainComplex(ring, (1, 1), {1: Mat(ring, 1, 1, [[1]])})
        fixtures.append(ChainMap(zero_complex(ring), base, {}))
        fixtures.append(ChainMap(zero_complex(ring), concentrated(ring, 1), {}))
        fixtures.append(ChainMap(concentrated(ring, 0), concentrated(ring, 0),
                                 {0: Mat(ring, 1, 1, [[2]])}))  # 2 = 0 mod 2
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
                  {0: Mat(ZZ, 1, 1, [[2]])})
    assert certificate_search(fz) is None
    fq = ChainMap(concentrated(QQ, 0), concentrated(QQ, 0),
                  {0: Mat(QQ, 1, 1, [[2]])})
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


def free_simplex(order, n):
    return gtensor(regular_gset(cyclic_group(order)), standard_simplex(n))


def test_large_integer_system_is_never_written_out_densely(monkeypatch):
    # the C8/e x Delta[3] identity over Z or F_2 is a 1,520 x 1,384 system;
    # it is solved from its sparse rows, so no Mat near its 2.1M cells is built
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


def test_search_solves_in_orbit_coordinates(monkeypatch):
    import orbitkit.whitehead as wh
    shapes = []
    solve = wh.solve_exact

    def spy(a, b):
        shapes.append((a.nrows, a.ncols))
        return solve(a, b)

    monkeypatch.setattr(wh, "solve_exact", spy)
    cf = normalized_chain_map(identity_smap(free_simplex(4, 1)), ZZ)
    assert verify_certificate(certificate_search(cf), cf)
    # one unknown per C4-orbit of index pairs (144 entries / 4), and no
    # equivariance rows (624 rows when every entry was an unknown)
    rows, unknowns = shapes[-1]
    assert unknowns == 36 and rows <= 48
    for f in (identity_smap(free_simplex(8, 2)), prism(free_simplex(4, 1)).end0):
        cf = normalized_chain_map(f, ZZ)
        cert = certificate_search(cf)
        assert cert is not None and verify_certificate(cert, cf)


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


def as_matrix_action(c):
    """The same G-complex with its action stored as matrices."""
    return ChainComplex(c.ring, c.ranks, {n: c.d(n) for n in range(1, c.top + 1)},
                        group=c.group,
                        rep={a: {n: c.rep_mat(a, n) for n in range(c.top + 1)}
                             for a in c.group.elements()})


def action_forms(cf):
    """cf with both sides permuted, both as matrices, and mixed."""
    mats = {n: cf.mat(n) for n in range(cf.top + 1)}
    src, tgt = as_matrix_action(cf.source), as_matrix_action(cf.target)
    return [cf, ChainMap(src, tgt, mats), ChainMap(cf.source, tgt, mats)]


@pytest.mark.parametrize("ring", [ZZ, QQ, PrimeField(2)], ids=str)
def test_permutation_and_matrix_actions_give_one_verdict(ring):
    c2 = cyclic_group(2)
    x = free_simplex(2, 1)
    maps = [normalized_chain_map(identity_smap(x), ring),
            normalized_chain_map(prism(x).end0, ring)]
    # 2 id on R[C2] in degree 0: inverse over Q only (2 = 0 in F_2)
    reg = ChainComplex.permuted(ring, (2,), {}, c2, [regular_gset(c2)])
    maps.append(ChainMap(reg, reg, {0: Mat(ring, 2, 2, [[2, 0], [0, 2]])}))
    expect = [True, True, ring == QQ]
    for cf, found in zip(maps, expect):
        for form in action_forms(cf):
            assert form.equivariant
            cert = certificate_search(form)
            assert (cert is not None) == found
            if cert is not None:
                assert verify_certificate(cert, form)


# ---------------------------------------------------------------------------
# the full report


def test_whitehead_identity_passes_everything(c2):
    x = swap_boundary1(c2)
    from orbitkit.simplicial import identity_smap
    rep = whitehead_verify(identity_smap(x), [trivial_subgroup(c2)], ZZ)
    assert rep.hyp_a_ok and rep.hyp_b_ok
    assert rep.certificate is not None


def test_whitehead_vertex_interval_trivial_action(c2):
    pt = with_trivial_action(point_sset(), c2)
    d1 = with_trivial_action(standard_simplex(1), c2)
    f = SMap(pt, d1, {0: SimplexRef(0)})
    rep = whitehead_verify(f, all_subgroups(c2), ZZ)
    assert rep.isotropy.ok_conjugate and rep.isotropy.ok_strict
    assert rep.hyp_a_ok and rep.hyp_b_ok
    assert rep.certificate is not None
    assert verify_certificate(rep.certificate, normalized_chain_map(f, ZZ))


def test_whitehead_mixed_stabilizer_retract(c2):
    pt = with_trivial_action(point_sset(), c2)
    y = vee(c2)
    f = SMap(pt, y, {0: SimplexRef(2)})
    rep = whitehead_verify(f, all_subgroups(c2), ZZ)
    assert rep.hyp_b_ok
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
    assert not rep.hyp_a_ok and not rep.hyp_b_ok
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

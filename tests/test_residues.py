"""F_p entries are plain int residues in 0..p-1, wherever they come from.

Matrices over F_p hold ``int`` residues, and every routine that adds,
subtracts or multiplies them passes its rows through ``ring.nonzero``.  The
property below draws small integer matrices, runs every operator and field
routine on them, and checks three things: each result entry is an ``int``
in ``range(p)``; rank agrees with an independent row reduction mod p and
with the test-side kernel's dimension; and solutions satisfy their equations.  A second test does
the same for the chain-level builders, and a third checks that operands
over different rings are refused, since residues alone do not name their
prime.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense, dense_mat, from_columns, reference_kernel, vee
from test_chains import gauss_rank_mod_p
from test_exactla import dense_rref
from orbitkit.chains import ChainComplex, identity_chain_map, invariants, \
    normalized_chains
from orbitkit.exactla import Mat, rank, solve_field
from orbitkit.groups import all_subgroups, full_subgroup
from orbitkit.gsets import make_gset
from orbitkit.rings import PrimeField, QQ, ZZ
from orbitkit.whitehead import certificate_search

PRIMES = (2, 3, 5, 7)


def assert_residues(m: Mat, p: int):
    for row in m.rows:
        for v in row:
            assert type(v) is int and 0 <= v < p, (v, p)


def int_rows(nrows, ncols):
    entry = st.integers(-20, 20)
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data(),
       m=st.integers(1, 5), n=st.integers(1, 5), k=st.integers(1, 3))
def test_every_fp_entry_is_a_residue(p, data, m, n, k):
    ring = PrimeField(p)
    raw_a = data.draw(int_rows(m, n))
    a = dense_mat(ring, m, n, raw_a)
    b = dense_mat(ring, m, n, data.draw(int_rows(m, n)))
    x0 = dense_mat(ring, n, k, data.draw(int_rows(n, k)))
    c = data.draw(st.integers(-20, 20))
    scaled = dense_mat(ring, m, m, [[c if i == j else 0 for j in range(m)] for i in range(m)]) @ a
    r, pivots = dense_rref(a)
    for out in (a, a @ x0, a + b, a - b, b - a, -a, scaled, r):
        assert_residues(out, p)

    assert len(pivots) == rank(a) == gauss_rank_mod_p(raw_a, p)

    kernel = reference_kernel(a)
    assert len(kernel) == n - len(pivots)
    if kernel:
        assert (a @ from_columns(ring, n, kernel)).is_zero()

    rhs = a @ x0
    x = solve_field(a, rhs)
    assert x is not None
    assert_residues(x, p)
    assert a @ x == rhs


@pytest.mark.parametrize("p", PRIMES)
def test_chain_builders_give_residues(c2, p):
    ring = PrimeField(p)
    c = normalized_chains(vee(c2), ring)
    # a swapped pair under d = (1, -1): d on the invariants is 1 - 1 = 0
    swap = [make_gset(c2, [[0, 1], [1, 0]])] * 2
    signed = ChainComplex(ring, (2, 2), {1: dense_mat(ring, 2, 2, [[1, -1], [-1, 1]])}, swap)
    for cx in (c, signed):
        for n in range(cx.top + 1):
            assert_residues(cx.d(n), p)
        for h in all_subgroups(c2):
            inv, incl = invariants(cx, h)
            for n in range(cx.top + 1):
                assert_residues(inv.d(n), p)
                assert_residues(incl.mat(n), p)
        cert = certificate_search(identity_chain_map(cx))
        assert cert is not None
        for n in range(cx.top + 1):
            for m in (cert.backward.mat(n), cert.forward_homotopy.mat(n),
                      cert.backward_homotopy.mat(n)):
                assert_residues(m, p)
    inv, incl = invariants(signed, full_subgroup(c2))
    assert [row[0] for row in incl.mat(0).rows] == [1, 1]  # the orbit sum
    assert dense(inv.d(1)) == [[0]]


def test_operands_over_different_rings_are_refused():
    f2, f3 = PrimeField(2), PrimeField(3)
    with pytest.raises(ValueError, match="mixed rings"):
        Mat.identity(f2, 2) @ Mat.identity(f3, 2)
    with pytest.raises(ValueError, match="mixed rings"):
        Mat.identity(ZZ, 2) + Mat.identity(QQ, 2)
    with pytest.raises(ValueError, match="mixed rings"):
        Mat.identity(f3, 2) - Mat.identity(PrimeField(5), 2)
    assert Mat.identity(f2, 2) @ Mat.identity(PrimeField(2), 2) == Mat.identity(f2, 2)

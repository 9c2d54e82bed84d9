"""Exact linear algebra against independent oracles.

The Smith diagonal is checked with determinantal divisors (the gcd of all
k x k minors equals d_1 * ... * d_k) and, where sympy is installed, against
sympy's Smith normal form; the integer solver against an SNF-based
solvability criterion, and kernels against rank counting and saturation.
Q runs on the integer core, so rational answers (solvability, kernels,
ranks) are checked against sympy rather than against orbitkit's own Q.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from test_chains import gauss_rank_mod_p
from orbitkit.exactla import Mat, column_echelon_z, is_invertible, \
    kernel_basis_field, kernel_exact, kernel_z, rank, rref, smith_diagonal, \
    solve_exact, solve_field, solve_z
from orbitkit.rings import PrimeField, QQ, ZZ


def sympy_matrix(rows, ncols):
    """A sympy matrix of exact rationals (ints and Fractions)."""
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(v.numerator, v.denominator) for r in rows for v in r])


def sympy_solution(a: Mat, b: Mat):
    """One rational solution of a X = b from sympy as a list of rows, or None."""
    try:
        x, params = sympy_matrix(a.rows, a.ncols).gauss_jordan_solve(
            sympy_matrix(b.rows, b.ncols))
    except ValueError:  # sympy: "Linear system has no solution"
        return None
    x = x.subs({t: 0 for t in params})
    return [[Fraction(int(v.p), int(v.q)) for v in x.row(i)] for i in range(x.rows)]


def zmat(rows):
    if not rows:
        return Mat(ZZ, 0, 0, [])
    return Mat(ZZ, len(rows), len(rows[0]), rows)


def minor_gcds(rows, k):
    """gcd of all k x k minors, computed by brute-force expansion."""
    m, n = len(rows), len(rows[0]) if rows else 0
    best = 0
    for rsel in combinations(range(m), k):
        for csel in combinations(range(n), k):
            best = gcd(best, _det([[rows[i][j] for j in csel] for i in rsel]))
    return best


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _det(sub)
    return total


@pytest.mark.parametrize("rows,want", [
    ([[1]], [1]),
    ([[0]], []),
    ([[2, 4], [6, 8]], [2, 4]),
    ([[1, 0], [0, 1]], [1, 1]),
    ([[2, 0], [0, 3]], [1, 6]),
    ([[4, 0], [0, 6]], [2, 12]),
])
def test_smith_known_values(rows, want):
    assert smith_diagonal(zmat(rows)) == want


def test_smith_matches_determinantal_divisors():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        diag = smith_diagonal(zmat(rows))
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        prod = 1
        for k, d in enumerate(diag, start=1):
            prod *= d
            assert minor_gcds(rows, k) == prod
        if len(diag) < min(m, n):
            assert minor_gcds(rows, len(diag) + 1) == 0


@st.composite
def torsion_matrices(draw):
    """B @ C with shapes up to 8 x 8, some rows and columns then zeroed.

    Sparse factors make diagonals such as (2, 3), which the Smith form must
    still put in divisor order, common.
    """
    m, k, n = (draw(st.integers(1, 8)) for _ in range(3))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 5])
    b = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    c = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    zero_rows = draw(st.sets(st.integers(0, m - 1)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    return [[0 if i in zero_rows or j in zero_cols else
             sum(b[i][t] * c[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)]


@settings(max_examples=150, deadline=None)
@given(rows=torsion_matrices())
def test_smith_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    want = [abs(int(v)) for v in snf.diagonal() if v != 0]
    assert smith_diagonal(zmat(rows)) == want


def test_smith_diagonal_over_prime_field_counts_rank():
    rng = random.Random(11)
    for p in (2, 3):
        fp = PrimeField(p)
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            a = Mat(fp, m, n, rows)
            diag = smith_diagonal(a)
            assert all(v == fp.one for v in diag)
            assert len(diag) == gauss_rank_mod_p(rows, p)


def test_column_echelon_transform_invariant():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = zmat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        h, u, pivots = column_echelon_z(a)
        assert a @ u == h
        assert abs(_det(u.rows)) == 1
        assert is_invertible(u)
        rows_seen = [r for r, _ in pivots]
        assert rows_seen == sorted(rows_seen)
        for idx, (r, c) in enumerate(pivots):
            assert c == idx
            for j in range(c + 1, n):
                assert h.rows[r][j] == 0


def test_solve_z_finds_planted_solutions_and_verifies():
    rng = random.Random(17)
    for _ in range(80):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = zmat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        x = Mat(ZZ, n, 1, [[rng.randint(-3, 3)] for _ in range(n)])
        b = a @ x
        sol = solve_z(a, b)
        assert sol is not None
        assert a @ sol == b


def test_solve_z_agrees_with_rational_solvability_on_unimodular_rows():
    # when A has a pivot in every row over Q with unit invariant factors,
    # integer solvability coincides with rational solvability (sympy's)
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = zmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = Mat(ZZ, n, 1, [[rng.randint(-6, 6)] for _ in range(n)])
        sol = solve_z(a, b)
        qsol = sympy_solution(a, b)
        if sol is not None:
            assert a @ sol == b
            assert qsol is not None
        if qsol is None:
            assert sol is None
        diag = smith_diagonal(a)
        if len(diag) == n and all(d == 1 for d in diag):
            assert (sol is None) == (qsol is None)


def test_solve_z_detects_divisibility_obstructions():
    a = zmat([[2]])
    assert solve_z(a, Mat(ZZ, 1, 1, [[3]])) is None
    assert solve_z(a, Mat(ZZ, 1, 1, [[4]])) is not None
    # 2x + 4y = 2 solvable, = 1 not
    a2 = zmat([[2, 4]])
    assert solve_z(a2, Mat(ZZ, 1, 1, [[2]])) is not None
    assert solve_z(a2, Mat(ZZ, 1, 1, [[1]])) is None


def test_kernel_z_spans_and_saturates():
    rng = random.Random(23)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = zmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        basis = kernel_z(a)
        for col in basis:
            prod = a @ Mat(ZZ, n, 1, [[v] for v in col])
            assert prod.is_zero()
        assert len(basis) == n - rank(a)
        if basis:
            k = Mat(ZZ, n, len(basis),
                    [[basis[j][i] for j in range(len(basis))] for i in range(n)])
            # saturation: any integer kernel vector is an integer combination;
            # sympy's rational kernel basis, cleared of denominators, must be
            for qcol in sympy_matrix(a.rows, n).nullspace():
                denom = lcm(*[int(v.q) for v in qcol])
                zvec = Mat(ZZ, n, 1, [[int(v * denom)] for v in qcol])
                assert solve_z(k, zvec) is not None


def test_rref_and_field_kernel():
    fp = PrimeField(5)
    a = Mat(fp, 2, 3, [[1, 2, 3], [2, 4, 6]])
    r, pivots = rref(a)
    assert pivots == [0]
    for col in kernel_basis_field(a):
        out = a @ Mat(fp, 3, 1, [[v] for v in col])
        assert out.is_zero()
    assert len(kernel_basis_field(a)) == 2


def test_solve_field_consistency():
    # solve_field over F_5, and solve_exact over Q against sympy
    fp = PrimeField(5)
    a, b = Mat(fp, 2, 2, [[1, 2], [3, 4]]), Mat(fp, 2, 1, [[1], [1]])
    assert a @ solve_field(a, b) == b
    assert solve_field(Mat(fp, 2, 2, [[1, 2], [2, 4]]), b) is None
    aq, bq = Mat(QQ, 2, 2, [[1, 2], [3, 4]]), Mat(QQ, 2, 1, [[1], [1]])
    x = solve_exact(aq, bq)
    assert aq @ x == bq
    assert x.rows == sympy_solution(aq, bq) == [[-1], [1]]
    singular = Mat(QQ, 2, 2, [[1, 2], [2, 4]])
    assert solve_exact(singular, bq) is None
    assert sympy_solution(singular, bq) is None


@st.composite
def rational_systems(draw):
    """(A, b) over Q, up to 8 x 8, with denominators up to 7.

    A density draw makes some matrices sparse and some dense; dense ones,
    and products B C with a short inner dimension (rank-deficient A), make
    the cleared integers grow.  b is planted as A x0 half of the time, so
    solvable and unsolvable systems are both common.
    """
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    density = draw(st.sampled_from([2, 5, 10]))
    value = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    entry = st.tuples(st.integers(0, 9), value).map(
        lambda t: t[1] if t[0] < density else Fraction(0))

    def rows(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if draw(st.booleans()):
        k = draw(st.integers(1, 8))
        a = Mat(QQ, m, k, rows(m, k)) @ Mat(QQ, k, n, rows(k, n))
    else:
        a = Mat(QQ, m, n, rows(m, n))
    b = a @ Mat(QQ, n, 1, rows(n, 1)) if draw(st.booleans()) else Mat(QQ, m, 1, rows(m, 1))
    return a, b


def canonical_rationals(values):
    """Integral values are plain ``int``; only the rest are ``Fraction``s."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values)


@settings(max_examples=150, deadline=None)
@given(system=rational_systems())
def test_q_on_the_integer_core_matches_sympy(system):
    sympy = pytest.importorskip("sympy")
    a, b = system
    n = a.ncols
    r = sympy_matrix(a.rows, n).rank()
    diag = smith_diagonal(a)
    assert len(diag) == rank(a) == r
    x = solve_exact(a, b)
    assert (x is None) == (sympy_solution(a, b) is None)
    if x is not None:
        assert a @ x == b
    kernel = kernel_exact(a)
    assert len(kernel) == n - r
    if kernel:
        k = Mat(QQ, len(kernel), n, kernel).transpose()
        assert (a @ k).is_zero()
        # the same span: sympy's basis adds no rank to this one
        both = sympy_matrix(k.rows, k.ncols).row_join(
            sympy.Matrix.hstack(*sympy_matrix(a.rows, n).nullspace()))
        assert both.rank() == n - r
    outputs = [diag, *kernel, *a.rows, *b.rows]
    if x is not None:
        outputs += [*x.rows, *(a @ x).rows]
    assert all(canonical_rationals(v) for v in outputs)


def test_is_invertible():
    assert is_invertible(zmat([[1, 1], [0, 1]]))
    assert not is_invertible(zmat([[2, 0], [0, 1]]))
    fp = PrimeField(2)
    assert is_invertible(Mat(fp, 1, 1, [[1]]))
    assert not is_invertible(Mat(fp, 1, 1, [[0]]))

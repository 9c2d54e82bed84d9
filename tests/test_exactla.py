"""Exact linear algebra against independent oracles.

The Smith diagonal is checked with determinantal divisors (the gcd of all
k x k minors equals d_1 * ... * d_k) and, where sympy is installed, against
sympy's Smith normal form; the integer solver against an SNF-based
solvability criterion.  Q runs on the integer core, so rational answers
(solvability, ranks) are checked against sympy rather than against
orbitkit's own Q.  The test-side kernel of ``conftest``, which the action
cross-checks use, is checked here against rank counting and saturation.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbitkit

from test_chains import gauss_rank_mod_p
from conftest import DenseReference, dense, dense_mat, from_columns, reference_echelon, \
    reference_kernel, reference_rref
from orbitkit.exactla import Mat, column_echelon_z, is_invertible, rank, rref, \
    smith_diagonal, solve_exact, solve_field, solve_z
from orbitkit.rings import PrimeField, QQ, ZZ
from orbitkit.whitehead import _LinearSystem


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
        return dense_mat(ZZ, 0, 0, [])
    return dense_mat(ZZ, len(rows), len(rows[0]), rows)


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
            a = dense_mat(fp, m, n, rows)
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
        x = dense_mat(ZZ, n, 1, [[rng.randint(-3, 3)] for _ in range(n)])
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
        b = dense_mat(ZZ, n, 1, [[rng.randint(-6, 6)] for _ in range(n)])
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
    assert solve_z(a, dense_mat(ZZ, 1, 1, [[3]])) is None
    assert solve_z(a, dense_mat(ZZ, 1, 1, [[4]])) is not None
    # 2x + 4y = 2 solvable, = 1 not
    a2 = zmat([[2, 4]])
    assert solve_z(a2, dense_mat(ZZ, 1, 1, [[2]])) is not None
    assert solve_z(a2, dense_mat(ZZ, 1, 1, [[1]])) is None


def test_reference_kernel_spans_and_saturates():
    # the test-side kernel that the action cross-checks lean on, against sympy
    rng = random.Random(23)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = zmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        basis = reference_kernel(a)
        for col in basis:
            prod = a @ dense_mat(ZZ, n, 1, [[v] for v in col])
            assert prod.is_zero()
        assert len(basis) == n - rank(a)
        if basis:
            k = dense_mat(ZZ, n, len(basis),
                    [[basis[j][i] for j in range(len(basis))] for i in range(n)])
            # saturation: any integer kernel vector is an integer combination;
            # sympy's rational kernel basis, cleared of denominators, must be
            for qcol in sympy_matrix(a.rows, n).nullspace():
                denom = lcm(*[int(v.q) for v in qcol])
                zvec = dense_mat(ZZ, n, 1, [[int(v * denom)] for v in qcol])
                assert solve_z(k, zvec) is not None


def test_rref_and_field_kernel():
    fp = PrimeField(5)
    a = dense_mat(fp, 2, 3, [[1, 2, 3], [2, 4, 6]])
    r, pivots = rref(a)
    assert pivots == [0]
    for col in reference_kernel(a):
        out = a @ dense_mat(fp, 3, 1, [[v] for v in col])
        assert out.is_zero()
    assert len(reference_kernel(a)) == 3 - len(pivots) == 2


def test_solve_field_consistency():
    # solve_field over F_5, and solve_exact over Q against sympy
    fp = PrimeField(5)
    a, b = dense_mat(fp, 2, 2, [[1, 2], [3, 4]]), dense_mat(fp, 2, 1, [[1], [1]])
    assert a @ solve_field(a, b) == b
    assert solve_field(dense_mat(fp, 2, 2, [[1, 2], [2, 4]]), b) is None
    aq, bq = dense_mat(QQ, 2, 2, [[1, 2], [3, 4]]), dense_mat(QQ, 2, 1, [[1], [1]])
    x = solve_exact(aq, bq)
    assert aq @ x == bq
    assert dense(x) == sympy_solution(aq, bq) == [[-1], [1]]
    singular = dense_mat(QQ, 2, 2, [[1, 2], [2, 4]])
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
        a = dense_mat(QQ, m, k, rows(m, k)) @ dense_mat(QQ, k, n, rows(k, n))
    else:
        a = dense_mat(QQ, m, n, rows(m, n))
    b = a @ dense_mat(QQ, n, 1, rows(n, 1)) if draw(st.booleans()) \
        else dense_mat(QQ, m, 1, rows(m, 1))
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
    kernel = reference_kernel(a)
    assert len(kernel) == n - r
    if kernel:
        k = from_columns(QQ, n, kernel)
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
    assert is_invertible(dense_mat(fp, 1, 1, [[1]]))
    assert not is_invertible(dense_mat(fp, 1, 1, [[0]]))


# ---------------------------------------------------------------------------
# the sparse integer core against the dense loop it replaced


def reference_solve(a: Mat, b: Mat):
    """Dense forward substitution on the reference echelon form, as solve_z did."""
    n, ring = a.ncols, a.ring
    rows = []
    for ra, rb in zip(a.rows, b.rows):
        row = ra + rb
        d = lcm(*[Fraction(v).denominator for v in row])
        rows.append([int(v * d) for v in row])
    h, u, pivots = reference_echelon(dense_mat(ZZ, a.nrows, n, [r[:n] for r in rows]))
    at_row = dict(pivots)
    x = []
    for j in range(b.ncols):
        y = [0] * n
        for row, hrow in enumerate(h):
            acc = rows[row][n + j] - sum(v * w for v, w in zip(hrow, y))
            c = at_row.get(row)
            if c is None:
                if acc:
                    return None
            elif acc % hrow[c] == 0:
                y[c] = acc // hrow[c]
            elif ring.is_field:
                y[c] = Fraction(acc, hrow[c])
            else:
                return None
        x.append([ring.normalize(sum(ur * yc for ur, yc in zip(urow, y))) for urow in u])
    return [list(r) for r in zip(*x)] if x else [[] for _ in range(n)]


@st.composite
def integer_matrices(draw, max_size=10):
    """Integer matrices up to 10 x 10, 0 x n and n x 0 included, sparse to dense."""
    m, n = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    density = draw(st.sampled_from([1, 3, 10]))
    entry = st.tuples(st.integers(0, 9), st.integers(-12, 12)).map(
        lambda t: t[1] if t[0] < density else 0)
    return dense_mat(ZZ, m, n, draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                       min_size=m, max_size=m)))


def system_solution(a: Mat, b: Mat):
    """a X = b, b one column, solved as whitehead's sparse linear system: X's column,
    or None."""
    system = _LinearSystem(a.ring, a.ncols)
    system.equations = a.sparse_rows()
    system.rhs = [r[0] for r in b.rows]
    return system.solve()


def first_column(x):
    """The one column of x as a list, or None for no solution."""
    return x and [r[0] for r in x.rows]


@settings(max_examples=300, deadline=None)
@given(a=integer_matrices(), data=st.data())
def test_sparse_core_matches_the_dense_reference(a, data):
    h, u, pivots = column_echelon_z(a)
    ref_h, ref_u, ref_pivots = reference_echelon(a)
    assert (dense(h), dense(u), pivots) == (ref_h, ref_u, ref_pivots)
    x0 = dense_mat(ZZ, a.ncols, 1, data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=1, max_size=1),
        min_size=a.ncols, max_size=a.ncols)))
    planted = a @ x0
    other = dense_mat(ZZ, a.nrows, 1, data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=1),
        min_size=a.nrows, max_size=a.nrows)))
    for ring in (ZZ, QQ):
        for b in (planted, other):
            a_r = dense_mat(ring, a.nrows, a.ncols, a.rows)
            b_r = dense_mat(ring, b.nrows, 1, b.rows)
            x = solve_exact(a_r, b_r)
            assert first_column(x) == system_solution(a_r, b_r)
            assert (x and dense(x)) == reference_solve(a_r, b_r)


@settings(max_examples=150, deadline=None)
@given(system=rational_systems())
def test_rational_solve_from_sparse_rows_matches_the_dense_reference(system):
    a, b = system
    x = solve_exact(a, b)
    assert first_column(x) == system_solution(a, b)
    assert (x and dense(x)) == reference_solve(a, b)


def dense_rref(m: Mat):
    """rref of ``m`` as (R, pivots): its sparse pivot rows written out as the
    dense m.nrows x m.ncols R, zero rows last."""
    rows, pivots = rref(m)
    r = [[row.get(j, 0) for j in range(m.ncols)] for row in rows]
    return dense_mat(m.ring, m.nrows, m.ncols, r + [[0] * m.ncols] * (m.nrows - len(r))), pivots


@settings(max_examples=150, deadline=None)
@given(a=integer_matrices(max_size=8))
def test_rref_is_reduced_and_keeps_the_row_space(a):
    # the reduced row echelon form is unique, so these pin rref's output
    for p in (2, 3):
        fp = PrimeField(p)
        m = dense_mat(fp, a.nrows, a.ncols, a.rows)
        r, pivots = dense_rref(m)
        assert pivots == sorted(set(pivots)) and len(pivots) == len(smith_diagonal(m))
        for i, c in enumerate(pivots):
            assert r.rows[i][:c] == (0,) * c
            assert [row[c] for row in r.rows] == [int(k == i) for k in range(m.nrows)]
        assert all(not any(row) for row in r.rows[len(pivots):])
        stacked = dense_mat(fp, 2 * m.nrows, m.ncols, m.rows + r.rows)
        assert len(smith_diagonal(stacked)) == len(pivots)


def reference_solve_field(a: Mat, b: Mat):
    """Rows of the solution with free unknowns 0, from the dense RREF of [a | b]; or None."""
    r, pivots = reference_rref(dense_mat(a.ring, a.nrows, a.ncols + b.ncols,
                                   [ra + rb for ra, rb in zip(a.rows, b.rows)]))
    if pivots and pivots[-1] >= a.ncols:
        return None
    x = [[0] * b.ncols for _ in range(a.ncols)]
    for i, c in enumerate(pivots):
        x[c] = r[i][a.ncols:]
    return x


@settings(max_examples=200, deadline=None)
@given(a=integer_matrices(), data=st.data())
def test_sparse_fp_elimination_matches_the_dense_reference(a, data):
    def column(n, bound):
        return data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=1,
                                           max_size=1), min_size=n, max_size=n))

    x0, other = column(a.ncols, 4), column(a.nrows, 9)
    for p in (2, 3, 5):
        fp = PrimeField(p)
        m = dense_mat(fp, a.nrows, a.ncols, a.rows)
        r, pivots = dense_rref(m)
        assert (dense(r), pivots) == reference_rref(m)
        planted = m @ dense_mat(fp, m.ncols, 1, x0)
        random_b = dense_mat(fp, m.nrows, 1, other)
        for b in (planted, random_b):
            x = solve_exact(m, b)
            assert (x and dense(x)) == reference_solve_field(m, b)
            assert system_solution(m, b) == first_column(x)
        both = dense_mat(fp, m.nrows, 2, [u + v for u, v in zip(planted.rows, random_b.rows)])
        x = solve_exact(m, both)
        assert (x and dense(x)) == reference_solve_field(m, both)


def test_solve_refuses_a_right_hand_side_over_another_ring():
    # whitehead's linear systems solve a Mat over their own ring, so this is their path too
    a = dense_mat(PrimeField(5), 2, 2, [[1, 2], [3, 4]])
    for b in (dense_mat(PrimeField(3), 2, 1, [[1], [1]]),
              dense_mat(QQ, 2, 1, [[Fraction(1, 2)], [1]])):
        for solve in (solve_field, solve_exact):
            with pytest.raises(ValueError, match="over one ring"):
                solve(a, b)


# ---------------------------------------------------------------------------
# the sparse Mat against the dense reference it replaced

MAT_RINGS = (ZZ, QQ, PrimeField(2), PrimeField(3))


def dense_rows(data, ring, nrows: int, ncols: int) -> list:
    """Random dense rows, about half zeros; fractions over Q."""
    values = st.fractions(-3, 3, max_denominator=4) if ring == QQ else st.integers(-5, 5)
    return data.draw(st.lists(st.lists(st.one_of(st.just(0), values), min_size=ncols,
                                       max_size=ncols), min_size=nrows, max_size=nrows))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), ring=st.sampled_from(MAT_RINGS), m=st.integers(0, 5),
       n=st.integers(0, 5), k=st.integers(0, 5))
def test_mat_matches_the_dense_reference(data, ring, m, n, k):
    """Every operator of the sparse Mat, 0 x n and n x 0 included, against
    ``DenseReference`` on the same entries."""
    ra, rb, rc = dense_rows(data, ring, m, n), dense_rows(data, ring, m, n), \
        dense_rows(data, ring, n, k)
    a, b, c = dense_mat(ring, m, n, ra), dense_mat(ring, m, n, rb), dense_mat(ring, n, k, rc)
    da, db, dc = DenseReference(ring, m, n, ra), DenseReference(ring, m, n, rb), \
        DenseReference(ring, n, k, rc)
    for got, want in ((a, da), (a @ c, da @ dc), (a + b, da + db), (a - b, da - db),
                      (-a, -da), (a - a, da - da)):
        assert (got.ring, got.nrows, got.ncols) == (want.ring, want.nrows, want.ncols)
        assert dense(got) == want.rows  # and of the same types: integral Q entries are int
        assert [list(map(type, r)) for r in got.rows] == [list(map(type, r)) for r in want.rows]
        assert got.sparse_rows() == want.sparse_rows()
        assert got.is_zero() == want.is_zero()
        assert got.to_json() == want.to_json()
    assert (a == b) == (da == db)
    twin = dense_mat(ring, m, n, ra)
    assert a == twin and hash(a) == hash(twin)


def test_mat_rows_are_a_read_only_view():
    m = Mat(ZZ, 2, 3, [{2: 7}, {}])
    assert m.rows == ((0, 0, 7), (0, 0, 0))
    with pytest.raises(TypeError):
        m.rows[0][0] = 1
    with pytest.raises(AttributeError):
        m.rows = [[1, 2, 3], [4, 5, 6]]
    assert m.sparse_rows() == [{2: 7}, {}]


REFUSED_SHAPES = """
from orbitkit.exactla import Mat
from orbitkit.rings import ZZ
refused = []
for rows in ([{2: 1}, {}], [{}, {-1: 1}], [{0: 1}], [{}, {}, {}]):
    for normalize in (True, False):
        try:
            Mat(ZZ, 2, 2, rows, normalize=normalize)
        except ValueError as e:
            refused.append("shape mismatch" in str(e))
"""


def test_mat_refuses_a_column_outside_its_shape_and_a_wrong_row_count():
    namespace = {}
    exec(REFUSED_SHAPES, namespace)
    assert namespace["refused"] == [True] * 8
    script = REFUSED_SHAPES + "import sys\nsys.exit(0 if refused == [True] * 8 and " \
                              "sys.flags.optimize else 1)\n"
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import orbitkit
from orbitkit.cli import main
from orbitkit.exactla import Mat
from orbitkit.groups import cyclic_group, dihedral_group, direct_product, \
    group_from_generators, klein_four_group, symmetric_group
from orbitkit.rings import PrimeField, ZZ
from orbitkit.simplicial import GSSet, boundary_simplex, standard_simplex


@pytest.fixture(scope="session")
def c2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def c4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def v4():
    return direct_product(cyclic_group(2), cyclic_group(2))


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def d4():
    return dihedral_group(4)


def exit_2_with_and_without_O(capsys, argv, words):
    """The CLI exits 2 naming ``words``, with no traceback: in-process, and in a
    ``python -O`` process, where an assert would vanish."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and words in err and "Traceback" not in err, (code, err)
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-m", "orbitkit.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2 and words in proc.stderr \
        and "Traceback" not in proc.stderr, (proc.returncode, proc.stderr)


def stock_groups():
    """Every stock group the suite builds, up to order 64."""
    small = [cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3),
             dihedral_group(4), klein_four_group()]
    c2_cubed = direct_product(klein_four_group(), cyclic_group(2))
    yield from (cyclic_group(n) for n in range(1, 65))
    yield from (symmetric_group(n) for n in range(1, 5))
    yield from (dihedral_group(n) for n in range(2, 33))
    yield from (direct_product(a, b) for a in small for b in small)
    yield direct_product(c2_cubed, c2_cubed)
    yield direct_product(direct_product(cyclic_group(4), cyclic_group(4)),
                         cyclic_group(4))
    yield group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], "A4")


def with_trivial_action(s: GSSet, group) -> GSSet:
    """Re-equip a plain simplicial set with the trivial action of a group."""
    return GSSet(group, s.dim_of, {k: s.faces[k] for k in s.faces},
                 {g: {x: x for x in s.dim_of} for g in group.elements()})


def swap_boundary1(group) -> GSSet:
    """Two points swapped by the generator of C2 (a free action)."""
    full = standard_simplex(1)
    b = boundary_simplex(1)
    ids = list(b.ids())
    assert ids == [0, 1]
    return GSSet(group, {0: 0, 1: 0}, {},
                 {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}})


def vee(group) -> GSSet:
    """Subdivided interval a -> m <- b with the C2 swap a<->b, ea<->eb.

    Mixed stabilizers: the middle vertex is fixed, the rest form free
    orbits; the fixed subcomplex is the single vertex m.
    """
    from orbitkit.simplicial import SimplexRef
    # ids: 0 = a, 1 = b, 2 = m, 3 = ea (a->m), 4 = eb (b->m)
    dim_of = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
    faces = {3: (SimplexRef(2), SimplexRef(0)),
             4: (SimplexRef(2), SimplexRef(1))}
    action = {0: {i: i for i in range(5)},
              1: {0: 1, 1: 0, 2: 2, 3: 4, 4: 3}}
    return GSSet(group, dim_of, faces, action)


# ---------------------------------------------------------------------------
# test-side linear algebra: dense references that share no code with exactla


def dense_mat(ring, nrows: int, ncols: int, rows) -> Mat:
    """The Mat with these dense rows (every entry written out, zeros included)."""
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError(f"shape mismatch: want {nrows}x{ncols}")
    return Mat(ring, nrows, ncols, [dict(enumerate(r)) for r in rows])


def dense(m: Mat) -> list:
    """m's entries as a list of row lists, zeros included."""
    return [list(r) for r in m.rows]


class DenseReference:
    """A dense matrix over a ring: the list-of-rows arithmetic that ``Mat`` replaced,
    kept as the oracle for ``Mat``'s operators."""

    def __init__(self, ring, nrows: int, ncols: int, rows):
        self.ring, self.nrows, self.ncols = ring, nrows, ncols
        self.rows = [[ring.normalize(v) for v in r] for r in rows]

    def _same_shape(self, other):
        if other.ring != self.ring or (other.nrows, other.ncols) != (self.nrows, self.ncols):
            raise ValueError("shape or ring mismatch")

    def __matmul__(self, other):
        if other.ring != self.ring or self.ncols != other.nrows:
            raise ValueError("shape or ring mismatch")
        return DenseReference(self.ring, self.nrows, other.ncols, [
            [sum((self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)), 0)
             for j in range(other.ncols)] for i in range(self.nrows)])

    def __add__(self, other):
        self._same_shape(other)
        return DenseReference(self.ring, self.nrows, self.ncols, [
            [a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return DenseReference(self.ring, self.nrows, self.ncols,
                              [[-a for a in r] for r in self.rows])

    def __eq__(self, other):
        return (self.ring, self.nrows, self.ncols, self.rows) == \
            (other.ring, other.nrows, other.ncols, other.rows)

    def is_zero(self) -> bool:
        return all(v == 0 for r in self.rows for v in r)

    def sparse_rows(self) -> list:
        return [{j: v for j, v in enumerate(r) if v != 0} for r in self.rows]

    def to_json(self) -> list:
        return [[v if isinstance(v, int) else f"{v.numerator}/{v.denominator}" for v in r]
                for r in self.rows]


def dense_echelon_reference(rows, nr):
    """The dense integer column echelon loop that ``exactla._echelon`` replaced.

    Column-reduces the rows in place; only rows ``< nr`` choose pivots
    (smallest absolute value, then lowest column, made positive).
    """
    nc = len(rows[0]) if rows else 0
    pivots = []
    col = 0
    for row in range(nr):
        if col >= nc:
            break
        h = rows[row]
        while True:
            js = [j for j in range(col, nc) if h[j]]
            if not js:
                break
            jmin = min(js, key=lambda j: (abs(h[j]), j))
            if jmin != col:
                for r in rows:
                    r[col], r[jmin] = r[jmin], r[col]
            p = h[col]
            qs = [(j, h[j] // p) for j in range(col + 1, nc) if h[j]]
            if not qs:
                break
            for r in rows:
                c = r[col]
                if c:
                    for j, q in qs:
                        r[j] -= q * c
        if h[col]:
            if h[col] < 0:
                for r in rows:
                    r[col] = -r[col]
            pivots.append((row, col))
            col += 1
    return pivots


def reference_echelon(m: Mat):
    """(H rows, U rows, pivots) of the dense loop, U recorded by a stacked identity."""
    nc = m.ncols
    rows = dense(m) + [[int(i == j) for j in range(nc)] for i in range(nc)]
    pivots = dense_echelon_reference(rows, m.nrows)
    return rows[:m.nrows], rows[m.nrows:], pivots


# The dense F_p elimination that the sparse ``rref`` replaced, kept here as
# the reference: a forward pass (leading 1s, cleared below) and a
# back-clearing pass on the rows written out as lists.


def reference_clear(a, r, c, targets, p):
    """Zero column c of the rows ``targets`` of ``a`` with multiples of row r."""
    row = a[r]
    nonzero = [j for j in range(c, len(row)) if row[j]]
    for i in targets:
        f = a[i][c]
        if f:
            ai = a[i]
            for j in nonzero:
                ai[j] = (ai[j] - f * row[j]) % p


def reference_forward(a, ncols, p):
    """Row echelon form of ``a`` in place; the pivot columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        row = a[r]
        inv = pow(row[c], -1, p)
        row[c:] = [v * inv % p for v in row[c:]]
        reference_clear(a, r, c, range(r + 1, len(a)), p)
        pivots.append(c)
    return pivots


def reference_rref(m: Mat):
    """Dense reduced row echelon form over F_p: (rows of R, pivot columns)."""
    a = dense(m)
    pivots = reference_forward(a, m.ncols, m.ring.p)
    for r in reversed(range(len(pivots))):
        reference_clear(a, r, pivots[r], range(r), m.ring.p)
    return a, pivots


def reference_kernel(m: Mat) -> list:
    """Columns spanning the kernel of m over its ring, from the dense references.

    Over F_p the RREF basis, the identity on the free columns.  Over Z and Q
    the columns of U past the pivots of the column echelon form H = A U,
    each row of A first multiplied by the lcm of its denominators (which keeps
    the kernel): over Z a basis of the kernel lattice, which is saturated.
    """
    if isinstance(m.ring, PrimeField):
        r, pivots = reference_rref(m)
        basis = []
        for f in (j for j in range(m.ncols) if j not in pivots):
            v = [0] * m.ncols
            v[f] = 1
            for i, c in enumerate(pivots):
                v[c] = -r[i][f]
            basis.append([m.ring.normalize(x) for x in v])
        return basis
    rows = [[int(v * d) for v in row]
            for row in m.rows for d in [lcm(*[Fraction(v).denominator for v in row])]]
    _, u, pivots = reference_echelon(dense_mat(ZZ, m.nrows, m.ncols, rows))
    return [[row[j] for row in u] for j in range(len(pivots), m.ncols)]


def from_columns(ring, nrows: int, cols) -> Mat:
    """The nrows x len(cols) matrix whose columns are cols."""
    return dense_mat(ring, nrows, len(cols), [[col[i] for col in cols] for i in range(nrows)])


def perm_mat(ring, p) -> Mat:
    """The matrix sending basis vector j to basis vector p[j]."""
    rows = [{} for _ in p]
    for j, i in enumerate(p):
        rows[i][j] = ring.one
    return Mat(ring, len(p), len(p), rows)


def action_matrix(c, g, n: int) -> Mat:
    """The matrix by which g acts on degree n of the complex c (0 x 0 outside it)."""
    if not 0 <= n <= c.top:
        return Mat(c.ring, 0, 0)
    return perm_mat(c.ring, c.action[n].act[g])

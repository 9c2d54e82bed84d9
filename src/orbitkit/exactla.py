"""Exact linear algebra over Z, Q, and F_p.

Matrices are dense lists of rows tagged with their ring; all arithmetic is
exact (no floats anywhere).  The integer routines are the load-bearing
part, and all of them run on one elimination loop, ``_echelon``: integer
column reduction of a list of rows, pivoting row by row on the entry of
smallest absolute value (lowest column on ties), so the output is
reproducible.

* ``column_echelon_z`` -- integer column echelon form A*U = H with U
  unimodular, recorded by the identity rows stacked under A; it yields
  saturated kernel bases and drives the exact integer solver ``solve_z``
  (Hermite-style forward substitution with divisibility checks).
* ``smith_diagonal`` -- Smith normal form diagonal by alternating column
  echelon forms of the matrix and of its transposed pivot columns, then
  gcd/lcm steps into divisor order.

Field routines (Q and F_p), the field case of ``smith_diagonal`` included,
go through reduced row echelon form.

Entries are added, subtracted and multiplied with the ordinary operators;
every row of raw results then passes through ``ring.reduce``, so F_p
entries, plain ``int`` residues, stay in ``0..p-1``.  Pivots are inverted
by ``ring.inverse``.  The binary operators refuse operands over different
rings, since residues alone do not say which prime they belong to.
"""

from __future__ import annotations

from math import gcd

from .rings import ZZ


class Mat:
    """Dense matrix over a fixed ring; rows of normalized ring elements.

    Binary operators raise ``ValueError`` on operands over different rings.
    """

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, nrows: int, ncols: int, rows=None, normalize=True):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            z = ring.zero
            self.rows = [[z] * ncols for _ in range(nrows)]
        else:
            if len(rows) != nrows or any(len(r) != ncols for r in rows):
                raise ValueError(f"shape mismatch: want {nrows}x{ncols}")
            if normalize:
                self.rows = [[ring.normalize(v) for v in r] for r in rows]
            else:
                self.rows = [list(r) for r in rows]

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls(ring, nrows, ncols)

    @classmethod
    def identity(cls, ring, n):
        m = cls(ring, n, n)
        for i in range(n):
            m.rows[i][i] = ring.one
        return m

    def copy(self):
        return Mat(self.ring, self.nrows, self.ncols, self.rows, normalize=False)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.ring == other.ring and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __matmul__(self, other):
        self._same_ring(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by "
                             f"{other.nrows}x{other.ncols}")
        red = self.ring.reduce
        out = Mat(self.ring, self.nrows, other.ncols)
        for i in range(self.nrows):
            ri = self.rows[i]
            oi = out.rows[i]
            for k in range(self.ncols):
                a = ri[k]
                if not a:
                    continue
                rk = other.rows[k]
                for j in range(other.ncols):
                    b = rk[j]
                    if b:
                        oi[j] = oi[j] + a * b
            out.rows[i] = red(oi)
        return out

    def __add__(self, other):
        self._same_shape(other)
        red = self.ring.reduce
        return Mat(self.ring, self.nrows, self.ncols,
                   [red([a + b for a, b in zip(r, s)]) for r, s in zip(self.rows, other.rows)],
                   normalize=False)

    def __sub__(self, other):
        self._same_shape(other)
        red = self.ring.reduce
        return Mat(self.ring, self.nrows, self.ncols,
                   [red([a - b for a, b in zip(r, s)]) for r, s in zip(self.rows, other.rows)],
                   normalize=False)

    def __neg__(self):
        red = self.ring.reduce
        return Mat(self.ring, self.nrows, self.ncols,
                   [red([-a for a in r]) for r in self.rows], normalize=False)

    def scale(self, c):
        c = self.ring.normalize(c)
        red = self.ring.reduce
        return Mat(self.ring, self.nrows, self.ncols,
                   [red([c * a for a in r]) for r in self.rows], normalize=False)

    def _same_ring(self, other):
        if other.ring != self.ring:
            raise ValueError(f"mixed rings {self.ring} and {other.ring}")

    def _same_shape(self, other):
        self._same_ring(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def is_zero(self):
        return not any(any(r) for r in self.rows)

    def column(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def transpose(self):
        return Mat(self.ring, self.ncols, self.nrows,
                   [self.column(j) for j in range(self.ncols)], normalize=False)

    def hstack(self, other):
        self._same_ring(other)
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Mat(self.ring, self.nrows, self.ncols + other.ncols,
                   [r + s for r, s in zip(self.rows, other.rows)], normalize=False)

    def to_lists(self):
        return [list(r) for r in self.rows]

    def to_json(self):
        return [[self.ring.to_json(v) for v in r] for r in self.rows]

    def __repr__(self):
        return f"Mat({self.ring}, {self.nrows}x{self.ncols})"


def block_matrix(ring, blocks):
    """Assemble [[A, B], [C, D], ...] from a grid of Mat blocks."""
    nrows = sum(row[0].nrows for row in blocks)
    ncols = sum(b.ncols for b in blocks[0])
    out = Mat(ring, nrows, ncols)
    i0 = 0
    for brow in blocks:
        j0 = 0
        h = brow[0].nrows
        for b in brow:
            if b.nrows != h:
                raise ValueError("ragged block row")
            for i in range(b.nrows):
                out.rows[i0 + i][j0:j0 + b.ncols] = list(b.rows[i])
            j0 += b.ncols
        i0 += h
    return out


# ---------------------------------------------------------------------------
# Smith normal form


def smith_diagonal(m: Mat):
    """Diagonal of the Smith normal form of ``m``.

    Over Z the result is the canonical nonnegative invariant-factor chain
    (each entry divides the next); over a field it is 1 repeated rank
    times, read off ``rref``.  Over Z the matrix is column-echeloned by
    ``_echelon`` and its pivot columns transposed, until each pivot column
    holds only its pivot (the alternating Hermite passes of Kannan and
    Bachem); the pivots are then put in divisor order.
    """
    if m.ring.is_field:
        return [m.ring.one] * len(rref(m)[1])
    # Termination: each pass either shrinks the leading pivot p (to the gcd
    # of its column, when p does not divide it) or clears its row and
    # column, after which later passes leave it alone; the same then holds
    # for the leading pivot of the block after it, and pivots are positive.
    a = [list(r) for r in m.rows]
    while True:
        pivots = _echelon(a, len(a))
        k = len(pivots)
        if sum(1 for row in a for v in row[:k] if v) == k:
            break
        a = [[row[j] for row in a] for j in range(k)]
    d = [a[r][c] for r, c in pivots]
    for i in range(k):
        for j in range(i + 1, k):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return d


def rank(m: Mat) -> int:
    return len(smith_diagonal(m))


# ---------------------------------------------------------------------------
# field elimination


def rref(m: Mat):
    """Reduced row echelon form; returns (R, pivot column list)."""
    ring = m.ring
    if not ring.is_field:
        raise ValueError("rref needs a field")
    a = [list(r) for r in m.rows]
    red = ring.reduce
    pivots = []
    r = 0
    for c in range(m.ncols):
        pr = None
        for i in range(r, m.nrows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        row = a[r]
        # columns before c are zero in the pivot row; scale and update only
        # from c on
        inv = ring.inverse(row[c])
        if inv != 1:
            row[c:] = red([v * inv for v in row[c:]])
        nonzero = [j for j in range(c, m.ncols) if row[j]]
        for i in range(m.nrows):
            f = a[i][c]
            if i != r and f:
                ai = a[i]
                for j in nonzero:
                    ai[j] = ai[j] - f * row[j]
                a[i] = red(ai)
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return Mat(ring, m.nrows, m.ncols, a, normalize=False), pivots


def kernel_basis_field(m: Mat):
    """Columns spanning ker(m) over a field, in RREF-canonical form."""
    ring = m.ring
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [ring.zero] * m.ncols
        v[f] = ring.one
        for i, pc in enumerate(pivots):
            v[pc] = -r.rows[i][f]
        basis.append(ring.reduce(v))
    return basis


def solve_field(a: Mat, b: Mat):
    """One solution X of a @ X = b over a field, or None."""
    ring = a.ring
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve")
    aug = a.hstack(b)
    r, pivots = rref(aug)
    # inconsistent if a pivot lands in the b-block
    for pc in pivots:
        if pc >= a.ncols:
            return None
    x = Mat(ring, a.ncols, b.ncols)
    for i, pc in enumerate(pivots):
        for j in range(b.ncols):
            x.rows[pc][j] = r.rows[i][a.ncols + j]
    # rows of aug beyond the pivots must be zero, guaranteed by RREF
    return x


# ---------------------------------------------------------------------------
# integer column echelon (Hermite-style) and exact solving over Z


def _echelon(rows, nr):
    """Column-reduce the integer ``rows`` in place; return the pivots.

    Only rows ``< nr`` choose pivots; the rows below follow the column
    operations.  Row by row, the entry of smallest absolute value in the
    columns not yet used (lowest column on ties) is swapped into the next
    column and reduces the others, until it is the row's only nonzero
    there; it is made positive.  Pivots are (row, col) positions with
    strictly increasing rows and columns 0, 1, 2, ...
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


def column_echelon_z(m: Mat):
    """Integer column echelon form.

    Returns (H, U, pivots) with ``m @ U == H``, U unimodular, and pivots a
    list of (row, col) positions with strictly increasing rows and columns
    0,1,2,...  Columns past the last pivot are zero.  U is recorded by
    stacking the identity under ``m`` for ``_echelon``.
    """
    if m.ring != ZZ:
        raise ValueError("column_echelon_z needs ring Z")
    nr, nc = m.nrows, m.ncols
    rows = [list(r) for r in m.rows] + [[int(i == j) for j in range(nc)]
                                        for i in range(nc)]
    pivots = _echelon(rows, nr)
    return (Mat(ZZ, nr, nc, rows[:nr], normalize=False),
            Mat(ZZ, nc, nc, rows[nr:], normalize=False), pivots)


def kernel_z(m: Mat):
    """Basis (list of columns) of the integer kernel lattice of ``m``.

    The kernel of a Z-linear map is saturated, so this basis spans all
    rational kernel vectors with integer entries.
    """
    _, u, pivots = column_echelon_z(m)
    first_free = len(pivots)
    return [u.column(j) for j in range(first_free, m.ncols)]


def solve_z(a: Mat, b: Mat):
    """One integer solution X of a @ X = b, or None if none exists."""
    if a.ring != ZZ or b.ring != ZZ:
        raise ValueError("solve_z needs ring Z")
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve_z")
    h, u, pivots = column_echelon_z(a)
    piv_at_row = {r: c for r, c in pivots}
    x = Mat(ZZ, a.ncols, b.ncols)
    for j in range(b.ncols):
        y = [0] * a.ncols
        for row in range(a.nrows):
            # residual after known pivot variables (later pivots still 0)
            acc = b.rows[row][j]
            for _, c2 in pivots:
                if y[c2] and h.rows[row][c2]:
                    acc -= h.rows[row][c2] * y[c2]
            if row in piv_at_row:
                c = piv_at_row[row]
                p = h.rows[row][c]
                if acc % p != 0:
                    return None
                y[c] = acc // p
            else:
                if acc != 0:
                    return None
        xs = [0] * a.ncols
        for c in range(a.ncols):
            if y[c]:
                for i in range(a.ncols):
                    xs[i] += u.rows[i][c] * y[c]
        for i in range(a.ncols):
            x.rows[i][j] = xs[i]
    return x


def solve_exact(a: Mat, b: Mat):
    """Exact solution of a @ X = b over the matrix ring (Z or a field)."""
    if a.ring.is_field:
        return solve_field(a, b)
    return solve_z(a, b)


def kernel_exact(m: Mat):
    """Kernel basis of ``m`` over its ring (saturated over Z, RREF over a field)."""
    if m.ring.is_field:
        return kernel_basis_field(m)
    return kernel_z(m)


def is_invertible(m: Mat) -> bool:
    """Invertibility over the matrix's own ring (unimodularity over Z)."""
    if m.nrows != m.ncols:
        return False
    diag = smith_diagonal(m)
    return len(diag) == m.nrows and all(d == 1 for d in diag)

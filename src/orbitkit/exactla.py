"""Exact linear algebra over Z, Q, and F_p.

Matrices are dense lists of rows tagged with their ring; all arithmetic is
exact (no floats anywhere).  Z and Q share one elimination loop,
``_echelon``: integer column reduction of a list of rows, pivoting row by
row on the entry of smallest absolute value (lowest column on ties), so
the output is reproducible.  Q enters it with each row times the lcm of
its denominators (``_over_z``), which keeps the row space over Q.

* ``column_echelon_z`` -- integer column echelon form A*U = H with U
  unimodular, recorded by the identity rows stacked under A; it yields
  saturated kernel bases (over Q, of the cleared matrix) and drives the
  exact solver ``solve_z`` (Hermite-style forward substitution: over Z a
  pivot must divide its residual, over Q the exact quotient is taken).
* ``smith_diagonal`` -- Smith normal form diagonal by alternating column
  echelon forms of the matrix and of its transposed pivot columns, then
  gcd/lcm steps into divisor order; over Q only the pivots are counted.

F_p (``_modular``) goes through reduced row echelon form, ``rref``.

Entries are added, subtracted and multiplied with the ordinary operators;
every row of raw results then passes through ``ring.reduce``, so F_p
entries, plain ``int`` residues, stay in ``0..p-1``, and integral Q
entries stay plain ``int``.  Ring elements are divided only by the Q
quotient in ``solve_z``.  The binary operators refuse operands over
different rings, since residues alone do not say which prime they belong
to.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rings import ZZ, PrimeField


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

    def to_lists(self):
        return [list(r) for r in self.rows]

    def to_json(self):
        return [[self.ring.to_json(v) for v in r] for r in self.rows]

    def __repr__(self):
        return f"Mat({self.ring}, {self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# Smith normal form


def smith_diagonal(m: Mat):
    """Diagonal of the Smith normal form of ``m``.

    Over Z the result is the canonical nonnegative invariant-factor chain
    (each entry divides the next); over a field it is 1 repeated rank
    times, the pivots of ``rref`` over F_p and of one ``_echelon`` pass of
    the cleared rows over Q.  Over Z the matrix is column-echeloned by
    ``_echelon`` and its pivot columns transposed, until each pivot column
    holds only its pivot (the alternating Hermite passes of Kannan and
    Bachem); the pivots are then put in divisor order.
    """
    if _modular(m.ring):
        return [1] * len(rref(m)[1])
    a = [list(r) for r in _over_z(m).rows]
    if m.ring.is_field:
        return [1] * len(_echelon(a, len(a)))
    # Termination: each pass either shrinks the leading pivot p (to the gcd
    # of its column, when p does not divide it) or clears its row and
    # column, after which later passes leave it alone; the same then holds
    # for the leading pivot of the block after it, and pivots are positive.
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
# elimination over F_p


def _modular(ring) -> bool:
    """F_p, eliminated by ``rref``; Z and Q run on ``_echelon``."""
    return isinstance(ring, PrimeField)


def rref(m: Mat):
    """Reduced row echelon form over F_p; returns (R, pivot column list)."""
    ring = m.ring
    if not _modular(ring):
        raise ValueError("rref needs a prime field")
    p = ring.p
    a = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pr = next((i for i in range(r, m.nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        row = a[r]
        # columns before c are zero in the pivot row; scale and update only
        # from c on
        inv = pow(row[c], -1, p)
        if inv != 1:
            row[c:] = [v * inv % p for v in row[c:]]
        nonzero = [j for j in range(c, m.ncols) if row[j]]
        for i in range(m.nrows):
            f = a[i][c]
            if i != r and f:
                ai = a[i]
                for j in nonzero:
                    ai[j] = (ai[j] - f * row[j]) % p
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return Mat(ring, m.nrows, m.ncols, a, normalize=False), pivots


def kernel_basis_field(m: Mat):
    """Columns spanning ker(m) over F_p, in RREF-canonical form."""
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [0] * m.ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -r.rows[i][f]
        basis.append(m.ring.reduce(v))
    return basis


def solve_field(a: Mat, b: Mat):
    """One solution X of a @ X = b over F_p, or None."""
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve")
    r, pivots = rref(Mat(a.ring, a.nrows, a.ncols + b.ncols,
                         [ra + rb for ra, rb in zip(a.rows, b.rows)], normalize=False))
    # inconsistent if a pivot lands in the b-block
    if pivots and pivots[-1] >= a.ncols:
        return None
    x = Mat(a.ring, a.ncols, b.ncols)
    for i, pc in enumerate(pivots):
        x.rows[pc] = r.rows[i][a.ncols:]
    return x


# ---------------------------------------------------------------------------
# integer column echelon (Hermite-style) and exact solving over Z and Q


def _over_z(m: Mat) -> Mat:
    """``m`` over Z: over Q each row holding a fraction is multiplied by the lcm
    of its denominators, which keeps the row space over Q (rank, kernel, and
    the solutions of [A | b]).  Integral Q entries are already ``int``."""
    if m.ring == ZZ:
        return m
    rows = []
    for row in m.rows:
        if Fraction in set(map(type, row)):
            d = lcm(*[v.denominator for v in row])
            row = [v.numerator * (d // v.denominator) for v in row]
        rows.append(row)
    return Mat(ZZ, m.nrows, m.ncols, rows, normalize=False)


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
    return [u.column(j) for j in range(len(pivots), m.ncols)]


def solve_z(a: Mat, b: Mat):
    """One solution X of a @ X = b over Z or Q, or None if none exists.

    Each row of [a | b] is cleared as one row, the cleared a is column
    echeloned to H = a U, and H y = b is solved by forward substitution;
    X = U y.  A pivot that does not divide its residual means no solution
    over Z and gives the exact quotient over Q.
    """
    ring = a.ring
    if _modular(ring) or b.ring != ring:
        raise ValueError("solve_z needs ring Z or Q")
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve_z")
    n = a.ncols
    rows = _over_z(Mat(ring, a.nrows, n + b.ncols,
                       [ra + rb for ra, rb in zip(a.rows, b.rows)], normalize=False)).rows
    h, u, pivots = column_echelon_z(Mat(ZZ, a.nrows, n, [r[:n] for r in rows],
                                        normalize=False))
    piv_at_row = dict(pivots)
    x = Mat(ring, n, b.ncols)
    for j in range(b.ncols):
        y = [0] * n
        for row, hrow in enumerate(h.rows):
            # residual after known pivot variables (later pivots still 0)
            acc = rows[row][n + j] - sum(v * w for v, w in zip(hrow, y) if w)
            c = piv_at_row.get(row)
            if c is None:
                if acc:
                    return None
            elif acc % hrow[c] == 0:
                y[c] = acc // hrow[c]
            elif ring.is_field:
                y[c] = Fraction(acc, hrow[c])
            else:
                return None
        xs = [0] * n
        for c, yc in enumerate(y):
            if yc:
                for i, urow in enumerate(u.rows):
                    xs[i] += urow[c] * yc
        for i, v in enumerate(ring.reduce(xs)):
            x.rows[i][j] = v
    return x


def solve_exact(a: Mat, b: Mat):
    """Exact solution of a @ X = b over the matrix ring (Z, Q or F_p)."""
    if _modular(a.ring):
        return solve_field(a, b)
    return solve_z(a, b)


def kernel_exact(m: Mat):
    """Kernel basis of ``m``: ``kernel_z`` of the cleared rows over Z and Q, RREF over F_p."""
    if _modular(m.ring):
        return kernel_basis_field(m)
    return kernel_z(_over_z(m))


def is_invertible(m: Mat) -> bool:
    """Invertibility over the matrix's own ring (unimodularity over Z)."""
    if m.nrows != m.ncols:
        return False
    diag = smith_diagonal(m)
    return len(diag) == m.nrows and all(d == 1 for d in diag)

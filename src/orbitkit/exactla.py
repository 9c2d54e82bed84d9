"""Exact linear algebra over Z, Q, and F_p.

Matrices are dense lists of rows tagged with their ring; all arithmetic is
exact (no floats anywhere).  The integer routines are the load-bearing
part:

* ``smith_diagonal`` -- Smith normal form diagonal by elementary row/column
  operations, pivoting on the smallest nonzero absolute value with
  position as the tie-break, so the output is reproducible.
* ``column_echelon_z`` -- integer column echelon form A*U = H with U
  unimodular; it yields saturated kernel bases and drives the exact
  integer solver ``solve_z`` (Hermite-style forward substitution with
  divisibility checks).

Field routines (Q and F_p), the field case of ``smith_diagonal`` included,
go through reduced row echelon form.

Entries are added, subtracted and multiplied with the ordinary operators;
every row of raw results then passes through ``ring.reduce``, so F_p
entries, plain ``int`` residues, stay in ``0..p-1``.  Pivots are inverted
by ``ring.inverse``.  The binary operators refuse operands over different
rings, since residues alone do not say which prime they belong to.
"""

from __future__ import annotations

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
    times, read off ``rref``.  Pivot choice over Z: smallest absolute
    value, ties broken by (row, column) position.
    """
    if m.ring.is_field:
        return [m.ring.one] * len(rref(m)[1])
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    diag = []
    t = 0
    while t < nr and t < nc:
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        # clear the pivot's row and column; a nonzero remainder is smaller
        # than the pivot, so re-pivot on it
        p = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            v = a[i][t]
            if v != 0:
                q = v // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            v = a[t][j]
            if v != 0:
                q = v // p
                if q:
                    for i in range(nr):
                        a[i][j] = a[i][j] - q * a[i][t]
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # row and column are clear; the pivot must divide the whole block
        # (a unit always does), else an offending row is added to the pivot
        # row and reduced again
        offender = None if abs(p) == 1 else next(
            (i for i in range(t + 1, nr) if any(v % p for v in a[i][t + 1:])), None)
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        diag.append(abs(p))
        t += 1
    return diag


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
        inv = ring.inverse(a[r][c])
        row = a[r] = red([v * inv for v in a[r]])
        # columns before c are zero in the pivot row; update only its nonzeros
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


def column_echelon_z(m: Mat):
    """Integer column echelon form.

    Returns (H, U, pivots) with ``m @ U == H``, U unimodular, and pivots a
    list of (row, col) positions with strictly increasing rows and columns
    0,1,2,...  Columns past the last pivot are zero.
    """
    if m.ring != ZZ:
        raise ValueError("column_echelon_z needs ring Z")
    nr, nc = m.nrows, m.ncols
    h = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    pivots = []
    col = 0
    for row in range(nr):
        if col >= nc:
            break
        # gcd-combine columns >= col until row has a single nonzero at col
        while True:
            js = [j for j in range(col, nc) if h[row][j] != 0]
            if not js:
                break
            jmin = min(js, key=lambda j: (abs(h[row][j]), j))
            if jmin != col:
                for arr in (h, u):
                    for r_ in arr:
                        r_[col], r_[jmin] = r_[jmin], r_[col]
            done = True
            p = h[row][col]
            for j in range(col + 1, nc):
                v = h[row][j]
                if v != 0:
                    q = v // p
                    for r_ in h:
                        r_[j] -= q * r_[col]
                    for r_ in u:
                        r_[j] -= q * r_[col]
                    if h[row][j] != 0:
                        done = False
            if done:
                break
        if h[row][col] != 0:
            if h[row][col] < 0:
                for r_ in h:
                    r_[col] = -r_[col]
                for r_ in u:
                    r_[col] = -r_[col]
            pivots.append((row, col))
            col += 1
    hm = Mat(ZZ, nr, nc, h, normalize=False)
    um = Mat(ZZ, nc, nc, u, normalize=False)
    return hm, um, pivots


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

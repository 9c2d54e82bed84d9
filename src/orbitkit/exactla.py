"""Exact linear algebra over Z, Q, and F_p.

``Mat`` is a dense matrix, a list of rows tagged with its ring; all
arithmetic is exact (no floats anywhere).  Every elimination, over every
ring, reads its input through ``sparse_rows()`` (dicts column -> nonzero
entry), which ``SparseRows`` and whitehead's linear systems provide too,
so no system is densified.

Z and Q share one sparse integer core, ``_echelon``: column reduction on
columns held as dicts row -> entry, with an index of each row's nonzero
columns; a column swap relabels logical positions.  Row by row it pivots
on the entry of smallest absolute value (lowest logical column on ties),
so the output is reproducible.  Q enters it with each row times the lcm
of its denominators (``_over_z``), which keeps the row space over Q.

* U (A*U = H, unimodular) is built only for ``kernel_z`` (its columns
  past the pivots), ``solve_z`` and ``column_echelon_z``: one unit entry
  per column, under the rows of A.  ``solve_z`` substitutes forward on a
  residual updated from the sparse pivot columns (over Z a pivot must
  divide its residual, over Q the exact quotient is taken) and forms
  X = U y from the nonzero entries of y.  No module calls
  ``column_echelon_z``; the tests check H and U through it, and
  ``bench/tracing.py`` wraps it by name for its ``exactla.echelon_*``
  metrics, so it goes when the benchmark stops reading it.
* ``smith_diagonal`` -- Smith normal form diagonal by alternating column
  echelon forms of the matrix and of its transposed pivot columns, then
  gcd/lcm steps into divisor order; over Q only the pivots are counted.

F_p (``_modular``) is eliminated by ``rref``, Gauss-Jordan on sparse rows;
its rank, kernels and solutions are read off the reduced row echelon form.

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
from itertools import compress
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

    def sparse_rows(self):
        """Each row as a dict column -> nonzero entry."""
        return [{j: r[j] for j in compress(range(self.ncols), r)} for r in self.rows]

    def to_json(self):
        return [[self.ring.to_json(v) for v in r] for r in self.rows]

    def __repr__(self):
        return f"Mat({self.ring}, {self.nrows}x{self.ncols})"


class SparseRows:
    """Rows as dicts column -> nonzero entry, with their ring and width."""

    def __init__(self, ring, ncols: int, rows):
        self.ring, self.ncols, self.rows = ring, ncols, rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def sparse_rows(self):
        return self.rows


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
    rows, ncols = _over_z(m.ring, m.sparse_rows()), m.ncols
    if m.ring.is_field:
        return [1] * len(_echelon(rows, ncols)[1])
    # Termination: each pass either shrinks the leading pivot p (to the gcd
    # of its column, when p does not divide it) or clears its row and
    # column, after which later passes leave it alone; the same then holds
    # for the leading pivot of the block after it, and pivots are positive.
    while True:
        cols, pivots = _echelon(rows, ncols)
        k = len(pivots)
        if sum(map(len, cols[:k])) == k:
            break
        rows, ncols = cols[:k], len(rows)
    d = [cols[c][r] for r, c in pivots]
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


def _subtract(row, f, pivot_row, p):
    """row -= f * pivot_row over F_p, in place on sparse rows."""
    for j, v in pivot_row.items():
        w = (row.get(j, 0) - f * v) % p
        if w:
            row[j] = w
        else:
            del row[j]


def rref(m):
    """Reduced row echelon form of ``m`` over F_p: its nonzero rows (sparse) and pivots.

    Gauss-Jordan one row at a time.  A pivot row holds no pivot column but
    its own, so an incoming row is reduced in one pass; its lowest column
    left, made 1, is a new pivot and is cleared from the earlier pivot
    rows.  Pivot rows hold no column before their pivot, so sorted by
    pivot (increasing, as returned) they are the RREF.
    """
    if not _modular(m.ring):
        raise ValueError("rref needs a prime field")
    p = m.ring.p
    reduced = {}  # pivot column -> pivot row
    for row in m.sparse_rows():
        row = dict(row)  # the input rows stay unchanged
        for c in [c for c in row if c in reduced]:
            _subtract(row, row[c], reduced[c], p)
        if row:
            c = min(row)
            inv = pow(row[c], -1, p)
            if inv != 1:
                row = {j: v * inv % p for j, v in row.items()}
            for other in reduced.values():
                if c in other:
                    _subtract(other, other[c], row, p)
            reduced[c] = row
    pivots = sorted(reduced)
    return [reduced[c] for c in pivots], pivots


def kernel_basis_field(m):
    """Columns spanning ker(m) over F_p, in RREF-canonical form."""
    rows, pivots = rref(m)
    free = sorted(set(range(m.ncols)).difference(pivots))
    basis = {f: [int(j == f) for j in range(m.ncols)] for f in free}
    for c, row in zip(pivots, rows):
        for j in row.keys() - {c}:
            basis[j][c] = -row[j]
    return [m.ring.reduce(v) for v in basis.values()]


def solve_field(a, b: Mat):
    """One solution X of a @ X = b over F_p (free unknowns 0), or None."""
    if b.ring != a.ring:
        raise ValueError("solve_field needs a and b over one ring")
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve")
    n = a.ncols
    rows, pivots = rref(SparseRows(a.ring, n + b.ncols,
                                   [{**ra, **{n + j: v for j, v in rb.items()}}
                                    for ra, rb in zip(a.sparse_rows(), b.sparse_rows())]))
    # inconsistent if a pivot lands in the b-block
    if pivots and pivots[-1] >= n:
        return None
    x = Mat(a.ring, n, b.ncols)
    for c, row in zip(pivots, rows):
        x.rows[c] = [row.get(n + j, 0) for j in range(b.ncols)]
    return x


# ---------------------------------------------------------------------------
# sparse integer column echelon (Hermite-style) and exact solving over Z and Q


def _over_z(ring, rows):
    """Sparse ``rows`` over Z: over Q each row holding a fraction is multiplied by the
    lcm of its denominators, which keeps the row space (rank, kernel, solutions)."""
    if _modular(ring):
        raise ValueError(f"integer elimination needs ring Z or Q, not {ring}")
    if ring == ZZ:
        return rows
    out = []
    for row in rows:
        if Fraction in set(map(type, row.values())):
            d = lcm(*[v.denominator for v in row.values()])
            row = {j: v.numerator * (d // v.denominator) for j, v in row.items()}
        out.append(row)
    return out


def _echelon(rows, ncols, with_u=False):
    """Column-reduce the integer ``rows`` (dicts column -> nonzero entry, unchanged).

    Row by row, the entry of smallest absolute value in the logical columns
    not yet used (lowest logical column on ties) is moved to the next one
    and reduces the others, until it is the row's only nonzero there; it
    is made positive.  Returns the columns of H in logical order, as dicts
    row -> entry, and the pivots: (row, col) with strictly increasing rows
    and columns 0, 1, 2, ...  With ``with_u`` U sits under the rows of H.
    """
    nr = len(rows)
    cols = [{nr + j: 1} if with_u else {} for j in range(ncols)]  # by physical column
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    # each row's nonzero physical columns, and some that have become zero
    support = [list(row) for row in rows]
    at = list(range(ncols))  # physical column at each logical position
    pos = list(range(ncols))  # logical position of each physical column
    pivots = []
    for row in range(nr):
        col = len(pivots)
        js = {j for j in support[row] if pos[j] >= col and row in cols[j]}
        while js:
            jmin = min(js, key=lambda j: (abs(cols[j][row]), pos[j]))
            k = pos[jmin]
            at[col], at[k] = jmin, at[col]
            pos[at[k]], pos[jmin] = k, col
            pivot = cols[jmin]
            p = pivot[row]
            js.discard(jmin)
            for j in js:
                target = cols[j]
                q = target[row] // p
                for i, c in pivot.items():
                    v = target.get(i)
                    if v is None and i < nr:
                        support[i].append(j)
                    v = (v or 0) - q * c
                    if v:
                        target[i] = v
                    else:
                        del target[i]
            js = {j for j in js if row in cols[j]}
            if js:
                js.add(jmin)
            else:
                if p < 0:
                    cols[jmin] = {i: -v for i, v in pivot.items()}
                pivots.append((row, col))
    return [cols[j] for j in at], pivots


def column_echelon_z(m: Mat):
    """Integer column echelon form.

    Returns (H, U, pivots) with ``m @ U == H``, U unimodular, and pivots a
    list of (row, col) positions with strictly increasing rows and columns
    0,1,2,...  Columns past the last pivot are zero.
    """
    if m.ring != ZZ:
        raise ValueError("column_echelon_z needs ring Z")
    nr, nc = m.nrows, m.ncols
    cols, pivots = _echelon(m.sparse_rows(), nc, with_u=True)
    h, u = Mat(ZZ, nr, nc), Mat(ZZ, nc, nc)
    for j, col in enumerate(cols):
        for i, v in col.items():
            (h.rows[i] if i < nr else u.rows[i - nr])[j] = v
    return h, u, pivots


def kernel_z(m):
    """Basis (list of columns) of the integer kernel lattice of ``m`` (over Q, cleared).

    The kernel of a Z-linear map is saturated, so this basis spans all
    rational kernel vectors with integer entries.
    """
    cols, pivots = _echelon(_over_z(m.ring, m.sparse_rows()), m.ncols, with_u=True)
    return [[col.get(m.nrows + i, 0) for i in range(m.ncols)] for col in cols[len(pivots):]]


def solve_z(a, b: Mat):
    """One solution X of a @ X = b over Z or Q, or None if none exists.

    Each row of [a | b] is cleared as one row, the cleared a is column
    echeloned to H = a U, and H y = b is solved by forward substitution
    on a residual updated from the sparse pivot columns; X = U y.  A pivot
    that does not divide its residual means no solution over Z and gives
    the exact quotient over Q.
    """
    ring = a.ring
    if b.ring != ring:
        raise ValueError("solve_z needs a and b over one ring")
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve_z")
    nr, n = a.nrows, a.ncols
    rows = _over_z(ring, [{**ra, **{n + j: v for j, v in rb.items()}}
                          for ra, rb in zip(a.sparse_rows(), b.sparse_rows())])
    cols, pivots = _echelon([{j: v for j, v in row.items() if j < n} for row in rows],
                            n, with_u=True)
    x = Mat(ring, n, b.ncols)
    for j in range(b.ncols):
        # b - H y on the rows of H, and below them -U y
        res = [row.get(n + j, 0) for row in rows] + [0] * n
        for r, c in pivots:
            acc, p = res[r], cols[c][r]
            if acc % p == 0:
                y = acc // p
            elif ring.is_field:
                y = Fraction(acc, p)
            else:
                return None
            if y:
                for i, v in cols[c].items():
                    res[i] -= v * y
        if any(res[:nr]):
            return None
        for i, v in enumerate(ring.reduce([-v for v in res[nr:]])):
            x.rows[i][j] = v
    return x


def solve_exact(a, b: Mat):
    """Exact solution of a @ X = b over the ring of ``a`` (Z, Q or F_p).

    ``a`` has ``ring``, ``nrows``, ``ncols`` and ``sparse_rows()``.
    """
    return (solve_field if _modular(a.ring) else solve_z)(a, b)


def kernel_exact(m):
    """Kernel basis of ``m``: ``kernel_z`` over Z and Q, RREF over F_p."""
    return (kernel_basis_field if _modular(m.ring) else kernel_z)(m)


def is_invertible(m: Mat) -> bool:
    """Invertibility over the matrix's own ring (unimodularity over Z)."""
    if m.nrows != m.ncols:
        return False
    diag = smith_diagonal(m)
    return len(diag) == m.nrows and all(d == 1 for d in diag)

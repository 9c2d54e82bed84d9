"""Exact linear algebra over Z, Q, and F_p.

``Mat`` is the one matrix type: a list of rows, each a dict column ->
nonzero entry, tagged with its ring; all arithmetic is exact (no floats
anywhere) and costs in proportion to the nonzero entries.  Every
elimination, over every ring, reads its input through ``sparse_rows()``,
the stored rows, so no matrix or system is densified; only ``to_json``
writes the zeros out, through the read-only dense view ``rows``.

Z and Q share one sparse integer core, ``_echelon``: column reduction on
columns held as dicts row -> entry, with an index of each row's nonzero
columns; a column swap relabels logical positions.  Row by row it pivots
on the entry of smallest absolute value (lowest logical column on ties),
so the output is reproducible.  Q enters it with each row times the lcm
of its denominators (``_over_z``), which keeps the row space over Q.

* U (A*U = H, unimodular) is built only for ``solve_z`` and
  ``column_echelon_z``: one unit entry per column, under the rows of A.
  ``solve_z`` substitutes forward on a residual updated from the sparse
  pivot columns (over Z a pivot must divide its residual, over Q the
  exact quotient is taken) and forms X = U y from the nonzero entries of y.  No module calls
  ``column_echelon_z``; the tests check H and U through it, and
  ``bench/tracing.py`` wraps it by name for its ``exactla.echelon_*``
  metrics, so it goes when the benchmark stops reading it.
* ``smith_diagonal`` -- Smith normal form diagonal by alternating column
  echelon forms of the matrix and of its transposed pivot columns, then
  gcd/lcm steps into divisor order; over Q only the pivots are counted.

F_p (``_modular``) is eliminated on sparse rows: its rank by a forward
pass, its solutions by ``rref``, Gauss-Jordan, read off the reduced row
echelon form.

Entries are added, subtracted and multiplied with the ordinary operators;
every row of raw results then passes through ``ring.nonzero``, so F_p
entries, plain ``int`` residues, stay in ``0..p-1``, integral Q entries
stay plain ``int`` and no zero is stored.  Ring elements are divided only
by the Q quotient in ``solve_z``.  The binary operators refuse operands
over different rings, since residues alone do not say which prime they
belong to.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from .rings import ZZ, PrimeField


class Mat:
    """Sparse matrix over a fixed ring: one dict column -> nonzero entry per row.

    Built from rows in that form: entries are normalized and zeros dropped
    (``normalize=False`` takes rows that are so already), and a row count or
    a column outside the shape is refused.  Stored rows are never changed,
    so matrices share them; ``rows`` is the read-only dense view.  Binary
    operators raise ``ValueError`` on operands over different rings.
    """

    __slots__ = ("ring", "nrows", "ncols", "_rows")

    def __init__(self, ring, nrows: int, ncols: int, rows=None, normalize=True):
        self.ring, self.nrows, self.ncols = ring, nrows, ncols
        if rows is None:
            self._rows = [{} for _ in range(nrows)]
            return
        rows = list(rows)
        full = list(filter(None, rows))
        if len(rows) != nrows or full and (min(map(min, full)) < 0
                                           or max(map(max, full)) >= ncols):
            raise ValueError(f"shape mismatch: want {nrows}x{ncols}")
        if normalize:
            norm = ring.normalize
            rows = [{j: x for j, v in r.items() for x in [norm(v)] if x} for r in rows]
        self._rows = rows

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, n, n, [{i: ring.one} for i in range(n)], normalize=False)

    @property
    def rows(self) -> tuple:
        """The entries, row by row, zeros included, as tuples (read-only)."""
        cols, zeros = range(self.ncols), repeat(self.ring.zero)
        return tuple(tuple(map(r.get, cols, zeros)) for r in self._rows)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.ring == other.ring and self.nrows == other.nrows
                and self.ncols == other.ncols and self._rows == other._rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(frozenset(r.items()) for r in self._rows)))

    def __matmul__(self, other):
        self._same_ring(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by "
                             f"{other.nrows}x{other.ncols}")
        nonzero, one, brows, out = self.ring.nonzero, self.ring.one, other._rows, []
        for row in self._rows:
            if len(row) == 1:
                [(k, a)] = row.items()
                if a == one:  # row k of other, shared
                    out.append(brows[k])
                    continue
            acc = {}
            for k, a in row.items():
                for j, b in brows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(nonzero(acc) if acc else acc)
        return Mat(self.ring, self.nrows, other.ncols, out, normalize=False)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign * other."""
        self._same_shape(other)
        nonzero, out = self.ring.nonzero, []
        for r, s in zip(self._rows, other._rows):
            if s:
                r = dict(r)
                for j, v in s.items():
                    r[j] = r.get(j, 0) + sign * v
                r = nonzero(r)
            out.append(r)
        return Mat(self.ring, self.nrows, self.ncols, out, normalize=False)

    def __neg__(self):
        nonzero = self.ring.nonzero
        return Mat(self.ring, self.nrows, self.ncols,
                   [nonzero({j: -v for j, v in r.items()}) for r in self._rows],
                   normalize=False)

    def _same_ring(self, other):
        if other.ring != self.ring:
            raise ValueError(f"mixed rings {self.ring} and {other.ring}")

    def _same_shape(self, other):
        self._same_ring(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def is_zero(self):
        return not any(self._rows)

    def sparse_rows(self) -> list:
        """The stored rows, dicts column -> nonzero entry; callers do not change them."""
        return self._rows

    def to_json(self):
        to_json = self.ring.to_json
        return [[v and to_json(v) for v in r] for r in self.rows]  # a zero is written as 0

    def __repr__(self):
        return f"Mat({self.ring}, {self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# Smith normal form


def smith_diagonal(m: Mat):
    """Diagonal of the Smith normal form of ``m``.

    Over Z the result is the canonical nonnegative invariant-factor chain
    (each entry divides the next); over a field it is 1 repeated rank
    times, the pivots of a forward pass (``_forward_rank``) over F_p and of
    one ``_echelon`` pass of the cleared rows over Q.  Over Z the matrix is
    column-echeloned by ``_echelon`` and its pivot columns transposed, until
    each pivot column holds only its pivot (the alternating Hermite passes
    of Kannan and Bachem) or every pivot is 1; the pivots are then put in
    divisor order.
    """
    if _modular(m.ring):
        return [1] * _forward_rank(m)
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
        if all(cols[c][r] == 1 for r, c in pivots):
            # H = m U with U unimodular, and H's pivot rows x pivot columns
            # block is lower unitriangular: one k x k minor is 1, so the gcd
            # of the k x k minors, the product of the k invariant factors, is 1
            return [1] * k
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


def _forward_rank(m) -> int:
    """Rank over F_p by a forward pass: each row is reduced by the pivot rows
    until its lowest column holds no pivot, and then becomes a pivot row.
    A pivot row holds no column below its pivot, so the lowest column rises."""
    p = m.ring.p
    reduced = {}  # pivot column -> pivot row, its pivot made 1
    for row in m.sparse_rows():
        row = dict(row)  # the input rows stay unchanged
        while row:
            c = min(row)
            if c not in reduced:
                inv = pow(row[c], -1, p)
                reduced[c] = row if inv == 1 else {j: v * inv % p for j, v in row.items()}
                break
            _subtract(row, row[c], reduced[c], p)
    return len(reduced)


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


def solve_field(a, b: Mat):
    """One solution X of a @ X = b over F_p (free unknowns 0), or None."""
    if b.ring != a.ring:
        raise ValueError("solve_field needs a and b over one ring")
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve")
    n = a.ncols
    rows, pivots = rref(Mat(a.ring, a.nrows, n + b.ncols, _beside(a, b), normalize=False))
    # inconsistent if a pivot lands in the b-block
    if pivots and pivots[-1] >= n:
        return None
    x = [{} for _ in range(n)]
    for c, row in zip(pivots, rows):
        x[c] = {j - n: v for j, v in row.items() if j >= n}
    return Mat(a.ring, n, b.ncols, x, normalize=False)


def _beside(a: Mat, b: Mat) -> list:
    """The sparse rows of [a | b]."""
    n = a.ncols
    return [{**ra, **{n + j: v for j, v in rb.items()}}
            for ra, rb in zip(a.sparse_rows(), b.sparse_rows())]


# ---------------------------------------------------------------------------
# sparse integer column echelon (Hermite-style) and exact solving over Z and Q


def _over_z(ring, rows):
    """Sparse ``rows`` over Z: over Q each row holding a fraction is multiplied by the
    lcm of its denominators, which keeps the row space (rank, solutions)."""
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
    rows = [{} for _ in range(nr + nc)]  # H's, then U's
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return Mat(ZZ, nr, nc, rows[:nr], normalize=False), \
        Mat(ZZ, nc, nc, rows[nr:], normalize=False), pivots


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
    rows = _over_z(ring, _beside(a, b))
    cols, pivots = _echelon([{j: v for j, v in row.items() if j < n} for row in rows],
                            n, with_u=True)
    x = [{} for _ in range(n)]
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
        for i, v in ring.nonzero({i: -v for i, v in enumerate(res[nr:])}).items():
            x[i][j] = v
    return Mat(ring, n, b.ncols, x, normalize=False)


def solve_exact(a, b: Mat):
    """Exact solution of a @ X = b over the ring of ``a`` (Z, Q or F_p), or None."""
    return (solve_field if _modular(a.ring) else solve_z)(a, b)


def is_invertible(m: Mat) -> bool:
    """Invertibility over the matrix's own ring (unimodularity over Z)."""
    if m.nrows != m.ncols:
        return False
    diag = smith_diagonal(m)
    return len(diag) == m.nrows and all(d == 1 for d in diag)

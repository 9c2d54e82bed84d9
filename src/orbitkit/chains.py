"""Chain complexes over Z, Q, F_p with optional group representations.

Complexes are non-negatively graded, finitely generated free in each
degree, with exact entries throughout.  The normalized chains of a
G-simplicial set have basis the nondegenerate simplices (identifier
order); faces that normalize to degenerate simplices contribute zero to
the differential.

A group action is stored in one of two forms, fixed by the constructor.
Actions that permute the basis (from G-sets, G-simplicial sets, and orbit
diagrams whose maps at G/e are permutation matrices) are stored as one
G-set of basis indices per degree (``ChainComplex.permuted``); their
invariants are orbit sums, matrices are derived only on request (``rep_mat``),
and d on them is read off d's rows summed over orbits.  General linear
actions, such as ``ChainCat.gobject`` builds from structure maps that are
not permutations, keep their matrices (``rep=``); their invariants are
exact kernels, and d on them, like ``corestrict``, is a product with the
left inverse ``incl.coords``, checked by multiplying back.
Whether a matrix commutes with the actions is decided by
``equivariance_defect`` alone, on index tuples for two permutation actions.
Maps that send basis vectors to basis vectors or to 0 (``ChainMap.of_bases``)
keep index tuples, and compose, compare and corestrict without matrices.

Sign conventions are pinned by the verified identities rather than chosen
in the abstract: d is the alternating face sum, the cone differential is
d(y, x) = (dy + fx, -dx), and the interval shuffle homotopy built by
``prism_homotopy`` satisfies  d phi + phi d = (hc o end1) - (hc o end0)
exactly (checked on every call; a failure raises instead of returning).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import InternalError
from .exactla import Mat, kernel_exact, smith_diagonal, solve_exact
from .groups import Group, Subgroup, check_action_laws
from .gsets import GSet, orbits, validate_gset
from .simplicial import GSSet, Prism, SMap


class ChainComplex:
    """Bounded complex of free modules; optionally with a group action."""

    def __init__(self, ring, ranks, diffs, group: Group | None = None,
                 rep=None, basis=None, validate: bool = True):
        self.ring = ring
        self.ranks = tuple(int(r) for r in ranks)
        if not self.ranks:
            self.ranks = (0,)
        self.top = len(self.ranks) - 1
        self._d = {int(n): m for n, m in dict(diffs).items()}
        self.group = group
        self.rep = rep  # {g: {n: Mat}} or None
        self.action = None  # per-degree GSet of basis indices, or None
        self.basis = basis  # per-degree simplex ids, when built from a GSSet
        if validate:
            self.validate()

    @classmethod
    def permuted(cls, ring, ranks, diffs, group: Group, action,
                 basis=None) -> "ChainComplex":
        """A complex whose group permutes the basis of every degree.

        ``action[n]`` is the G-set of basis indices in degree n: element g
        sends basis vector i to basis vector ``action[n].act[g][i]``.
        """
        c = cls(ring, ranks, diffs, group=group, basis=basis, validate=False)
        c.action = tuple(action)
        c.validate()
        return c

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.top else 0

    def d(self, n: int) -> Mat:
        m = self._d.get(n)
        if m is None:
            return Mat.zeros(self.ring, self.rank(n - 1), self.rank(n))
        return m

    def rep_mat(self, g: int, n: int) -> Mat:
        if self.action is not None and 0 <= n <= self.top:
            m = Mat.zeros(self.ring, self.rank(n), self.rank(n))
            for j, i in enumerate(self.action[n].act[g]):
                m.rows[i][j] = self.ring.one
            return m
        m = None if self.rep is None else self.rep[g].get(n)
        return Mat.identity(self.ring, self.rank(n)) if m is None else m

    @property
    def equivariant(self) -> bool:
        return self.group is not None

    def validate(self):
        for n in range(1, self.top + 1):
            m = self.d(n)
            if (m.nrows, m.ncols) != (self.rank(n - 1), self.rank(n)):
                raise ValueError(f"differential d_{n} has shape "
                                 f"{m.nrows}x{m.ncols}, want "
                                 f"{self.rank(n - 1)}x{self.rank(n)}")
        for n in sorted(self._d):
            if not 1 <= n <= self.top:
                raise ValueError(f"differential in illegal degree {n}")
        for n in range(2, self.top + 1):
            if not (self.d(n - 1) @ self.d(n)).is_zero():
                raise ValueError(f"d_{n - 1} d_{n} != 0")
        if self.action is not None:
            if len(self.action) != self.top + 1:
                raise ValueError("need one permutation action per degree")
            for n, x in enumerate(self.action):
                if x.group != self.group or x.size != self.rank(n):
                    raise ValueError(f"action in degree {n} has the wrong shape")
                validate_gset(x)
        elif self.group is not None and self.rep is not None:
            g = self.group
            for a in self.rep:
                if a not in g.elements():
                    raise ValueError(f"representation of {a!r}, which is not a group element")
            for a in g.elements():
                if a not in self.rep:
                    raise ValueError(f"missing representation of element {a}")
                if not isinstance(self.rep[a], dict):
                    raise ValueError(f"representation of {a} is not a dict of "
                                     "matrices by degree")
                for n, m in self.rep[a].items():  # a missing degree is the identity
                    if n not in range(self.top + 1):
                        raise ValueError(f"representation of {a} in illegal degree {n}")
                    if (m.nrows, m.ncols) != (self.rank(n), self.rank(n)):
                        raise ValueError(f"representation of {a} in degree {n} "
                                         "has the wrong shape")
            for n in range(self.top + 1):
                check_action_laws(g, lambda a: self.rep_mat(a, n), Mat.__matmul__,
                                  Mat.identity(self.ring, self.rank(n)))
        else:
            return  # no action to check
        bad = equivariance_defect(self, self, self.d, range(1, self.top + 1), -1,
                                  self.group.generators)  # a homomorphism: generators suffice
        if bad is not None:
            raise ValueError(f"representation of {bad[0]} does not commute with d_{bad[1]}")

    def forget_action(self) -> "ChainComplex":
        return ChainComplex(self.ring, self.ranks, self._d, basis=self.basis,
                            validate=False)

    def __repr__(self):
        kind = "EqChainComplex" if self.equivariant else "ChainComplex"
        return f"{kind}({self.ring}, ranks={self.ranks})"


def concentrated(ring, n: int, rank_: int = 1) -> ChainComplex:
    """The complex with one free module in degree n and zero elsewhere."""
    ranks = [0] * (n + 1)
    ranks[n] = rank_
    return ChainComplex(ring, ranks, {})


def disk(ring, n: int) -> ChainComplex:
    """R in degrees n and n-1 with identity differential (acyclic)."""
    if n < 1:
        raise ValueError("disk needs degree >= 1")
    ranks = [0] * (n + 1)
    ranks[n] = ranks[n - 1] = 1
    return ChainComplex(ring, ranks, {n: Mat.identity(ring, 1)})


def zero_complex(ring) -> ChainComplex:
    return ChainComplex(ring, (0,), {})


class ChainMap:
    """One matrix per degree, ``f[n] = f.mat(n)``, or a map of bases (``of_bases``):
    a 0/1 matrix with at most one 1 per row, such as identities, permutation
    actions, copower remaps and the orbit-sum maps of ``invariants``, kept as
    ``sel``, per degree the tuple of each row's column of 1 (None: zero row).
    Maps of bases compose, compare and corestrict as tuples; ``mat(n)``
    builds the matrix once, when a caller needs it."""

    def __init__(self, source: ChainComplex, target: ChainComplex, mats,
                 validate: bool = True):
        self.source = source
        self.target = target
        self._mats = {int(n): m for n, m in dict(mats).items()}
        self.sel = None  # {degree: tuple} for a map of bases
        self.equivariant = False
        if validate:
            self.validate()

    @classmethod
    def of_bases(cls, source: ChainComplex, target: ChainComplex, sel) -> "ChainMap":
        """``sel[n][i]`` is row i's column of 1 in degree n, up to target.top."""
        f = cls(source, target, {}, validate=False)
        f.sel = sel
        return f

    def mat(self, n: int) -> Mat:
        m = self._mats.get(n)
        if m is None:
            m = Mat.zeros(self.source.ring, self.target.rank(n), self.source.rank(n))
            if self.sel is not None and n in self.sel:
                for row, j in zip(m.rows, self.sel[n]):
                    if j is not None:
                        row[j] = m.ring.one
                self._mats[n] = m
        return m

    def __getitem__(self, n: int) -> Mat:  # iterating f gives its matrices up to top
        if not 0 <= n <= self.top:
            raise IndexError(n)
        return self.mat(n)

    @property
    def top(self) -> int:
        return max(self.source.top, self.target.top)

    def validate(self):
        if self.source.ring != self.target.ring:
            raise ValueError("chain map needs a common ring")
        for n in range(self.top + 1):
            m = self.mat(n)
            if (m.nrows, m.ncols) != (self.target.rank(n), self.source.rank(n)):
                raise ValueError(f"chain map matrix in degree {n} has the wrong shape")
        for n in range(1, self.top + 1):
            if self.target.d(n) @ self.mat(n) != self.mat(n - 1) @ self.source.d(n):
                raise ValueError(f"does not commute with d in degree {n}")
        if self.source.group is not None and self.source.group == self.target.group:
            self.equivariant = equivariance_defect(
                self.target, self.source, self.mat, range(self.top + 1), 0,
                self.source.group.generators) is None

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


class ChainHomotopy:
    """Degree +1 maps; no structural constraint beyond shape."""

    def __init__(self, source: ChainComplex, target: ChainComplex, mats):
        self.source = source
        self.target = target
        self._mats = {int(n): m for n, m in dict(mats).items()}
        self.equivariant = False  # set by prism_homotopy
        for n, m in self._mats.items():
            if (m.nrows, m.ncols) != (target.rank(n + 1), source.rank(n)):
                raise ValueError(f"homotopy matrix in degree {n} has the wrong shape")

    def mat(self, n: int) -> Mat:
        m = self._mats.get(n)
        if m is None:
            return Mat.zeros(self.source.ring, self.target.rank(n + 1),
                             self.source.rank(n))
        return m


def _then(a, b) -> tuple:
    """The rows of A B (B applied first) for maps of bases: row i of A B is row a[i] of B."""
    return tuple([None if j is None else b[j] for j in a])


def identity_chain_map(c: ChainComplex) -> ChainMap:
    ident = ChainMap.of_bases(c, c, {n: tuple(range(c.rank(n))) for n in range(c.top + 1)})
    ident.equivariant = c.group is not None
    return ident


def compose_chain_maps(second: ChainMap, first: ChainMap) -> ChainMap:
    """second o first; equivariant when both factors are, of bases when both are."""
    if second.sel is not None and first.sel is not None:  # rows are second's rows
        comp = ChainMap.of_bases(first.source, second.target, {
            n: _then(s, first.sel.get(n, ())) for n, s in second.sel.items()})
    else:
        comp = ChainMap(first.source, second.target,
                        {n: second.mat(n) @ first.mat(n)
                         for n in range(max(second.top, first.top) + 1)}, validate=False)
    comp.equivariant = first.equivariant and second.equivariant
    return comp


def chain_maps_equal(a: ChainMap, b: ChainMap) -> bool:
    """Equal matrices in every degree; endpoints are not compared."""
    top, sa, sb = max(a.top, b.top), a.source, b.source
    if a.sel is not None and b.sel is not None and (
            sa is sb or sa.ring == sb.ring and sa.ranks == sb.ranks):  # so equal shapes
        return a.sel == b.sel or all(a.sel.get(n, ()) == b.sel.get(n, ()) for n in range(top + 1))
    return all(a.mat(n) == b.mat(n) for n in range(top + 1))


def homotopy_defect(phi: ChainHomotopy, f: ChainMap, g: ChainMap):
    """Degrees n where d phi_n + phi_{n-1} d != g_n - f_n, d being that of
    f's source and target; phi supplies only its blocks (empty means exact identity)."""
    src, tgt = f.source, f.target
    return [n for n in range(max(src.top, tgt.top, f.top, g.top) + 1)
            if tgt.d(n + 1) @ phi.mat(n) + phi.mat(n - 1) @ src.d(n) != g.mat(n) - f.mat(n)]


def equivariance_defect(out: ChainComplex, into: ChainComplex, mat, degrees, shift: int,
                        elements):
    """The first (a, n), by degree and then element, with rho_out(a) mat(n) !=
    mat(n) rho_into(a) for mat(n): into_n -> out_{n+shift}, or None.

    Two permutation actions, a acting by p on out_{n+shift} and q on into_n,
    are compared on index tuples: entry (p[i], q[j]) must equal entry (i, j)
    at each nonzero entry, hence at every entry, as (i, j) -> (p[i], q[j]) is
    a bijection.  Any other pair of actions is compared as ``rep_mat`` products.
    """
    for n in degrees:
        m = mat(n)
        if not m.nrows or not m.ncols:
            continue
        if out.action is not None and into.action is not None:
            rows, ps, qs = m.rows, out.action[n + shift].act, into.action[n].act
            nonzero = [(i, j, v) for i, row in enumerate(rows)
                       for j, v in enumerate(row) if v]
            bad = next((a for a in elements
                        if any(rows[ps[a][i]][qs[a][j]] != v for i, j, v in nonzero)), None)
        else:
            bad = next((a for a in elements
                        if out.rep_mat(a, n + shift) @ m != m @ into.rep_mat(a, n)), None)
        if bad is not None:
            return bad, n
    return None


# ---------------------------------------------------------------------------
# normalized chains of a G-simplicial set


def _basis(x: GSSet) -> tuple:
    return tuple(x.ids_of_dim(n) for n in range(max(x.top_dim, 0) + 1))


def normalized_chains(x: GSSet, ring) -> ChainComplex:
    """Basis in degree n: the nondegenerate n-simplices in identifier order."""
    basis = _basis(x)
    top = len(basis) - 1
    index = [{s: i for i, s in enumerate(b)} for b in basis]
    ranks = [len(b) for b in basis]
    diffs = {}
    for n in range(1, top + 1):
        m = Mat.zeros(ring, ranks[n - 1], ranks[n])
        for j, s in enumerate(basis[n]):
            for i in range(n + 1):
                ref = x.face(s, i)
                if ref.degenerate:
                    continue
                r = index[n - 1][ref.base]
                m.rows[r][j] = m.rows[r][j] + (ring.one if i % 2 == 0 else -ring.one)
        m.rows = [ring.reduce(row) for row in m.rows]
        diffs[n] = m
    # d∘d = 0 and the action laws follow from the validated G-sset x
    c = ChainComplex(ring, ranks, diffs, group=x.group, basis=basis, validate=False)
    c.action = tuple(GSet(x.group, ranks[n],
                          tuple(tuple(index[n][x.action[g][s]] for s in basis[n])
                                for g in x.group.elements()))
                     for n in range(top + 1))
    return c


def normalized_chain_map(f: SMap, ring, cx: ChainComplex | None = None,
                         cy: ChainComplex | None = None) -> ChainMap:
    """The induced map on normalized chains (a simplex sent to a degenerate one goes to zero)."""
    cx = cx or normalized_chains(f.source, ring)
    cy = cy or normalized_chains(f.target, ring)
    index_y = [{s: i for i, s in enumerate(b)} for b in cy.basis]
    mats = {}
    for n in range(max(cx.top, cy.top) + 1):
        m = Mat.zeros(ring, cy.rank(n), cx.rank(n))
        if n <= cx.top:
            for j, s in enumerate(cx.basis[n]):
                ref = f.values[s]
                if not ref.degenerate:
                    m.rows[index_y[n][ref.base]][j] = ring.one
        mats[n] = m
    return ChainMap(cx, cy, mats)


# ---------------------------------------------------------------------------
# invariants


def invariants(c: ChainComplex, h: Subgroup) -> tuple[ChainComplex, ChainMap]:
    """Degreewise kernel of (rho(g) - id | g in H), with comparison map.

    For permutation actions the basis is the H-orbit sums (sorted by least
    index); for matrix actions an exact kernel basis is computed over the
    ring (saturated HNF basis over Z and Q, RREF basis over F_p).  The
    inclusion K carries a left inverse P = ``incl.coords`` (a ``ChainMap``
    that need not commute with d): maps of bases for permutation actions
    (K sends each index to its orbit, P picks each orbit's least index), or
    one solve of P K = 1 per degree (over Z it exists because the kernel is
    saturated).  d' = P d K, read off d's rows summed over orbits for
    permutation actions; K d' = d K is checked.
    """
    if c.group is None:
        raise ValueError("invariants need an equivariant complex")
    if h.parent != c.group:
        raise ValueError("subgroup of a different group")
    ring = c.ring
    if h.is_trivial():
        plain = c.forget_action()
        ids = {n: tuple(range(c.rank(n))) for n in range(c.top + 1)}
        incl = ChainMap.of_bases(plain, c, ids)
        incl.coords = ChainMap.of_bases(c, plain, ids)
        return plain, incl
    what = "the differential must restrict to the invariant subcomplex"
    if c.action is not None:
        orbs = [orbits(c.action[n].act, h.members) for n in range(c.top + 1)]
        slots = {n: tuple(j for _, j in sorted((i, j) for j, o in enumerate(os) for i in o))
                 for n, os in enumerate(orbs)}  # slots[n][i]: the orbit of i
        diffs = {n: _orbit_sums(c.d(n), orbs[n - 1], slots[n], len(orbs[n]), what)
                 for n in range(1, c.top + 1)}
        inv = ChainComplex(ring, [len(os) for os in orbs], diffs, basis=None, validate=False)
        incl = ChainMap.of_bases(inv, c, slots)
        incl.coords = ChainMap.of_bases(c, inv, {n: tuple(o[0] for o in os)
                                                 for n, os in enumerate(orbs)})
        return inv, incl
    kmats, pmats = [], []
    nontrivial = [g for g in h.members if g != 0]
    for n in range(c.top + 1):
        r = c.rank(n)
        stack = [row for g in nontrivial
                 for row in (c.rep_mat(g, n) - Mat.identity(ring, r)).rows]
        cols = kernel_exact(Mat(ring, len(stack), r, stack, normalize=False))
        k = Mat(ring, len(cols), r, cols, normalize=False).transpose()
        p = solve_exact(k.transpose(), Mat.identity(ring, len(cols)))
        if p is None:
            raise InternalError("the invariant basis has no left inverse")
        kmats.append(k)
        pmats.append(p.transpose())
    diffs = {n: _through(kmats[n - 1], pmats[n - 1], c.d(n) @ kmats[n], what)
             for n in range(1, c.top + 1)}
    # incl d' = d incl and incl is injective, so d'd' = 0
    inv = ChainComplex(ring, [k.ncols for k in kmats], diffs, basis=None, validate=False)
    incl = ChainMap(inv, c, dict(enumerate(kmats)), validate=False)
    incl.coords = ChainMap(c, inv, dict(enumerate(pmats)), validate=False)
    return inv, incl


def _orbit_sums(d: Mat, rows, slot, ncols: int, what: str) -> Mat:
    """The x with K x = d K for K the orbit sums: row t of d K is row t of d
    summed over each column orbit, slot[i] being i's, and must not vary along a row orbit."""
    ring, sums = d.ring, []
    for row in d.rows:
        s = [ring.zero] * ncols
        for i in compress(range(d.ncols), row):
            s[slot[i]] += row[i]
        sums.append(ring.reduce(s))
    if any(sums[t] != sums[orbit[0]] for orbit in rows for t in orbit[1:]):
        raise InternalError(what)
    return Mat(ring, len(rows), ncols, [sums[orbit[0]] for orbit in rows],
               normalize=False)


def _through(k: Mat, p: Mat, m: Mat, what: str) -> Mat:
    """The x with k x = m, read off as p m (p k = 1); raises unless k x = m."""
    x = p @ m
    if k @ x != m:
        raise InternalError(what)
    return x


def corestrict(f: ChainMap, incl: ChainMap) -> ChainMap:
    """g = coords o f, checked to satisfy incl o g = f; incl is from ``invariants``.
    If f, incl and coords are maps of bases, so is g, read off the tuples."""
    p, degrees = incl.coords, range(incl.target.top + 1)
    what = "the map does not factor through the inclusion in degree {}"
    if None not in (f.sel, incl.sel, getattr(p, "sel", None)):
        g = compose_chain_maps(p, f)
        back = compose_chain_maps(incl, g).sel
        for n in degrees:
            if back.get(n, ()) != f.sel.get(n, ()):
                raise InternalError(what.format(n))
        return g
    mats = {n: _through(incl.mat(n), p[n], f.mat(n), what.format(n)) for n in degrees}
    # incl g = f exactly and incl is injective, so g is a chain map
    return ChainMap(f.source, incl.source, mats, validate=False)


def restrict_to_invariants(cf: ChainMap, h: Subgroup) -> ChainMap:
    """The induced map between H-invariant subcomplexes of an equivariant map."""
    return corestrict(compose_chain_maps(cf, invariants(cf.source, h)[1]),
                      invariants(cf.target, h)[1])


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologyGroup:
    degree: int
    free_rank: int
    torsion: tuple[int, ...] = ()

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def text(self, ring_name: str = "Z") -> str:
        parts = []
        if self.free_rank == 1:
            parts.append(ring_name)
        elif self.free_rank > 1:
            parts.append(f"{ring_name}^{self.free_rank}")
        parts.extend(f"{ring_name}/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology(c: ChainComplex) -> list[HomologyGroup]:
    """Per-degree homology from Smith diagonals of consecutive differentials."""
    out = []
    diags = {n: smith_diagonal(c.d(n)) for n in range(1, c.top + 2)}
    for n in range(c.top + 1):
        # smith_diagonal lists only nonzero invariant factors, so its
        # length is the rank of the differential
        r_in = len(diags.get(n, ()))
        nxt = diags.get(n + 1, ())
        free = c.rank(n) - r_in - len(nxt)
        torsion = () if c.ring.is_field else tuple(int(v) for v in nxt if v != 1)
        out.append(HomologyGroup(n, free, torsion))
    return out


def is_acyclic(c: ChainComplex) -> bool:
    return all(h.is_zero() for h in homology(c))


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone(f)_n = target_n + source_{n-1}, d(y, x) = (dy + fx, -dx)."""
    ring = f.source.ring
    src, tgt = f.source, f.target
    top = max(tgt.top, src.top + 1)
    ranks = [tgt.rank(n) + src.rank(n - 1) for n in range(top + 1)]
    diffs = {}
    for n in range(1, top + 1):
        rows = [r + s for r, s in zip(tgt.d(n).rows, f.mat(n - 1).rows)]
        rows += [[ring.zero] * tgt.rank(n) + r for r in (-src.d(n - 1)).rows]
        diffs[n] = Mat(ring, ranks[n - 1], ranks[n], rows, normalize=False)
    # d^2 = 0 because f is a chain map
    return ChainComplex(ring, ranks, diffs, validate=False)


def is_quasi_iso(f: ChainMap) -> bool:
    """True iff the mapping cone is acyclic (iso on all homology groups)."""
    return is_acyclic(mapping_cone(f))


# ---------------------------------------------------------------------------
# the interval shuffle homotopy


class SignConventionError(InternalError):
    """The prism identity failed; signals an internal sign bug, never user error."""


def prism_homotopy(hc: ChainMap, pr: Prism) -> ChainHomotopy:
    """Extract the chain homotopy carried by a map off the prism of x.

    ``hc`` starts at the normalized chains of ``pr.product``, and x is
    ``pr.end0.source``.  Composes hc with the interval part of the shuffle
    map: the degree-1 generator of the interval pairs a nondegenerate
    n-simplex with the middle cells (s_j x, eta_j), summed with sign
    (-1)^j.  The returned phi satisfies  d phi + phi d = (hc o end1) -
    (hc o end0)  exactly; this identity is re-verified on every call.
    """
    cprod = hc.source
    ring = cprod.ring
    if cprod.basis != _basis(pr.product):
        raise ValueError("homotopy source is not the chains of the prism")
    cx = normalized_chains(pr.end0.source, ring)
    z = hc.target
    index = [{s: i for i, s in enumerate(b)} for b in cprod.basis]
    mats = {}
    for n in range(cx.top + 1):
        shuffle = [[ring.zero] * cx.rank(n) for _ in range(cprod.rank(n + 1))]
        for col, s in enumerate(cx.basis[n]):
            for j in range(n + 1):  # the middle cell (s_j x, eta_j), with sign (-1)^j
                row = shuffle[index[n + 1][pr.mid_id[(s, j)]]]
                row[col] += ring.one if j % 2 == 0 else -ring.one
        mats[n] = hc.mat(n + 1) @ Mat(ring, cprod.rank(n + 1), cx.rank(n), shuffle)
    f0 = compose_chain_maps(hc, normalized_chain_map(pr.end0, ring, cx, cprod))
    f1 = compose_chain_maps(hc, normalized_chain_map(pr.end1, ring, cx, cprod))
    phi = ChainHomotopy(cx, z, mats)
    bad = homotopy_defect(phi, f0, f1)
    if bad:
        raise SignConventionError(
            f"prism identity d*phi + phi*d = end1 - end0 fails in degrees {bad}")
    if hc.equivariant and z.group is not None and cx.group == z.group:
        phi.equivariant = equivariance_defect(z, cx, phi.mat, range(cx.top + 1), 1,
                                              cx.group.generators) is None
    return phi

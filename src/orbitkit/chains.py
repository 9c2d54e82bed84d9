"""Chain complexes over Z, Q, F_p, with a group permuting their bases.

Complexes are non-negatively graded, finitely generated free in each
degree, with exact entries throughout, in sparse ``Mat``s over the
complex's ring (a matrix over another ring is refused, naming its degree),
built from their nonzero entries and read through ``sparse_rows()``.  The
normalized chains of a
G-simplicial set have basis the nondegenerate simplices (identifier
order); faces that normalize to degenerate simplices contribute zero to
the differential.

A group acts on a complex in one way only: by permuting the basis of each
degree, stored as one G-set of basis indices per degree (``action``, given
to the constructor; the complex's group is theirs).  Chains of G-sets,
G-simplicial sets, cells G/K (x) c and orbit diagrams whose maps at G/e
permute the basis all act so.  Invariants are orbit sums, and d on them is
read off d's rows summed over orbits.  Whether a matrix commutes with the
actions is decided by ``equivariance_defect`` on index tuples.  Maps that
send basis vectors to basis vectors or to 0 (``ChainMap.of_bases``) keep
index tuples, and compose, compare and corestrict without matrices.

``orbit_reduction`` shrinks an equivariant complex before its
invariants are taken: it removes pairs of basis orbits whose block of d is
+-1 times an equivariant bijection, with a Schur complement on the rest of
d, so every C^H keeps its homology; ``homology --family`` reduces once and
then takes every subgroup's invariants.  It also returns an equivariant
strong deformation retraction (incl, proj, h) onto the reduced complex,
through which ``whitehead`` carries certificates solved on reduced ends
back to the full ones; under the trivial group each orbit is one basis
vector, and only a complex without an action is left as it is.  The mapping
cone of an equivariant map carries the sum action, so (cone f)^H = cone(f^H)
can be reduced once for every H.

Sign conventions are pinned by the verified identities rather than chosen
in the abstract: d is the alternating face sum, the cone differential is
d(y, x) = (dy + fx, -dx), and the interval shuffle homotopy built by
``prism_homotopy`` satisfies  d phi + phi d = (hc o end1) - (hc o end0)
exactly (checked on every call; a failure raises instead of returning).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple

from .errors import InternalError
from .exactla import Mat, smith_diagonal
from .groups import Subgroup
from .gsets import GSet, orbits, validate_gset
from .simplicial import GSSet, Prism, SMap


class ChainComplex:
    """Bounded complex of free modules; optionally with a group permuting its bases.

    ``action[n]``, when given, is the G-set of basis indices in degree n:
    element g sends basis vector i to basis vector ``action[n].act[g][i]``.
    The complex's ``group`` is G, or None without an action.
    """

    def __init__(self, ring, ranks, diffs, action=None, basis=None, validate: bool = True):
        self.ring = ring
        self.ranks = tuple(int(r) for r in ranks)
        if not self.ranks:
            self.ranks = (0,)
        self.top = len(self.ranks) - 1
        self._d = {int(n): m for n, m in dict(diffs).items()}
        self.action = None if action is None else tuple(action)
        self.group = self.action[0].group if self.action else None
        self.basis = basis  # per-degree simplex ids, when built from a GSSet
        if validate:
            self.validate()

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.top else 0

    def d(self, n: int) -> Mat:
        m = self._d.get(n)
        if m is None:
            return Mat(self.ring, self.rank(n - 1), self.rank(n))
        return m

    @property
    def equivariant(self) -> bool:
        return self.group is not None

    def validate(self):
        for n, r in enumerate(self.ranks):
            if r < 0:
                raise ValueError(f"negative rank {r} in degree {n}")
        for n in range(1, self.top + 1):
            _check(self.d(n), self.rank(n - 1), self.rank(n), self.ring, f"differential d_{n}")
        for n in sorted(self._d):
            if not 1 <= n <= self.top:
                raise ValueError(f"differential in illegal degree {n}")
        for n in range(2, self.top + 1):
            if not (self.d(n - 1) @ self.d(n)).is_zero():
                raise ValueError(f"d_{n - 1} d_{n} != 0")
        if self.action is None:
            return  # no action to check
        if len(self.action) != self.top + 1:
            raise ValueError("need one permutation action per degree")
        for n, x in enumerate(self.action):
            if x.group != self.group or x.size != self.rank(n):
                raise ValueError(f"action in degree {n} has the wrong shape")
            validate_gset(x)
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
        f = cls.__new__(cls)  # as __init__ with no matrices and no validation
        f.source, f.target, f._mats, f.sel, f.equivariant = source, target, {}, sel, False
        return f

    def mat(self, n: int) -> Mat:
        m = self._mats.get(n)
        if m is None:
            ring, shape = self.source.ring, (self.target.rank(n), self.source.rank(n))
            if self.sel is None or n not in self.sel:
                return Mat(ring, *shape)
            m = self._mats[n] = Mat(ring, *shape, [{} if j is None else {j: ring.one}
                                                   for j in self.sel[n]], normalize=False)
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
            _check(self.mat(n), self.target.rank(n), self.source.rank(n), self.source.ring,
                   f"chain map matrix in degree {n}")
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
            _check(m, target.rank(n + 1), source.rank(n), source.ring,
                   f"homotopy matrix in degree {n}")

    def mat(self, n: int) -> Mat:
        m = self._mats.get(n)
        if m is None:
            return Mat(self.source.ring, self.target.rank(n + 1), self.source.rank(n))
        return m


def _check(m: Mat, nrows: int, ncols: int, ring, what: str):
    """Refuses m unless it is an nrows x ncols matrix over ring."""
    if m.ring != ring or (m.nrows, m.ncols) != (nrows, ncols):
        raise ValueError(f"{what} has shape {m.nrows}x{m.ncols} over {m.ring}, "
                         f"want {nrows}x{ncols} over {ring}")


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


def composes_to(second: ChainMap, first: ChainMap, h: ChainMap) -> bool:
    """``chain_maps_equal(h, compose_chain_maps(second, first))``, read off the
    index tuples when all three are maps of bases and h starts where first does."""
    s, f, hs, src = second.sel, first.sel, h.sel, first.source
    if s is None or f is None or hs is None or not (
            h.source is src or h.source.ring == src.ring and h.source.ranks == src.ranks):
        return chain_maps_equal(h, compose_chain_maps(second, first))
    for n in range(max(h.top, src.top, second.target.top) + 1):
        if hs.get(n, ()) != _then(s.get(n, ()), f.get(n, ())):
            return False
    return True


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

    With a acting by p on out_{n+shift} and by q on into_n, entry (p[i], q[j])
    must equal entry (i, j) at each nonzero entry, hence at every entry, as
    (i, j) -> (p[i], q[j]) is a bijection.
    """
    for n in degrees:
        m = mat(n)
        if not m.nrows or not m.ncols:
            continue
        rows, ps, qs = m.sparse_rows(), out.action[n + shift].act, into.action[n].act
        nonzero = [(i, j, v) for i, row in enumerate(rows) for j, v in row.items()]
        bad = next((a for a in elements
                    if any(rows[ps[a][i]].get(qs[a][j]) != v for i, j, v in nonzero)), None)
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
        rows = [{} for _ in range(ranks[n - 1])]
        for j, s in enumerate(basis[n]):
            for i in range(n + 1):
                ref = x.face(s, i)
                if not ref.degenerate:
                    row = rows[index[n - 1][ref.base]]
                    row[j] = row.get(j, 0) + (1 if i % 2 == 0 else -1)
        diffs[n] = Mat(ring, ranks[n - 1], ranks[n], [ring.nonzero(r) for r in rows],
                       normalize=False)
    # d∘d = 0 and the action laws follow from the validated G-sset x
    action = [GSet(x.group, ranks[n], tuple(tuple(index[n][x.action[g][s]] for s in basis[n])
                                            for g in x.group.elements()))
              for n in range(top + 1)]
    return ChainComplex(ring, ranks, diffs, action, basis=basis, validate=False)


def normalized_chain_map(f: SMap, ring, cx: ChainComplex | None = None,
                         cy: ChainComplex | None = None) -> ChainMap:
    """The induced map on normalized chains (a simplex sent to a degenerate one goes to zero)."""
    cx = cx or normalized_chains(f.source, ring)
    cy = cy or normalized_chains(f.target, ring)
    index_y = [{s: i for i, s in enumerate(b)} for b in cy.basis]
    mats = {}
    for n in range(max(cx.top, cy.top) + 1):
        rows = [{} for _ in range(cy.rank(n))]
        for j, s in enumerate(cx.basis[n] if n <= cx.top else ()):
            ref = f.values[s]
            if not ref.degenerate:
                rows[index_y[n][ref.base]][j] = ring.one
        mats[n] = Mat(ring, cy.rank(n), cx.rank(n), rows, normalize=False)
    return ChainMap(cx, cy, mats)


# ---------------------------------------------------------------------------
# invariants


def invariants(c: ChainComplex, h: Subgroup) -> tuple[ChainComplex, ChainMap]:
    """Degreewise kernel of (rho(g) - id | g in H), with comparison map.

    Its basis is the H-orbit sums, sorted by least index.  The inclusion K
    sends each index to its orbit and carries a left inverse P =
    ``incl.coords``, which picks each orbit's least index (a ``ChainMap``
    that need not commute with d); both are maps of bases.  d' = P d K is
    read off d's rows summed over orbits, and K d' = d K is checked.
    """
    if c.group is None:
        raise ValueError("invariants need an equivariant complex")
    if h.parent != c.group:
        raise ValueError("subgroup of a different group")
    if h.is_trivial():
        plain = c.forget_action()
        ids = {n: tuple(range(c.rank(n))) for n in range(c.top + 1)}
        incl = ChainMap.of_bases(plain, c, ids)
        incl.coords = ChainMap.of_bases(c, plain, ids)
        return plain, incl
    what = "the differential must restrict to the invariant subcomplex"
    orbs = [orbits(c.action[n].act, h.members) for n in range(c.top + 1)]
    slots = {n: tuple(j for _, j in sorted((i, j) for j, o in enumerate(os) for i in o))
             for n, os in enumerate(orbs)}  # slots[n][i]: the orbit of i
    diffs = {n: _orbit_sums(c.d(n), orbs[n - 1], slots[n], len(orbs[n]), what)
             for n in range(1, c.top + 1)}
    inv = ChainComplex(c.ring, [len(os) for os in orbs], diffs, validate=False)
    incl = ChainMap.of_bases(inv, c, slots)
    incl.coords = ChainMap.of_bases(c, inv, {n: tuple(o[0] for o in os)
                                             for n, os in enumerate(orbs)})
    return inv, incl


def fixed_chains(c: ChainComplex, h: Subgroup) -> ChainComplex:
    """The subcomplex of c on the basis vectors that H's generators fix, without an action,
    up to the top degree keeping one (0 if none): C(X^H) for c = C(X), as X^H keeps X's ids
    and faces.  ``c.forget_action()`` when H moves no vector; raises if d moves one out."""
    if h.parent != c.group:
        raise ValueError("subgroup of a different group")
    keep = [range(r) for r in c.ranks]
    for g in h.generators:
        keep = [[i for i in k if x.act[g][i] == i] for k, x in zip(keep, c.action)]
    if sum(map(len, keep)) == sum(c.ranks):
        return c.forget_action()
    top = max((n for n, k in enumerate(keep) if k), default=0)
    pos = [{i: p for p, i in enumerate(k)} for k in keep]
    diffs = {}
    for n in range(1, top + 1):  # d restricts to the fixed vectors, so d^2 = 0 there
        cols = pos[n]
        sub = [{cols[j]: x for j, x in row.items() if j in cols} for row in c.d(n).sparse_rows()]
        if cols and any(r for i, r in enumerate(sub) if i not in pos[n - 1]):
            raise InternalError(f"d_{n} takes a fixed basis vector out of the fixed subcomplex")
        diffs[n] = Mat(c.ring, len(keep[n - 1]), len(cols), [sub[i] for i in keep[n - 1]],
                       normalize=False)
    return ChainComplex(c.ring, [len(k) for k in keep[:top + 1]], diffs, validate=False)


def orbit_reduction(c: ChainComplex):
    """A smaller complex r with the same homology of C^H for every subgroup H,
    and an equivariant strong deformation retraction of c onto it.

    Returns (r, incl, proj, h): chain maps incl: r -> c and proj: c -> r and
    a homotopy h on c with proj incl = 1 and incl proj - 1 = d h + h d.
    From the top degree down, removes pairs of basis orbits, A in degree n
    and B in degree n-1, whose block of d_n is v times an equivariant
    bijection A -> B with v^2 = 1: column A[0] has one nonzero entry v in
    B's rows and |A| = |B|, so g a -> g b is well defined and onto, d being
    equivariant.  The rest of d_n becomes its Schur complement, d_{n+1} loses
    the rows of A and d_{n-1} the columns of B.  Each removal splits off an
    equivariantly contractible summand, so it restricts to every C^H
    (Kaczynski, Mrozek and Slusarek 1998; Freij 2009).  Each pair (a, b) of
    the orbits, d_n[b, a] = v on the current d, is one elementary retraction:
    incl sends each kept x in degree n to x - v d(x)[b] a, proj sends y in
    degree n-1 to y - v y[b] d(a), and h sends b to -v a.  The steps compose
    as incl = incl_1 incl_2, proj = proj_2 proj_1, h = h_1 + incl_1 h_2 proj_1:
    incl is read off the chains the Schur update subtracts, and proj and h at
    each b by forward substitution through the later pairs of its degree.
    Whole orbits are removed at once, so incl, proj and h are equivariant.
    Their matrices are built when one of them is first read, so callers that
    need only r (``homology --family``, hypothesis (a)) do not pay for them.
    Without a group, or when no pair is removed, r is c itself and the
    retraction is the identity; under the trivial group every orbit is one
    basis vector, and pairs are removed one at a time.
    """
    if c.group is None or not c.top:
        return _identity_retraction(c)
    ring, one = c.ring, c.ring.one
    orbs = [orbits(x.act, c.group.elements()) for x in c.action]
    gone = [set() for _ in orbs]  # removed indices per degree
    cols = {}  # cols[n][j]: column j of d_n, as {row: entry}
    chains = {}  # chains[n][j]: the chain whose boundary is cols[n][j], when not j itself
    steps = {}  # steps[n]: (b, v, column, chain) of each removed pair (a, b), in order
    for n in range(c.top, 0, -1):
        cols[n] = {j: {} for j in range(c.rank(n)) if j not in gone[n]}
        for i, row in enumerate(c.d(n).sparse_rows()):
            for j, x in row.items():
                if j in cols[n]:
                    cols[n][j][i] = x
        orbit_of = {i: k for k, o in enumerate(orbs[n - 1]) for i in o}
        chain = chains[n] = {}
        steps[n] = []
        for a_orb in orbs[n]:
            col = cols[n].get(a_orb[0])
            if col is None:
                continue
            hits = {}  # orbit of rows -> col's rows in it
            for i in col:
                hits.setdefault(orbit_of[i], []).append(i)
            b = next((rows[0] for k, rows in hits.items() if len(rows) == 1
                      and len(orbs[n - 1][k]) == len(a_orb)
                      and ring.normalize(col[rows[0]] ** 2) == ring.one), None)
            if b is None:
                continue
            v, kb = col[b], orbit_of[b]
            pair = {}  # b' -> column and chain at the a' with d_n[b', a'] = v
            for a in a_orb:
                ca = cols[n].pop(a)
                b_ = next(i for i in ca if orbit_of[i] == kb)
                pair[b_] = ca, chain.pop(a, None) or {a: one}
                steps[n].append((b_, v, *pair[b_]))
            for j, cj in cols[n].items():
                hit = [(i, w) for i, w in cj.items() if orbit_of[i] == kb]
                if not hit:
                    continue
                chj = chain.get(j) or chain.setdefault(j, {j: one})
                for i, w in hit:  # subtract w v times the column paired with i: row i clears
                    ca, cha = pair[i]
                    wv = w * v
                    for r, x in ca.items():
                        cj[r] = cj.get(r, 0) - wv * x
                    for r, x in cha.items():  # and its chain from j's
                        chj[r] = chj.get(r, 0) - wv * x
                cols[n][j] = ring.nonzero(cj)
            gone[n].update(a_orb)
            gone[n - 1].update(orbs[n - 1][kb])
    if not any(gone):
        return _identity_retraction(c)
    kept = [[i for i in range(r) if i not in g] for r, g in zip(c.ranks, gone)]
    pos = [{i: k for k, i in enumerate(ks)} for ks in kept]
    diffs = {}
    for n in range(1, c.top + 1):
        rows = [{} for _ in kept[n - 1]]
        for k, j in enumerate(kept[n]):
            for i, x in cols[n][j].items():
                if i in pos[n - 1]:  # rows paired downwards are dropped
                    rows[pos[n - 1][i]][k] = x
        diffs[n] = Mat(ring, len(kept[n - 1]), len(kept[n]), rows, normalize=False)
    # d'd' = 0 by the Schur identities; the kept orbits are G-sets
    out = ChainComplex(ring, [len(k) for k in kept], diffs,
                       [GSet(c.group, len(ks), tuple(tuple(p[act[i]] for i in ks)
                                                     for act in x.act))
                        for x, ks, p in zip(c.action, kept, pos)], validate=False)
    maps = (ChainMap(out, c, {}, validate=False), ChainMap(c, out, {}, validate=False),
            ChainHomotopy(c, c, {}))  # incl, proj and h

    def build():
        for f, mats in zip(maps, _retraction_matrices(c, kept, pos, chains, steps)):
            f._mats = mats

    for f in maps:
        f._mats, f.equivariant = _Deferred(f, build), True
    return (out, *maps)


def _identity_retraction(c: ChainComplex):
    """c itself, with the identity retraction (incl = proj = 1, h = 0)."""
    return c, identity_chain_map(c), identity_chain_map(c), ChainHomotopy(c, c, {})


class _Deferred:
    """Stands in for the matrices of ``owner``, one of ``orbit_reduction``'s
    retraction maps, until one is looked up; ``build`` then gives all three
    maps their matrices."""

    __slots__ = ("owner", "build")

    def __init__(self, owner, build):
        self.owner, self.build = owner, build

    def get(self, n, default=None):
        self.build()
        return self.owner._mats.get(n, default)


def _retraction_matrices(c, kept, pos, chains, steps) -> tuple[dict, dict, dict]:
    """The matrices of incl, proj and h by degree, from ``orbit_reduction``'s
    record: the kept indices and their positions, the chains of the kept columns
    and the removed pairs of each degree."""
    ring, one = c.ring, c.ring.one
    incl, proj, h = {}, {}, {}
    act = [x.act for x in c.action] + [None]
    for n, (ks, p) in enumerate(zip(kept, pos)):
        rows_i = [{} for _ in range(c.rank(n))]
        rows_p = [{j: one} for j in ks]
        rows_h = [{} for _ in range(c.rank(n + 1))]
        for k, j in enumerate(ks):
            for i, x in ring.nonzero(chains.get(n, {}).get(j, {j: one})).items():
                rows_i[i][k] = x
        later = {b: k for k, (b, *_) in enumerate(steps.get(n + 1, ()))}
        done = set()
        for b0 in later:  # one substitution per orbit, carried to the rest by the action
            if b0 in done:
                continue
            y, u = _substitute(ring, steps[n + 1], later, b0)
            for here, up in zip(act[n], act[n + 1]):
                b = here[b0]
                if b not in done:
                    done.add(b)
                    for i, x in y.items():
                        if i in p:
                            rows_p[p[here[i]]][b] = x
                    for i, x in u.items():
                        rows_h[up[i]][b] = x
        incl[n] = Mat(ring, c.rank(n), len(ks), rows_i, normalize=False)
        proj[n] = Mat(ring, len(ks), c.rank(n), rows_p, normalize=False)
        h[n] = Mat(ring, c.rank(n + 1), c.rank(n), rows_h, normalize=False)
    return incl, proj, h


def _substitute(ring, steps, order, b):
    """(y, u) for e_b with b removed in pair ``order[b]`` of ``steps``: each pair
    (b_k, v_k, column, chain) from there on, in order, takes w = v_k y[b_k] off y
    as w times its column and puts -w times its chain on u, so y = proj(e_b) on
    the kept rows and u = h(e_b)."""
    y, u = {b: ring.one}, {}
    queue, queued = [order[b]], {order[b]}
    while queue:
        bk, v, col, chain = steps[heappop(queue)]
        w = ring.normalize(v * y.pop(bk, 0))
        if not w:
            continue
        for r, x in col.items():
            if r != bk:  # y[b_k] - w v = 0, as v^2 = 1
                y[r] = y.get(r, 0) - w * x
                k = order.get(r)
                if k is not None and k not in queued:
                    queued.add(k)
                    heappush(queue, k)
        for r, x in chain.items():
            u[r] = u.get(r, 0) - w * x
    return ring.nonzero(y), ring.nonzero(u)


def _orbit_sums(d: Mat, rows, slot, ncols: int, what: str) -> Mat:
    """The x with K x = d K for K the orbit sums: row t of d K is row t of d
    summed over each column orbit, slot[i] being i's, and must not vary along a row orbit."""
    sums = []
    for row in d.sparse_rows():
        s = {}
        for i, x in row.items():
            s[slot[i]] = s.get(slot[i], 0) + x
        sums.append(d.ring.nonzero(s))
    if any(sums[t] != sums[orbit[0]] for orbit in rows for t in orbit[1:]):
        raise InternalError(what)
    return Mat(d.ring, len(rows), ncols, [sums[orbit[0]] for orbit in rows],
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
        for n in degrees:  # incl o g = f, read off the tuples
            if _then(incl.sel.get(n, ()), g.sel.get(n, ())) != f.sel.get(n, ()):
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


class HomologyGroup(NamedTuple):
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
    """cone(f)_n = target_n + source_{n-1}, d(y, x) = (dy + fx, -dx); with the sum action
    (source_{n-1} shifted by rank(target_n)) for f equivariant, as every f is under e."""
    ring = f.source.ring
    src, tgt = f.source, f.target
    top = max(tgt.top, src.top + 1)
    ranks = [tgt.rank(n) + src.rank(n - 1) for n in range(top + 1)]
    diffs = {}
    for n in range(1, top + 1):
        t = tgt.rank(n)
        rows = [r | {t + j: x for j, x in s.items()} if s else r
                for r, s in zip(tgt.d(n).sparse_rows(), f.mat(n - 1).sparse_rows())]
        rows += [ring.nonzero({t + j: -x for j, x in r.items()})
                 for r in src.d(n - 1).sparse_rows()]
        diffs[n] = Mat(ring, ranks[n - 1], ranks[n], rows, normalize=False)
    action = None
    if src.group is not None and tgt.group is not None and (
            f.equivariant or src.group.order == tgt.group.order == 1):
        def act(c, n):
            return c.action[n].act if 0 <= n <= c.top else ((),) * c.group.order
        action = [GSet(src.group, r, tuple(y + tuple(tgt.rank(n) + i for i in x)
                                           for y, x in zip(act(tgt, n), act(src, n - 1))))
                  for n, r in enumerate(ranks)]
    # d^2 = 0 because f is a chain map, and d commutes with the sum action as f does
    return ChainComplex(ring, ranks, diffs, action, validate=False)


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
        shuffle = [{} for _ in range(cprod.rank(n + 1))]
        for col, s in enumerate(cx.basis[n]):
            for j in range(n + 1):  # the middle cell (s_j x, eta_j), with sign (-1)^j
                row = shuffle[index[n + 1][pr.mid_id[(s, j)]]]
                row[col] = row.get(col, 0) + (1 if j % 2 == 0 else -1)
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

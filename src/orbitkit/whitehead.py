"""Chain-level homotopy-equivalence certificates for equivariant maps.

Given an equivariant chain map f, a certificate is explicit data
(g, s, t): a backward equivariant chain map with homotopies witnessing
f*g ~ id and g*f ~ id, all commuting with the group representations.
f has one exactly when its mapping cone is equivariantly contractible, so
the search solves for one contraction of the orbit-reduced cone
(``chains.orbit_reduction``), carries it back through the cone's
equivariant deformation retraction and reads (g, s, t) off its blocks.  It
solves in equivariant coordinates.  Each block of the contraction is a
combination of a basis of equivariant matrices: one indicator per G-orbit
of index pairs, since Hom_{ZG}(Z[X], Z[Y]) is free on the G-orbits of
Y x X (from stabilizers: the G_y-orbits of X, y least in its G-orbit);
with no group, as under the trivial one, the elementary matrices.  Either
way each entry of a block is one unknown.  The contraction equations are
linear in these coordinates, and their residuals are equivariant, so they
are imposed at one index pair per orbit only.
One exact solve from the system's sparse rows, on every ring
(Hermite-style over Z and Q, Gauss-Jordan over F_p), then either produces
a certificate or proves that none exists over the ring; no system is
solved when the reduced cone is 0.  The certificate is re-verified on f's
own complexes against the full identities, equivariance on the group's
generators (the actions are homomorphisms), before it is returned.  Over Z
a failure does not rule out a rational certificate; query the rings separately.

``whitehead_verify`` packages the hypothesis checks for a simplicial map:
isotropy of all simplices against the family, quasi-isomorphy of the
invariant subcomplexes (route (a)) and of the chains of fixed-point
subcomplexes (route (b)), then attempts the certificate.  f's equivariant
cone is built once.  Reduced, it serves route (a), as (cone f)^H = cone(f^H),
and the certificate search; route (b) reads cone(f^H) off it unreduced, on
the H-fixed basis (``chains.fixed_chains``), so each route decides on its own cone.
"""

from __future__ import annotations

from typing import NamedTuple

from .chains import ChainHomotopy, ChainMap, compose_chain_maps, equivariance_defect, \
    fixed_chains, homotopy_defect, identity_chain_map, invariants, is_acyclic, mapping_cone, \
    normalized_chain_map, orbit_reduction
from .errors import InternalError
from .exactla import Mat, solve_exact
from .groups import conjugating_element
from .gsets import orbits, stabilizer
from .simplicial import SMap

# a size bound on rows x unknowns of the system on the orbit-reduced cone (the whole
# cone for complexes without an action); every system stays sparse
MAX_CELLS = 2_500_000


class Certificate(NamedTuple):
    backward: ChainMap                 # g : D -> C
    forward_homotopy: ChainHomotopy    # s : f g - id_D = d s + s d
    backward_homotopy: ChainHomotopy   # t : g f - id_C = d t + t d

    def to_json(self) -> dict:
        top = max(self.backward.source.top, self.backward.target.top)
        return {key: {str(n): m.mat(n).to_json() for n in range(top + 1)}
                for key, m in zip("gst", self)}  # g, s and t, in field order


def verify_certificate(cert: Certificate, cf: ChainMap) -> bool:
    """Re-check every certificate identity by exact arithmetic on cf's own complexes:
    the shape of every block, the chain-map law for g, both homotopies, and
    equivariance of g, s and t under the group's generators."""
    src, tgt = cf.source, cf.target
    degrees = range(max(src.top, tgt.top) + 1)
    try:  # the constructors refuse a wrong shape, and ChainMap a g off the chain-map law
        g = ChainMap(tgt, src, {n: cert.backward.mat(n) for n in degrees})
        s, t = (ChainHomotopy(c, c, {n: h.mat(n) for n in degrees})
                for c, h in ((tgt, cert.forward_homotopy), (src, cert.backward_homotopy)))
    except ValueError:
        return False
    if homotopy_defect(s, identity_chain_map(tgt), compose_chain_maps(cf, g)) \
            or homotopy_defect(t, identity_chain_map(src), compose_chain_maps(g, cf)):
        return False
    return src.group is None or tgt.group is None or g.equivariant and all(  # ChainMap checked g
        equivariance_defect(c, c, h.mat, degrees, 1, src.group.generators) is None
        for c, h in ((tgt, s), (src, t)))


class _LinearSystem:
    """Equations over a ring, sparse rows indexed by integer unknowns, and their
    right-hand sides."""

    def __init__(self, ring, n_unknowns: int):
        self.ring, self.n_unknowns = ring, n_unknowns
        self.equations, self.rhs = [], []

    def solve(self):
        """One solution, as a list by unknown, or None; refuses a system over ``MAX_CELLS``."""
        nrows, ncols, ring = len(self.equations), self.n_unknowns, self.ring
        cells = nrows * ncols
        if cells > MAX_CELLS:
            raise ValueError(f"{nrows} rows x {ncols} unknowns = "
                             f"{cells} cells exceed the cap {MAX_CELLS}")
        sol = solve_exact(Mat(ring, nrows, ncols, self.equations, normalize=False),
                          Mat(ring, nrows, 1, [{0: r} if r else {} for r in self.rhs],
                              normalize=False))
        return None if sol is None else [row.get(0, ring.zero) for row in sol.sparse_rows()]

    def add_equations(self, terms, positions, diagonal: bool = False):
        """Rows of sum(A @ X @ B over terms) = (id if diagonal else 0).

        ``terms`` holds triples (A, X, B) with X an unknown block; one row
        is added per entry (i, j) in ``positions`` that is not trivially
        0 = 0.  Entry (i, j) of A X B is the sum of A[i][p] X[p][q] B[q][j],
        and X[p][q] is the block's unknown at (p, q).
        """
        ring = self.ring
        sparse = []
        for a, x, b in terms:
            if x.coords:
                bcols = [[] for _ in range(b.ncols)]
                for q, row in enumerate(b.sparse_rows()):
                    for j, v in row.items():
                        bcols[j].append((q, v))
                sparse.append((a.sparse_rows(), x.ncols, x.coords, bcols))
        for i, j in positions:
            coeffs = {}
            for arows, ncols, coords, bcols in sparse:
                for p, av in arows[i].items():
                    for q, bv in bcols[j]:
                        k = coords[p * ncols + q]
                        coeffs[k] = coeffs.get(k, 0) + av * bv
            coeffs = ring.nonzero(coeffs)
            rhs = ring.one if diagonal and i == j else ring.zero
            if coeffs or rhs:
                self.equations.append(coeffs)
                self.rhs.append(rhs)


class _Block:
    """An unknown equivariant matrix in the coordinates of a basis.

    ``coords[p * ncols + q]`` is the unknown that is entry (p, q); the
    block uses ``size`` unknowns.
    """

    def __init__(self, nrows: int, ncols: int, coords: tuple, size: int):
        self.nrows, self.ncols, self.coords, self.size = nrows, ncols, coords, size

    def value(self, ring, solution) -> Mat:
        c, coords = self.ncols, self.coords
        return Mat(ring, self.nrows, c, [
            {q: v for q in range(c) for v in [solution[coords[p * c + q]]] if v}
            for p in range(self.nrows)], normalize=False)


def _pair_orbits(x, y) -> list[tuple[int, ...]]:
    """G-orbits of the pairs (p, q) of G-sets x, y, as p * |y| + q, as ``orbits`` gives
    them on the product: for p least in its G-orbit and q least in its G_p-orbit,
    {(a p, a q) : a in G} is the orbit with least pair (p, q)."""
    elements, c = x.group.elements(), y.size
    return [tuple(sorted({x.act[a][p] * c + y.act[a][q] for a in elements}))
            for (p, *_) in orbits(x.act, elements)
            for (q, *_) in orbits(y.act, stabilizer(x.group, x.act, p).members)]


def _shared_pair_orbits(memo: dict, left, ln, right, rn) -> list[tuple[int, ...]]:
    """``_pair_orbits`` of the actions on left_ln and right_rn, computed once per
    pair of G-sets: ``memo`` is shared by one search's ``_positions`` and ``_block``."""
    x, y = left.action[ln], right.action[rn]
    key = x.act, y.act
    found = memo.get(key)
    if found is None:
        found = memo[key] = _pair_orbits(x, y)
    return found


def _positions(group, left, ln, right, rn, memo: dict):
    """Entries at which an equivariant left_ln x right_rn residual must vanish."""
    if group is None or not left.rank(ln) or not right.rank(rn):
        return [(i, j) for i in range(left.rank(ln)) for j in range(right.rank(rn))]
    return [divmod(o[0], right.rank(rn))
            for o in _shared_pair_orbits(memo, left, ln, right, rn)]


def _block(group, first: int, left, ln, right, rn, memo: dict) -> _Block:
    """A basis of the equivariant left_ln x right_rn matrices.

    Its unknowns are numbered from ``first``: one indicator per G-orbit of
    index pairs, or the elementary matrices with no group.
    """
    r, c = left.rank(ln), right.rank(rn)
    if group is None or not r or not c:
        return _Block(r, c, tuple(range(first, first + r * c)), r * c)
    coords = [None] * (r * c)
    pair_orbits = _shared_pair_orbits(memo, left, ln, right, rn)
    for k, orbit in enumerate(pair_orbits):
        for e in orbit:
            coords[e] = first + k
    return _Block(r, c, tuple(coords), len(pair_orbits))


def certificate_search(cf: ChainMap, reduced=None):
    """Solve for an equivariant homotopy inverse of cf, or return None.

    f: X -> Y is an equivariant homotopy equivalence exactly when its mapping
    cone, Y_n + X_{n-1} with d(y, x) = (dy + fx, -dx), is equivariantly
    contractible (Weibel 1994, 1.5 and Ch. 10).  The cone is orbit-reduced
    to r with retraction (incl, proj, h), given as ``reduced`` when the
    caller holds ``orbit_reduction(mapping_cone(cf))``; the unknowns are the
    coordinates of a contraction H' of r, d H' + H' d = 1, in bases of
    equivariant matrices.  H = incl H' proj - h then contracts the cone, as
    incl proj - 1 = d h + h d, and its blocks are the certificate:
    g_n = H_n[X_n, Y_n], s_n = -H_n[Y_{n+1}, Y_n] and t_{n-1} = H_n[X_n, X_{n-1}]
    satisfy the chain-map law, f g - 1 = d s + s d and g f - 1 = d t + t d.
    The certificate is re-verified on cf's own complexes.  r is contractible
    exactly when the cone is (proj H incl contracts r), so no solution means
    no certificate over the ring; over Z that is reported even if a rational
    certificate exists.
    """
    if not cf.equivariant and cf.source.group is not None \
            and cf.source.group.order > 1:
        raise ValueError("certificate search needs an equivariant chain map")
    r, incl, proj, h = reduced or orbit_reduction(mapping_cone(cf))
    contraction = _contraction(r)
    if contraction is None:
        return None
    if r is not incl.target:  # carried back to the cone
        contraction = {n: incl.mat(n + 1) @ m @ proj.mat(n) - h.mat(n)
                       for n, m in contraction.items()}
    try:  # the constructors refuse a block of the wrong shape, as in verify_certificate
        cert = _certificate(cf, contraction)
    except ValueError:
        cert = None
    if cert is None or not verify_certificate(cert, cf):
        raise InternalError("solver returned a certificate that fails re-verification")
    return cert


def _certificate(cf: ChainMap, contraction: dict) -> Certificate:
    """(g, s, t) read off a contraction H of cf's cone, Y_n + X_{n-1} in degree n:
    g_n = H_n[X_n, Y_n], s_n = -H_n[Y_{n+1}, Y_n] and t_{n-1} = H_n[X_n, X_{n-1}]."""
    src, tgt = cf.source, cf.target

    def part(n, x_rows, x_cols):
        """H_n on X_n's rows (else Y_{n+1}'s) and X_{n-1}'s columns (else Y_n's)."""
        y, y1 = tgt.rank(n), tgt.rank(n + 1)
        rows = contraction[n].sparse_rows()
        rows = rows[y1:] if x_rows else rows[:y1]
        return Mat(src.ring, len(rows), src.rank(n - 1) if x_cols else y,
                   [{j - y: v for j, v in row.items() if j >= y} if x_cols else
                    {j: v for j, v in row.items() if j < y} for row in rows], normalize=False)

    degrees = range(max(src.top, tgt.top) + 1)
    # verify_certificate checks g's chain-map law: a failure is a solver bug
    return Certificate(ChainMap(tgt, src, {n: part(n, True, False) for n in degrees},
                                validate=False),
                       ChainHomotopy(tgt, tgt, {n: -part(n, False, False) for n in degrees}),
                       ChainHomotopy(src, src, {n: part(n + 1, True, True) for n in degrees}))


def _contraction(r):
    """H' by degree with d H' + H' d = 1 on r, up to one past r's top, or None;
    no system is solved when r is 0."""
    ring, group = r.ring, r.group
    count, memo, blocks = 0, {}, {}
    for n in range(-1, r.top + 2):
        blocks[n] = _block(group, count, r, n + 1, r, n, memo)
        count += blocks[n].size
    system = _LinearSystem(ring, count)
    for n in range(r.top + 1):
        eye = Mat.identity(ring, r.rank(n))
        system.add_equations([(r.d(n + 1), blocks[n], eye), (eye, blocks[n - 1], r.d(n))],
                             _positions(group, r, n, r, n, memo), diagonal=True)
    solution = system.solve() if system.equations else []
    if solution is None:
        return None
    return {n: blocks[n].value(ring, solution) for n in range(r.top + 2)}


# ---------------------------------------------------------------------------
# the hypothesis checks for a simplicial map


class IsotropyReport(NamedTuple):
    ok_conjugate: bool
    ok_strict: bool
    witness: int | None = None

    def to_json(self):
        return {"subconjugate": self.ok_conjugate, "strict": self.ok_strict,
                "witness": self.witness}


class WhiteheadReport(NamedTuple):
    isotropy: IsotropyReport
    hyp_a: dict   # subgroup label -> bool
    hyp_b: dict
    certificate: Certificate | None
    searched: bool

    def failing_subgroups(self) -> list[str]:
        out = [lbl for lbl, ok in sorted(self.hyp_a.items()) if not ok]
        out += [lbl for lbl, ok in sorted(self.hyp_b.items()) if not ok]
        return sorted(set(out))

    def to_json(self) -> dict:
        return {
            "isotropy": self.isotropy.to_json(),
            "hyp_a": dict(sorted(self.hyp_a.items())),
            "hyp_b": dict(sorted(self.hyp_b.items())),
            "certificate": self.certificate.to_json() if self.certificate else None,
            "searched": self.searched,
        }


def isotropy_check(f: SMap, family) -> IsotropyReport:
    """All simplices of source and target have stabilizers in the family.

    Two readings are reported: stabilizer conjugate into some member
    (used for all decisions) and literal membership; the witness is the
    first simplex failing the conjugate reading.
    """
    fam = list(family)
    strict_members = {k.members for k in fam}
    conjugate = {}  # stabilizer -> whether it is conjugate into a member, decided once
    ok_s, witness = True, None
    for sset in (f.source, f.target):
        for s in sset.ids():  # in (dimension, id) order
            stab = stabilizer(sset.group, sset.action, s)
            if stab not in conjugate:
                conjugate[stab] = any(conjugating_element(stab, k) is not None for k in fam)
            ok_s = ok_s and stab.members in strict_members
            if witness is None and not conjugate[stab]:
                witness = s
    return IsotropyReport(witness is None, ok_s, witness)


def _invariant_quasi_isos(r, family) -> dict:
    """Hypothesis (a), label -> whether cf^H is a quasi-isomorphism, from r, the orbit
    reduction of cf's equivariant cone: (cone f)^H = cone(f^H), and the reduction keeps
    the homology of every C^H, so each H takes r's invariants."""
    if r.group is None:
        raise InternalError("the chain map of a simplicial G-map must be equivariant")
    return {h.label: is_acyclic(invariants(r, h)[0]) for h in family}


def whitehead_verify(f: SMap, family, ring) -> WhiteheadReport:
    """Hypothesis checks plus certificate search for a simplicial G-map.

    Hypothesis (a) passes for a subgroup H when the induced map of H-invariant
    subcomplexes is a quasi-isomorphism (one orbit-reduced cone serves every H);
    hypothesis (b) when the chains of the H-fixed simplicial subsets compare by
    a quasi-isomorphism, read for every H off the same cone, unreduced, on its
    H-fixed basis.
    When either hypothesis holds for every member of the family, the
    certificate search runs on the equivariant chain map, solved on the same
    orbit-reduced cone and re-verified on the full map.
    """
    if f.source.group != f.target.group:
        raise ValueError("whitehead_verify needs a common acting group")
    if not f.equivariant:
        raise ValueError("whitehead_verify needs an equivariant simplicial map")
    fam = list(family)
    isotropy = isotropy_check(f, fam)
    cf = normalized_chain_map(f, ring)
    cone = mapping_cone(cf)
    reduced = orbit_reduction(cone)
    hyp_a = _invariant_quasi_isos(reduced[0], fam)
    hyp_b = {h.label: is_acyclic(fixed_chains(cone, h)) for h in fam}  # cone(f^H), unreduced
    searched = all(hyp_a.values()) or all(hyp_b.values())
    return WhiteheadReport(isotropy, hyp_a, hyp_b,
                           certificate_search(cf, reduced) if searched else None, searched)

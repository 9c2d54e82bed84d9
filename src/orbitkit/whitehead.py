"""Chain-level homotopy-equivalence certificates for equivariant maps.

Given an equivariant chain map f, a certificate is explicit data
(g, s, t): a backward equivariant chain map with homotopies witnessing
f*g ~ id and g*f ~ id, all commuting with the group representations.
The search solves in equivariant coordinates.  Each block of g, s and t
is a combination of a basis of equivariant matrices: for permutation
actions one indicator per G-orbit of index pairs, since
Hom_{ZG}(Z[X], Z[Y]) is free on the G-orbits of Y x X; for matrix
actions a saturated kernel basis of the equivariance constraints; with no
group the elementary matrices.  The chain-map and homotopy equations are
linear in these coordinates, and their residuals are equivariant, so for
permutation actions they are imposed at one index pair per orbit only.
One exact solve (Hermite-style over Z and Q, elimination over F_p) then
either produces a certificate or proves that none of this shape exists
over the ring; the certificate is re-verified against the full identities
for every group element before it is returned.  Over Z a failure does not
rule out a rational certificate; query the rings separately.

``whitehead_verify`` packages the hypothesis checks for a simplicial map:
isotropy of all simplices against the family, quasi-isomorphy of the
invariant subcomplexes (one route) and of the chains of fixed-point
subcomplexes (an independent route), then attempts the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import ChainHomotopy, ChainMap, is_quasi_iso, \
    normalized_chain_map, normalized_chains, restrict_to_invariants
from .errors import InternalError
from .exactla import Mat, kernel_exact, solve_exact
from .groups import conjugating_element
from .gsets import orbits, product_gset, stabilizer
from .simplicial import SMap, fixed_sset

MAX_CELLS = 2_500_000  # rows x unknowns of one dense system (C8/e x Delta[3]: 2.1M)


@dataclass
class Certificate:
    backward: ChainMap                 # g : D -> C
    forward_homotopy: ChainHomotopy    # s : f g - id_D = d s + s d
    backward_homotopy: ChainHomotopy   # t : g f - id_C = d t + t d

    def to_json(self) -> dict:
        g = self.backward
        top = max(g.source.top, g.target.top)
        return {
            "g": {str(n): g.mat(n).to_json() for n in range(top + 1)},
            "s": {str(n): self.forward_homotopy.mat(n).to_json()
                  for n in range(top + 1)},
            "t": {str(n): self.backward_homotopy.mat(n).to_json()
                  for n in range(top + 1)},
        }


def verify_certificate(cert: Certificate, cf: ChainMap) -> bool:
    """Re-check every certificate identity by exact matrix arithmetic."""
    src, tgt = cf.source, cf.target
    ring = src.ring
    g, s, t = cert.backward, cert.forward_homotopy, cert.backward_homotopy
    if g.source is not tgt and g.source.ranks != tgt.ranks:
        return False
    if g.target is not src and g.target.ranks != src.ranks:
        return False
    top = max(src.top, tgt.top)
    for n in range(1, top + 1):
        if src.d(n) @ g.mat(n) != g.mat(n - 1) @ tgt.d(n):
            return False
    for n in range(top + 1):
        lhs = cf.mat(n) @ g.mat(n) - Mat.identity(ring, tgt.rank(n))
        rhs = tgt.d(n + 1) @ s.mat(n) + s.mat(n - 1) @ tgt.d(n)
        if lhs != rhs:
            return False
        lhs = g.mat(n) @ cf.mat(n) - Mat.identity(ring, src.rank(n))
        rhs = src.d(n + 1) @ t.mat(n) + t.mat(n - 1) @ src.d(n)
        if lhs != rhs:
            return False
    if src.group is not None and tgt.group is not None:
        for a in src.group.elements():
            for n in range(top + 1):
                if src.rep_mat(a, n) @ g.mat(n) != g.mat(n) @ tgt.rep_mat(a, n):
                    return False
                if tgt.rep_mat(a, n + 1) @ s.mat(n) != s.mat(n) @ tgt.rep_mat(a, n):
                    return False
                if src.rep_mat(a, n + 1) @ t.mat(n) != t.mat(n) @ src.rep_mat(a, n):
                    return False
    return True


class _LinearSystem:
    """Sparse rows over a ring, indexed by integer unknowns."""

    def __init__(self, ring, n_unknowns: int):
        self.ring = ring
        self.n = n_unknowns
        self.rows = []
        self.rhs = []

    def dense(self):
        """The system as matrices (a, b); refuses one over ``MAX_CELLS``."""
        cells = len(self.rows) * self.n
        if cells > MAX_CELLS:
            raise ValueError(f"{len(self.rows)} rows x {self.n} unknowns = "
                             f"{cells} cells exceed the cap {MAX_CELLS}")
        ring = self.ring
        a = Mat.zeros(ring, len(self.rows), self.n)
        b = Mat.zeros(ring, len(self.rows), 1)
        for i, (coeffs, r) in enumerate(zip(self.rows, self.rhs)):
            for j, v in coeffs.items():
                a.rows[i][j] = v
            b.rows[i][0] = r
        return a, b

    def solve(self):
        sol = solve_exact(*self.dense())
        if sol is None:
            return None
        return [sol.rows[j][0] for j in range(self.n)]

    def add_equations(self, terms, positions, diagonal: bool = False):
        """Rows of sum(A @ X @ B over terms) = (id if diagonal else 0).

        ``terms`` holds triples (A, X, B) with X an unknown block; one row
        is added per entry (i, j) in ``positions`` that is not trivially
        0 = 0.  Entry (i, j) of A X B is the sum of A[i][p] X[p][q] B[q][j],
        and X[p][q] is read off the block's coordinates.
        """
        ring = self.ring
        zero = ring.zero
        sparse = []
        for a, x, b in terms:
            if x.coords:
                arows = [[(p, v) for p, v in enumerate(row) if v != zero]
                         for row in a.rows]
                bcols = [[(q, row[j]) for q, row in enumerate(b.rows) if row[j] != zero]
                         for j in range(b.ncols)]
                sparse.append((arows, x.ncols, x.coords, bcols))
        for i, j in positions:
            coeffs = {}
            for arows, ncols, coords, bcols in sparse:
                for p, av in arows[i]:
                    for q, bv in bcols[j]:
                        for k, v in coords[p * ncols + q]:
                            coeffs[k] = coeffs.get(k, zero) + av * bv * v
            coeffs = {k: v for k, v in zip(coeffs, ring.reduce(list(coeffs.values())))
                      if v != zero}
            rhs = ring.one if diagonal and i == j else zero
            if coeffs or rhs != zero:
                self.rows.append(coeffs)
                self.rhs.append(rhs)


class _Block:
    """An unknown equivariant matrix in the coordinates of a basis.

    ``coords[p * ncols + q]`` lists the (unknown, coefficient) pairs whose
    sum is entry (p, q); the block uses ``size`` unknowns.
    """

    def __init__(self, nrows: int, ncols: int, coords, size: int):
        self.nrows, self.ncols, self.coords, self.size = nrows, ncols, coords, size

    def value(self, ring, solution) -> Mat:
        entries = ring.reduce([sum((solution[k] * v for k, v in pairs), ring.zero)
                               for pairs in self.coords])
        c = self.ncols
        return Mat(ring, self.nrows, c, [entries[i * c:(i + 1) * c] for i in range(self.nrows)],
                   normalize=False)


def _pair_orbits(group, left, ln, right, rn):
    """G-orbits of the index pairs (p, q) of left_ln x right_rn, as p * ncols + q."""
    prod = product_gset(left.action[ln], right.action[rn])
    return orbits(prod.act, group.elements())


def _positions(group, left, ln, right, rn):
    """Entries at which an equivariant left_ln x right_rn residual must vanish."""
    if left.action is None or right.action is None or group is None \
            or not left.rank(ln) or not right.rank(rn):
        return [(i, j) for i in range(left.rank(ln)) for j in range(right.rank(rn))]
    return [divmod(o[0], right.rank(rn))
            for o in _pair_orbits(group, left, ln, right, rn)]


def _block(ring, group, first: int, left, ln, right, rn) -> _Block:
    """A basis of the equivariant left_ln x right_rn matrices.

    Its unknowns are numbered from ``first``.  Permutation actions on both
    sides give one indicator per G-orbit of index pairs; other actions
    give an exact kernel basis of the equivariance constraints; no group
    gives the elementary matrices.
    """
    r, c = left.rank(ln), right.rank(rn)
    one = ring.one
    if group is None or not r or not c:
        return _Block(r, c, [((first + e, one),) for e in range(r * c)], r * c)
    if left.action is not None and right.action is not None:
        coords = [None] * (r * c)
        pair_orbits = _pair_orbits(group, left, ln, right, rn)
        for k, orbit in enumerate(pair_orbits):
            for e in orbit:
                coords[e] = ((first + k, one),)
        return _Block(r, c, coords, len(pair_orbits))
    # rho_left(a) X - X rho_right(a) = 0 for every generator a, hence for
    # every element, as both sides are homomorphisms
    x = _block(ring, None, 0, left, ln, right, rn)
    cons = _LinearSystem(ring, r * c)
    every = [(i, j) for i in range(r) for j in range(c)]
    eye_r, eye_c = Mat.identity(ring, r), Mat.identity(ring, c)
    for a in group.generators:
        cons.add_equations([(left.rep_mat(a, ln), x, eye_c),
                            (-eye_r, x, right.rep_mat(a, rn))], every)
    basis = kernel_exact(cons.dense()[0])
    coords = [[] for _ in range(r * c)]
    for k, vec in enumerate(basis):
        for e, v in enumerate(vec):
            if v != ring.zero:
                coords[e].append((first + k, v))
    return _Block(r, c, coords, len(basis))


def certificate_search(cf: ChainMap):
    """Solve for an equivariant homotopy inverse of cf, or return None.

    The unknowns are the coordinates of g (degreewise backward map), s
    and t (degree +1 homotopies on target and source) in bases of
    equivariant matrices.  Infeasibility over Z is reported as absence
    even if a rational certificate exists.
    """
    if not cf.equivariant and cf.source.group is not None \
            and cf.source.group.order > 1:
        raise ValueError("certificate search needs an equivariant chain map")
    src, tgt = cf.source, cf.target
    ring = src.ring
    top = max(src.top, tgt.top)
    # a trivial group imposes nothing: elementary coordinates, every entry
    group = src.group if tgt.group is not None else None
    if group is not None and group.order == 1:
        group = None

    count = 0
    g, s, t = {}, {}, {}
    for blocks, left, right, shift in ((g, src, tgt, 0), (s, tgt, tgt, 1),
                                       (t, src, src, 1)):
        for n in range(-1, top + 1):
            blocks[n] = _block(ring, group, count, left, n + shift, right, n)
            count += blocks[n].size

    def eye(c, n):
        return Mat.identity(ring, c.rank(n))

    system = _LinearSystem(ring, count)
    for n in range(1, top + 1):
        # chain map: d_src g_n - g_{n-1} d_tgt = 0
        system.add_equations([(src.d(n), g[n], eye(tgt, n)),
                              (-eye(src, n - 1), g[n - 1], tgt.d(n))],
                             _positions(group, src, n - 1, tgt, n))
    for n in range(top + 1):
        # homotopy on the target: f g - d s - s d = id
        system.add_equations([(cf.mat(n), g[n], eye(tgt, n)),
                              (-tgt.d(n + 1), s[n], eye(tgt, n)),
                              (-eye(tgt, n), s[n - 1], tgt.d(n))],
                             _positions(group, tgt, n, tgt, n), diagonal=True)
        # homotopy on the source: g f - d t - t d = id
        system.add_equations([(eye(src, n), g[n], cf.mat(n)),
                              (-src.d(n + 1), t[n], eye(src, n)),
                              (-eye(src, n), t[n - 1], src.d(n))],
                             _positions(group, src, n, src, n), diagonal=True)

    solution = system.solve()
    if solution is None:
        return None
    g, s, t = ({n: blocks[n].value(ring, solution) for n in range(top + 1)}
               for blocks in (g, s, t))
    cert = Certificate(ChainMap(tgt, src, g), ChainHomotopy(tgt, tgt, s),
                       ChainHomotopy(src, src, t))
    if not verify_certificate(cert, cf):
        raise InternalError("solver returned a certificate that fails re-verification")
    return cert


# ---------------------------------------------------------------------------
# the hypothesis checks for a simplicial map


@dataclass
class IsotropyReport:
    ok_conjugate: bool
    ok_strict: bool
    witness: int | None = None

    def to_json(self):
        return {"subconjugate": self.ok_conjugate, "strict": self.ok_strict,
                "witness": self.witness}


@dataclass
class WhiteheadReport:
    isotropy: IsotropyReport
    hyp_a: dict = field(default_factory=dict)   # subgroup label -> bool
    hyp_b: dict = field(default_factory=dict)
    certificate: Certificate | None = None
    searched: bool = False

    @property
    def hyp_a_ok(self) -> bool:
        return all(self.hyp_a.values())

    @property
    def hyp_b_ok(self) -> bool:
        return all(self.hyp_b.values())

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
    ok_c, ok_s, witness = True, True, None
    for sset in (f.source, f.target):
        for s in sorted(sset.ids(), key=lambda s: (sset.dim(s), s)):
            stab = stabilizer(sset.group, sset.action, s)
            conj = any(conjugating_element(stab, k) is not None for k in fam)
            strict = stab.members in strict_members
            if not strict:
                ok_s = False
            if not conj:
                ok_c = False
                if witness is None:
                    witness = s
    return IsotropyReport(ok_c, ok_s, witness)


def whitehead_verify(f: SMap, family, ring) -> WhiteheadReport:
    """Hypothesis checks plus certificate search for a simplicial G-map.

    Hypothesis (a) passes for a subgroup H when the induced map of
    H-invariant subcomplexes is a quasi-isomorphism; hypothesis (b) when
    the chains of the H-fixed simplicial subsets compare by a
    quasi-isomorphism.  The two routes share no code below the chain
    level.  When either hypothesis holds for every member of the family,
    the certificate search runs on the full equivariant chain map.
    """
    if f.source.group != f.target.group:
        raise ValueError("whitehead_verify needs a common acting group")
    if not f.equivariant:
        raise ValueError("whitehead_verify needs an equivariant simplicial map")
    fam = list(family)
    report = WhiteheadReport(isotropy_check(f, fam))
    cx = normalized_chains(f.source, ring)
    cy = normalized_chains(f.target, ring)
    cf = normalized_chain_map(f, ring, cx, cy)
    for h in fam:
        inv_map = restrict_to_invariants(cf, h)
        report.hyp_a[h.label] = is_quasi_iso(inv_map)
    for h in fam:
        fx, _ = fixed_sset(f.source, h)
        fy, _ = fixed_sset(f.target, h)
        restricted = SMap(fx, fy, {s: f.values[s] for s in fx.ids()})
        report.hyp_b[h.label] = is_quasi_iso(normalized_chain_map(restricted, ring))
    if report.hyp_a_ok or report.hyp_b_ok:
        report.searched = True
        report.certificate = certificate_search(cf)
    return report

"""Chain-level homotopy-equivalence certificates for equivariant maps.

Given an equivariant chain map f, a certificate is explicit data
(g, s, t): a backward equivariant chain map with homotopies witnessing
f*g ~ id and g*f ~ id, all commuting with the group representations.
The search poses every entry of (g, s, t) as an unknown: the chain-map,
homotopy, and equivariance conditions are simultaneously linear, so one
exact solve (Hermite-style over Z, elimination over fields) either
produces a certificate or proves that none of this shape exists over the
ring.  Over Z a failure does not rule out a rational certificate; query
the rings separately.

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
from .exactla import Mat, solve_exact
from .groups import conjugating_element
from .simplicial import SMap, _simplex_stabilizer, fixed_sset

MAX_UNKNOWNS = 5000


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

    def add(self, coeffs: dict[int, object], rhs):
        self.rows.append(coeffs)
        self.rhs.append(rhs)

    def solve(self):
        ring = self.ring
        a = Mat.zeros(ring, len(self.rows), self.n)
        b = Mat.zeros(ring, len(self.rows), 1)
        for i, (coeffs, r) in enumerate(zip(self.rows, self.rhs)):
            for j, v in coeffs.items():
                a.rows[i][j] = a.rows[i][j] + v
            b.rows[i][0] = r
        sol = solve_exact(a, b)
        if sol is None:
            return None
        return [sol.rows[j][0] for j in range(self.n)]


def certificate_search(cf: ChainMap):
    """Solve for an equivariant homotopy inverse of cf, or return None.

    The unknowns are the entries of g (degreewise backward map), s and t
    (degree +1 homotopies on target and source).  Infeasibility over Z is
    reported as absence even if a rational certificate exists.
    """
    if not cf.equivariant and cf.source.group is not None \
            and cf.source.group.order > 1:
        raise ValueError("certificate search needs an equivariant chain map")
    src, tgt = cf.source, cf.target
    ring = src.ring
    top = max(src.top, tgt.top)

    g_idx = {}
    s_idx = {}
    t_idx = {}
    counter = 0
    for n in range(top + 1):
        for i in range(src.rank(n)):
            for j in range(tgt.rank(n)):
                g_idx[(n, i, j)] = counter
                counter += 1
    for n in range(top + 1):
        for i in range(tgt.rank(n + 1)):
            for j in range(tgt.rank(n)):
                s_idx[(n, i, j)] = counter
                counter += 1
    for n in range(top + 1):
        for i in range(src.rank(n + 1)):
            for j in range(src.rank(n)):
                t_idx[(n, i, j)] = counter
                counter += 1
    if counter > MAX_UNKNOWNS:
        raise ValueError(f"{counter} unknowns exceed the cap {MAX_UNKNOWNS}")

    sys = _LinearSystem(ring, counter)
    zero = ring.zero

    def add_equation(coeffs, rhs):
        coeffs = {k: v for k, v in coeffs.items() if v != zero}
        if not coeffs and rhs == zero:
            return
        sys.add(coeffs, rhs)

    # chain-map condition: d_src g_n - g_{n-1} d_tgt = 0
    for n in range(1, top + 1):
        dsrc, dtgt = src.d(n), tgt.d(n)
        for i in range(src.rank(n - 1)):
            for j in range(tgt.rank(n)):
                coeffs = {}
                for k in range(src.rank(n)):
                    v = dsrc.rows[i][k]
                    if v != zero:
                        coeffs[g_idx[(n, k, j)]] = coeffs.get(g_idx[(n, k, j)], zero) + v
                for k in range(tgt.rank(n - 1)):
                    v = dtgt.rows[k][j]
                    if v != zero:
                        key = g_idx[(n - 1, i, k)]
                        coeffs[key] = coeffs.get(key, zero) - v
                add_equation(coeffs, zero)

    # homotopy on the target: f g - id = d s + s d
    for n in range(top + 1):
        fmat = cf.mat(n)
        dn1, dn = tgt.d(n + 1), tgt.d(n)
        for i in range(tgt.rank(n)):
            for j in range(tgt.rank(n)):
                coeffs = {}
                for k in range(src.rank(n)):
                    v = fmat.rows[i][k]
                    if v != zero:
                        key = g_idx[(n, k, j)]
                        coeffs[key] = coeffs.get(key, zero) + v
                for k in range(tgt.rank(n + 1)):
                    v = dn1.rows[i][k]
                    if v != zero:
                        key = s_idx[(n, k, j)]
                        coeffs[key] = coeffs.get(key, zero) - v
                for k in range(tgt.rank(n - 1)):
                    v = dn.rows[k][j]
                    if v != zero:
                        key = s_idx[(n - 1, i, k)]
                        coeffs[key] = coeffs.get(key, zero) - v
                rhs = ring.one if i == j else zero
                add_equation(coeffs, rhs)

    # homotopy on the source: g f - id = d t + t d
    for n in range(top + 1):
        fmat = cf.mat(n)
        dn1, dn = src.d(n + 1), src.d(n)
        for i in range(src.rank(n)):
            for j in range(src.rank(n)):
                coeffs = {}
                for k in range(tgt.rank(n)):
                    v = fmat.rows[k][j]
                    if v != zero:
                        key = g_idx[(n, i, k)]
                        coeffs[key] = coeffs.get(key, zero) + v
                for k in range(src.rank(n + 1)):
                    v = dn1.rows[i][k]
                    if v != zero:
                        key = t_idx[(n, k, j)]
                        coeffs[key] = coeffs.get(key, zero) - v
                for k in range(src.rank(n - 1)):
                    v = dn.rows[k][j]
                    if v != zero:
                        key = t_idx[(n - 1, i, k)]
                        coeffs[key] = coeffs.get(key, zero) - v
                rhs = ring.one if i == j else zero
                add_equation(coeffs, rhs)

    # equivariance of g, s, t
    if src.group is not None and tgt.group is not None:
        for a in src.group.elements():
            if a == 0:
                continue
            for n in range(top + 1):
                rs, rt = src.rep_mat(a, n), tgt.rep_mat(a, n)
                # rho_src(a) g = g rho_tgt(a)
                for i in range(src.rank(n)):
                    for j in range(tgt.rank(n)):
                        coeffs = {}
                        for k in range(src.rank(n)):
                            v = rs.rows[i][k]
                            if v != zero:
                                key = g_idx[(n, k, j)]
                                coeffs[key] = coeffs.get(key, zero) + v
                        for k in range(tgt.rank(n)):
                            v = rt.rows[k][j]
                            if v != zero:
                                key = g_idx[(n, i, k)]
                                coeffs[key] = coeffs.get(key, zero) - v
                        add_equation(coeffs, zero)
                # rho_tgt(a) s = s rho_tgt(a)
                rt1 = tgt.rep_mat(a, n + 1)
                for i in range(tgt.rank(n + 1)):
                    for j in range(tgt.rank(n)):
                        coeffs = {}
                        for k in range(tgt.rank(n + 1)):
                            v = rt1.rows[i][k]
                            if v != zero:
                                key = s_idx[(n, k, j)]
                                coeffs[key] = coeffs.get(key, zero) + v
                        for k in range(tgt.rank(n)):
                            v = rt.rows[k][j]
                            if v != zero:
                                key = s_idx[(n, i, k)]
                                coeffs[key] = coeffs.get(key, zero) - v
                        add_equation(coeffs, zero)
                # rho_src(a) t = t rho_src(a)
                rs1 = src.rep_mat(a, n + 1)
                for i in range(src.rank(n + 1)):
                    for j in range(src.rank(n)):
                        coeffs = {}
                        for k in range(src.rank(n + 1)):
                            v = rs1.rows[i][k]
                            if v != zero:
                                key = t_idx[(n, k, j)]
                                coeffs[key] = coeffs.get(key, zero) + v
                        for k in range(src.rank(n)):
                            v = rs.rows[k][j]
                            if v != zero:
                                key = t_idx[(n, i, k)]
                                coeffs[key] = coeffs.get(key, zero) - v
                        add_equation(coeffs, zero)

    solution = sys.solve()
    if solution is None:
        return None

    g_mats = {}
    s_mats = {}
    t_mats = {}
    for n in range(top + 1):
        gm = Mat.zeros(ring, src.rank(n), tgt.rank(n))
        for i in range(src.rank(n)):
            for j in range(tgt.rank(n)):
                gm.rows[i][j] = solution[g_idx[(n, i, j)]]
        g_mats[n] = gm
        sm = Mat.zeros(ring, tgt.rank(n + 1), tgt.rank(n))
        for i in range(tgt.rank(n + 1)):
            for j in range(tgt.rank(n)):
                sm.rows[i][j] = solution[s_idx[(n, i, j)]]
        s_mats[n] = sm
        tm = Mat.zeros(ring, src.rank(n + 1), src.rank(n))
        for i in range(src.rank(n + 1)):
            for j in range(src.rank(n)):
                tm.rows[i][j] = solution[t_idx[(n, i, j)]]
        t_mats[n] = tm
    cert = Certificate(ChainMap(tgt, src, g_mats),
                       ChainHomotopy(tgt, tgt, s_mats),
                       ChainHomotopy(src, src, t_mats))
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
            stab = _simplex_stabilizer(sset, s)
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

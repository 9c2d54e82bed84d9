"""Orbit diagrams, the fixed-point adjunction, and cellularity reports.

A contravariant orbit diagram assigns a value to every coset object G/H in
the orbit category and a structure map (backwards) to every morphism.
``i_upper`` evaluates a diagram at G/{e} and reads off the group action
from the endomorphisms of that object; ``i_lower`` sends a G-object to the
diagram of its fixed points.  Both the unit and counit of this adjunction
are constructed explicitly, each fixed-point inclusion once, and the
reports record whether they are isomorphisms, value by value.

Three value categories are supported: finite sets (``FinSetCat``), finite
plain simplicial sets (``FinSSetCat``), and chain complexes over an exact
ring (``ChainCat``).  A finite set is its size n, the points ``range(n)``,
a map of finite sets (``VMap``) is the tuple of the images of those points,
and a G-object in finite sets is a ``GSet``.  Every construction below is
written once against the methods they all provide:

* maps: ``identity``, ``compose``, ``maps_equal``, ``is_iso``, and
  ``composes_to(second, first, h)``, whether h = second o first, which
  builds that composite only where tuples cannot be compared; every map has
  a ``source`` and a ``target`` value, which ``same_value`` compares with a
  diagram's values;
* G-objects: ``gobject(group, carrier, action_maps)`` equips a value with
  an action (for chains, every map must permute the basis: a group acts on
  a chain complex by permutations only), ``action_as_map(x, g)`` reads one
  element's action back;
* fixed points: ``fixed(x, h)``, the inclusion x^H -> x (its ``source``
  is the fixed value), and ``corestrict(m, incl)``, which factors a map m
  through such an inclusion; ``i_lower`` builds every structure map from
  these two and ``action_as_map``;
* copowers: ``copower(keys, c)``, ``copower_remap(src, tgt, to, c)``,
  which sends copy p of c in the copower src to copy to[p] in tgt, and
  ``tensor(orbit, c)``, the G-object G/K (x) c;
* reports: ``value_descriptor(v)`` and ``orbit_count(orbit, h)``, the
  H-orbit count of G/K for chains and ``None`` otherwise.

Chain maps that send basis vectors to basis vectors or 0 (identities,
permutation actions, copower remaps, the fixed-point inclusions and their
coordinate maps) are maps of bases (see ``ChainMap``): they compose,
compare and corestrict as index tuples, and build no matrix unless asked.

The arrow-poset example is handled separately by ``arrow_poset_census``
since a diagram valued in 0 -> 1 is just a monotone truth assignment.
"""

from __future__ import annotations

from typing import NamedTuple

from .chains import ChainComplex, ChainMap, chain_maps_equal, compose_chain_maps, \
    composes_to, corestrict, identity_chain_map, invariants
from .errors import InternalError
from .exactla import Mat, is_invertible
from .groups import Group, Subgroup
from .gsets import GSet, coset_gset, fixed_points, make_gset, orbits, product_gset, \
    trivial_gset
from .orbitcat import OrbitCategory, OrbitMorphism, composite_rep
from .simplicial import GSSet, SMap, SimplexRef, disjoint_copies, \
    fixed_sset, gtensor, identity_smap, compose_smaps, smaps_equal


# ---------------------------------------------------------------------------
# finite sets


class VMap(NamedTuple):
    """A function between finite-set values: point i of ``range(source)``
    goes to point ``fn[i]`` of ``range(target)``."""

    source: int
    target: int
    fn: tuple

    @classmethod
    def make(cls, source: int, target: int, fn) -> VMap:
        """The map, if ``fn`` gives each source point an image in the target."""
        fn = tuple(fn)
        if len(fn) != source:
            raise ValueError(f"a map from {source} points needs {source} values, not {len(fn)}")
        for i, y in enumerate(fn):
            if y not in range(target):
                raise ValueError(f"map not defined into the target at {i!r}")
        return cls(source, target, fn)


class _Inclusion(VMap):
    """``FinSetCat.fixed``: a VMap with ``position``, {image: point}, for ``corestrict``."""


class FinSetCat:
    def identity(self, v: int) -> VMap:
        return VMap(v, v, tuple(range(v)))

    def compose(self, m2: VMap, m1: VMap) -> VMap:
        fn2 = m2.fn
        return VMap(m1.source, m2.target, tuple([fn2[i] for i in m1.fn]))

    def composes_to(self, m2: VMap, m1: VMap, h: VMap) -> bool:
        fn2 = m2.fn
        return (h.source == m1.source and h.target == m2.target
                and h.fn == tuple([fn2[i] for i in m1.fn]))

    def same_value(self, a: int, b: int) -> bool:
        return a == b

    def maps_equal(self, a: VMap, b: VMap) -> bool:
        return a == b

    def is_iso(self, m: VMap) -> bool:
        return m.source == m.target == len(set(m.fn))

    def gobject(self, group: Group, carrier: int, action_maps) -> GSet:
        return make_gset(group, [action_maps[g].fn for g in group.elements()])

    def fixed(self, x: GSet, h: Subgroup) -> VMap:
        points = fixed_points(x, h)
        incl = _Inclusion(len(points), x.size, points)
        incl.position = {p: i for i, p in enumerate(points)}
        return incl

    def action_as_map(self, x: GSet, g: int) -> VMap:
        return VMap(x.size, x.size, x.act[g])

    def corestrict(self, m: VMap, incl: _Inclusion) -> VMap:
        fn = tuple(map(incl.position.get, m.fn))  # None where m misses the fixed points
        if None in fn or len(fn) != m.source:  # which make refuses, naming the failure
            return VMap.make(m.source, incl.source, fn)
        return VMap(m.source, incl.source, fn)

    def copower(self, keys, c: int) -> int:
        return len(keys) * c

    def copower_remap(self, src: int, tgt: int, to, c: int) -> VMap:
        return VMap(src, tgt, tuple(q * c + x for q in to for x in range(c)))

    def tensor(self, orbit: GSet, c: int) -> GSet:
        return product_gset(orbit, trivial_gset(orbit.group, c))

    def value_descriptor(self, v: int):
        return v

    def orbit_count(self, orbit: GSet, h: Subgroup):
        return None


# ---------------------------------------------------------------------------
# finite simplicial sets


class FinSSetCat:
    def identity(self, v: GSSet) -> SMap:
        return identity_smap(v)

    def compose(self, m2: SMap, m1: SMap) -> SMap:
        return compose_smaps(m2, m1)

    def composes_to(self, m2: SMap, m1: SMap, h: SMap) -> bool:
        if not self.same_value(m1.target, m2.source):
            raise ValueError("maps are not composable")  # as compose_smaps refuses them
        return (h.values == {x: m2.push(r) for x, r in m1.values.items()}
                and self.same_value(h.source, m1.source) and self.same_value(h.target, m2.target))

    def same_value(self, x: GSSet, y: GSSet) -> bool:  # as compose_smaps sees them
        return x is y or (x.dim_of, x.faces) == (y.dim_of, y.faces)

    def maps_equal(self, a: SMap, b: SMap) -> bool:
        return (smaps_equal(a, b) and self.same_value(a.source, b.source)
                and self.same_value(a.target, b.target))

    def is_iso(self, m: SMap) -> bool:
        return m.is_iso()

    def gobject(self, group: Group, carrier: GSSet, action_maps) -> GSSet:
        action = {}
        for g in group.elements():
            vals = action_maps[g].values
            if any(r.degenerate for r in vals.values()):
                raise ValueError("action maps must be automorphisms")
            action[g] = {s: vals[s].base for s in carrier.dim_of}
        return GSSet(group, carrier.dim_of,
                     {s: carrier.faces[s] for s in carrier.faces}, action)

    def fixed(self, x: GSSet, h: Subgroup) -> SMap:
        return fixed_sset(x, h)[1]

    def action_as_map(self, x: GSSet, g: int) -> SMap:
        # simplicial as x's faces are equivariant; equivariant for the trivial group
        return SMap(x.plain, x.plain, {s: SimplexRef(x.act(g, s)) for s in x.ids()},
                    validate=False, equivariant=True)

    def corestrict(self, m: SMap, incl: SMap) -> SMap:
        # fixed simplices keep their ids and faces: only a value that misses them fails
        src, dim_of = m.source, incl.source.dim_of
        for s in src.ids():  # a nondegenerate value of the right dimension needs one lookup
            ref, n = m.values[s], src.dim_of[s]
            if ref.word or dim_of.get(ref.base) != n:
                incl.source._check_ref(ref, n)
        return SMap(m.source, incl.source, dict(m.values), validate=False,
                    equivariant=m.source.group == incl.source.group)  # x^H's group is trivial

    def copower(self, keys, c: GSSet) -> GSSet:
        return disjoint_copies(c, len(keys))[0]

    def copower_remap(self, src, tgt, to, c: GSSet) -> SMap:
        stride = max(c.dim_of, default=-1) + 1  # as disjoint_copies lays them out
        return SMap(src, tgt, {p * stride + s: SimplexRef(q * stride + s)
                               for p, q in enumerate(to) for s in c.dim_of},
                    validate=False, equivariant=True)  # copies keep their faces

    def tensor(self, orbit: GSet, c: GSSet) -> GSSet:
        return gtensor(orbit, c)

    def value_descriptor(self, v: GSSet):
        return {str(n): len(v.simplices[n]) for n in sorted(v.simplices)}

    def orbit_count(self, orbit: GSet, h: Subgroup):
        return None


# ---------------------------------------------------------------------------
# chain complexes


class ChainCat:
    def __init__(self, ring):
        self.ring = ring

    def identity(self, v: ChainComplex) -> ChainMap:
        return identity_chain_map(v)

    def compose(self, m2: ChainMap, m1: ChainMap) -> ChainMap:
        return compose_chain_maps(m2, m1)

    composes_to = staticmethod(composes_to)

    def same_value(self, a: ChainComplex, b: ChainComplex) -> bool:
        return a is b or (a.ring == b.ring and a.ranks == b.ranks
                          and all(a.d(n) == b.d(n) for n in range(1, a.top + 1)))

    def maps_equal(self, a: ChainMap, b: ChainMap) -> bool:
        return chain_maps_equal(a, b)

    def is_iso(self, m: ChainMap) -> bool:
        degrees = range(max(m.source.top, m.target.top) + 1)
        if m.sel is not None:  # a permutation of the basis in every degree
            return all(_permutation(m, n) is not None for n in degrees)
        return all(is_invertible(m.mat(n)) and m.source.rank(n) == m.target.rank(n)
                   for n in degrees)

    def gobject(self, group: Group, carrier: ChainComplex, action_maps) -> ChainComplex:
        action = []
        for n in range(carrier.top + 1):
            ps = tuple(_permutation(action_maps[g], n) for g in group.elements())
            if None in ps:
                raise ValueError(f"the action maps in degree {n} do not permute the basis")
            action.append(GSet(group, len(ps[0]), ps))
        return ChainComplex(carrier.ring, carrier.ranks,
                            {n: carrier.d(n) for n in range(1, carrier.top + 1)}, action)

    def fixed(self, x: ChainComplex, h: Subgroup) -> ChainMap:
        return invariants(x, h)[1]

    def action_as_map(self, x: ChainComplex, g: int) -> ChainMap:
        plain = x.forget_action()  # g sends j to act[g][j]: row i's 1 is at act[g^-1][i]
        return ChainMap.of_bases(plain, plain, {n: a.act[x.group.inv[g]]
                                                for n, a in enumerate(x.action)})

    corestrict = staticmethod(corestrict)

    def copower(self, keys, c: ChainComplex) -> ChainComplex:
        k = len(keys)
        diffs = {}
        for n in range(1, c.top + 1):
            base, w = c.d(n), c.rank(n)
            diffs[n] = Mat(self.ring, k * base.nrows, k * w,
                           [{p * w + j: v for j, v in row.items()}
                            for p in range(k) for row in base.sparse_rows()], normalize=False)
        return ChainComplex(self.ring, [k * c.rank(n) for n in range(c.top + 1)], diffs,
                            validate=False)

    def copower_remap(self, src, tgt, to, c: ChainComplex) -> ChainMap:
        if len(set(to)) != len(to):  # then a row of the matrix would hold two 1s
            raise ValueError("copower_remap needs distinct copies to go to distinct copies")
        sel = {}
        for n in range(c.top + 1):
            rows, r = [None] * tgt.rank(n), c.rank(n)
            for p, q in enumerate(to):
                rows[q * r:(q + 1) * r] = range(p * r, (p + 1) * r)
            sel[n] = tuple(rows)
        return ChainMap.of_bases(src, tgt, sel)

    def tensor(self, orbit: GSet, c: ChainComplex) -> ChainComplex:
        plain = self.copower(range(orbit.size), c)
        return ChainComplex(self.ring, plain.ranks,
                            {n: plain.d(n) for n in range(1, plain.top + 1)},
                            [product_gset(orbit, trivial_gset(orbit.group, c.rank(n)))
                             for n in range(c.top + 1)])

    def value_descriptor(self, v: ChainComplex):
        return list(v.ranks)

    def orbit_count(self, orbit: GSet, h: Subgroup) -> int:
        return len(orbits(orbit.act, h.members))


def _permutation(f: ChainMap, n: int):
    """Where f sends each basis index in degree n if it permutes the basis, else None."""
    if f.sel is not None:
        rows, ncols = f.sel.get(n, ()), f.source.rank(n)
    else:  # the column of each row's one 1, if it has exactly one
        m = f.mat(n)
        rows, ncols = [j if len(row) == 1 and row[j] == m.ring.one else None
                       for row in m.sparse_rows() for j in [next(iter(row), None)]], m.ncols
    img = [None] * ncols
    for i, j in enumerate(rows):
        if j is None or img[j] is not None:
            return None
        img[j] = i
    return tuple(img) if len(rows) == ncols else None


# ---------------------------------------------------------------------------
# orbit diagrams


class OrbitDiagram:
    """Contravariant diagram on the orbit category, valued in ``vcat``."""

    def __init__(self, cat: OrbitCategory, vcat, values: dict, maps: dict):
        self.cat = cat
        self.vcat = vcat
        self.values = dict(values)
        self.maps = dict(maps)  # (src_idx, tgt_idx, rep) -> map values[tgt] -> values[src]
        if self.maps.keys() != cat.morphism_keys:  # name the first key that differs
            key = min(cat.morphism_keys ^ self.maps.keys(), key=repr)
            if key not in cat.morphism_keys:
                raise ValueError(f"the structure map key {key!r} names no morphism")
            i, j, rep = key
            raise ValueError(f"no structure map for "
                             f"{OrbitMorphism(cat.family[i], cat.family[j], rep)!r}")
        self.check_functorial()

    def check_functorial(self):
        """F(R) runs from the value at R's target to the one at its source
        (``same_value``, as chain ``maps_equal`` compares matrices only),
        F(id) = id, and F(b a) = F(a) F(b) for a a generator. By induction on
        a's length in the generators (see ``OrbitCategory``) the law then holds
        for every composable pair, so this accepts exactly the diagrams whose
        maps run between the values and that pass on every pair.
        """
        vc, fam, values, maps = self.vcat, self.cat.family, self.values, self.maps
        for (i, j, rep), f in maps.items():
            if not (vc.same_value(f.source, values[j]) and vc.same_value(f.target, values[i])):
                raise ValueError(f"the structure map of {OrbitMorphism(fam[i], fam[j], rep)!r} "
                                 "does not run between the values at its ends")
        for i in range(len(fam)):
            if not vc.maps_equal(maps[(i, i, 0)], vc.identity(values[i])):
                raise ValueError(f"identity of object {i} is not the identity map")
        for i, j, l, a, b, ba in self.cat.functoriality_pairs:  # R_b o R_a runs from i to l
            if not vc.composes_to(maps[(i, j, a)], maps[(j, l, b)], maps[(i, l, ba)]):
                raise ValueError(f"functoriality fails at {OrbitMorphism(fam[j], fam[l], b)!r}"
                                 f" o {OrbitMorphism(fam[i], fam[j], a)!r}")


def _trivial_index(cat: OrbitCategory) -> int:
    for i, h in enumerate(cat.family):
        if h.members == (0,):
            return i
    raise ValueError("the family must contain the trivial subgroup")


def i_upper(t: OrbitDiagram):
    """Evaluate at G/{e}; the orbit endomorphisms become the group action."""
    e_idx = _trivial_index(t.cat)
    # R_g: G/e -> G/e is stored by its coset {g}, so its rep is g
    action_maps = {g: t.maps[(e_idx, e_idx, g)] for g in t.cat.group.elements()}
    return t.vcat.gobject(t.cat.group, t.values[e_idx], action_maps)


def _corestrict(vcat, m, incl, what):
    try:  # every caller's map lands in the subobject, or orbitkit has a bug
        return vcat.corestrict(m, incl)
    except (ValueError, InternalError) as exc:  # what() words the failure
        raise InternalError(f"{what()}: {exc}") from exc


def i_lower(x, cat: OrbitCategory, vcat, fixed=None) -> OrbitDiagram:
    """The diagram G/H -> x^H; R_a: G/H -> G/K gives the translation x^K -> x^H.
    ``fixed``, if given, lists the inclusions x^H -> x in family order."""
    fixed = fixed or [vcat.fixed(x, h) for h in cat.family]
    act = {g: vcat.action_as_map(x, g) for g in cat.group.elements()}
    maps = {}
    for (i, j), ms in sorted(cat.hom.items()):
        for m in ms:
            maps[(i, j, m.rep)] = _corestrict(
                vcat, vcat.compose(act[m.rep], fixed[j]), fixed[i],
                lambda: f"the translation by {m.rep} must map {m.target.label}-fixed points "
                        f"to {m.source.label}-fixed points")
    return OrbitDiagram(cat, vcat, {i: f.source for i, f in enumerate(fixed)}, maps)


def free_cell_diagram(cat: OrbitCategory, k: Subgroup, c, vcat) -> OrbitDiagram:
    """The diagram hom(-, G/K) (x) c: a copower of c over each hom set."""
    k_idx = cat.object_index(k)
    # a morphism is keyed by its rep, which is unique within its hom set
    keys = {i: [mk.rep for mk in cat.hom[(i, k_idx)]] for i in range(len(cat.family))}
    position = {i: {r: p for p, r in enumerate(reps)} for i, reps in keys.items()}
    values = {i: vcat.copower(keys[i], c) for i in range(len(cat.family))}
    maps = {}
    for (i, j), ms in sorted(cat.hom.items()):
        for m in ms:  # copy mk of c in values[j] goes to copy mk o m in values[i]
            to = [position[i][composite_rep(k, m.rep, b)] for b in keys[j]]
            maps[(i, j, m.rep)] = vcat.copower_remap(values[j], values[i], to, c)
    return OrbitDiagram(cat, vcat, values, maps)


# ---------------------------------------------------------------------------
# unit, counit, triangle identities


class AdjunctionReport(NamedTuple):
    unit_iso: bool
    counit_iso: bool
    triangle_left: bool
    triangle_right: bool
    unit_per_object: dict
    counit_equivariant: bool

    def to_json(self) -> dict:
        return {"unit_iso": self.unit_iso, "counit_iso": self.counit_iso,
                "triangles": [self.triangle_left, self.triangle_right],
                "per_object": dict(sorted(self.unit_per_object.items()))}


def unit_maps(t: OrbitDiagram, x, fixed=None):
    """The unit T -> i_lower(x) per object, x = i_upper(T); ``fixed`` as for ``i_lower``."""
    e_idx = _trivial_index(t.cat)
    fixed = fixed or [t.vcat.fixed(x, h) for h in t.cat.family]
    # the projection R_0: G/e -> G/H maps the carrier T(G/e) to T(G/H)
    return {i: _corestrict(t.vcat, t.maps[(e_idx, i, 0)], f, lambda: "the unit must send "
                           f"the carrier to {t.cat.family[i].label}-fixed points")
            for i, f in enumerate(fixed)}


def counit_map(x, cat: OrbitCategory, vcat, fixed):
    """i_lower(x), L = i_upper of it, and the counit L -> x; ``fixed`` as for ``i_lower``."""
    d = i_lower(x, cat, vcat, fixed)
    return d, i_upper(d), fixed[_trivial_index(cat)]


def adjunction_check(t: OrbitDiagram, x=None) -> AdjunctionReport:
    """Construct unit and counit explicitly and test the adjunction laws.

    The unit is reported per object of the orbit category; the counit of x
    (by default i_upper(T), which then shares T's fixed-point inclusions)
    is checked to be an isomorphism commuting with the group actions; both
    triangle identities are verified by exact composition of the
    constructed maps, each fixed-point inclusion built once.
    """
    cat, vcat = t.cat, t.vcat
    e_idx = _trivial_index(cat)
    xt = i_upper(t)
    fixed_t = [vcat.fixed(xt, h) for h in cat.family]
    units = unit_maps(t, xt, fixed_t)
    unit_flags = {cat.family[i].label: vcat.is_iso(m) for i, m in units.items()}

    x, fixed_x = (xt, fixed_t) if x is None else (x, [vcat.fixed(x, h) for h in cat.family])
    d_x, lhs_x, eps_x = counit_map(x, cat, vcat, fixed_x)
    counit_ok = vcat.is_iso(eps_x)
    eq_ok = all(vcat.composes_to(vcat.action_as_map(x, g), eps_x,
                                 vcat.compose(eps_x, vcat.action_as_map(lhs_x, g)))
                for g in cat.group.generators)  # both actions are homomorphisms

    # triangle 1: counit(i_upper T) o i_upper(unit) = id on the carrier
    tri_left = vcat.composes_to(fixed_t[e_idx], units[e_idx], vcat.identity(t.values[e_idx]))

    # triangle 2: (fixed points of the counit) o unit(i_lower x) = id, per object
    fixed_lhs = [vcat.fixed(lhs_x, h) for h in cat.family]
    units_dx = unit_maps(d_x, lhs_x, fixed_lhs)
    tri_right = True
    for i, h in enumerate(cat.family):
        eps_fixed = _corestrict(
            vcat, vcat.compose(eps_x, fixed_lhs[i]), fixed_x[i],
            lambda: f"the counit must send {h.label}-fixed points to fixed points")
        if not vcat.composes_to(eps_fixed, units_dx[i], vcat.identity(d_x.values[i])):
            tri_right = False
    return AdjunctionReport(all(unit_flags.values()), counit_ok,
                            tri_left, tri_right, unit_flags, eq_ok)


# ---------------------------------------------------------------------------
# cellularity comparison (G/K)^H (x) A  ->  (G/K (x) A)^H


class CellularityReport(NamedTuple):
    lhs: object
    rhs: object
    iso: bool
    fixed_cosets: int
    orbit_count: int | None = None

    def to_json(self) -> dict:
        out = {"lhs": self.lhs, "rhs": self.rhs, "iso": self.iso,
               "fixed_cosets": self.fixed_cosets}
        if self.orbit_count is not None:
            out["orbit_basis"] = self.orbit_count
        return out


def coset_cell(g: Group, k: Subgroup, a, vcat) -> tuple:
    """G/K, G/K (x) a and the copower of a over G/K: for ``cellularity_report``."""
    gk = coset_gset(g, k)
    return gk, vcat.tensor(gk, a), vcat.copower(range(gk.size), a)


def cellularity_report(g: Group, h: Subgroup, k: Subgroup, a, vcat,
                       cell=None) -> CellularityReport:
    """Compute both sides of the fixed-points-of-cells comparison.

    The left side is the copower of ``a`` by the H-fixed cosets of G/K;
    the right side applies the H-fixed-point functor to the copower of
    ``a`` over all of G/K with its translation action.  For chain values
    the H-orbit count of G/K is reported alongside: the right side is a
    copy of ``a`` per orbit, the left side one per fixed coset, which is
    why the comparison can fail for modules.  ``cell``, if given, is
    ``coset_cell(g, k, a, vcat)``.
    """
    gk, tensor, copower = cell or coset_cell(g, k, a, vcat)
    fixed = list(fixed_points(gk, h))
    into_all = vcat.copower_remap(vcat.copower(fixed, a), copower, fixed, a)
    comparison = _corestrict(vcat, into_all, vcat.fixed(tensor, h),
                             lambda: f"the copies at {h.label}-fixed cosets of G/{{{k.label}}} "
                                     f"must land in {h.label}-fixed points")
    return CellularityReport(vcat.value_descriptor(comparison.source),
                             vcat.value_descriptor(comparison.target),
                             vcat.is_iso(comparison), len(fixed),
                             vcat.orbit_count(gk, h))


# ---------------------------------------------------------------------------
# the arrow-poset census

MAX_CENSUS_DIAGRAMS = 10_000


class CensusReport(NamedTuple):
    diagram_count: int
    gobject_count: int
    diagram_classes: int
    gobject_classes: int
    assignments: list

    def to_json(self) -> dict:
        return {"diagrams": self.diagram_count, "g_objects": self.gobject_count,
                "diagram_classes": self.diagram_classes,
                "g_object_classes": self.gobject_classes,
                "assignments": self.assignments}


def arrow_poset_census(cat: OrbitCategory) -> CensusReport:
    """Count orbit diagrams valued in the poset 0 -> 1 versus G-objects.

    A contravariant diagram assigns a truth value to each object, with
    t(K) <= t(H) whenever some morphism G/H -> G/K exists; the poset has
    no nontrivial automorphisms, so isomorphism classes are assignments.
    A G-object in 0 -> 1 is an object with (necessarily trivial) action,
    so there are exactly two. Consistent assignments, extended object by
    object, always extend, as "there is a morphism" is transitive; more
    than ``MAX_CENSUS_DIAGRAMS`` diagrams are refused.
    """
    n = len(cat.family)
    # bit i < k of zero_if[k] (one_if[k]): t(i) = 0 forces t(k) = 0 (1 forces 1)
    zero_if = [sum(1 << i for i in range(k) if cat.hom[(i, k)]) for k in range(n)]
    one_if = [sum(1 << i for i in range(k) if cat.hom[(k, i)]) for k in range(n)]
    found = [0]  # the consistent assignments of the objects before k, as bits
    for k in range(n):  # each extends, so these never outnumber the diagrams
        found = [ones | b << k for ones in found for b in (0, 1)
                 if not (zero_if[k] & ~ones if b else one_if[k] & ones)]
        if len(found) > MAX_CENSUS_DIAGRAMS:
            raise ValueError(f"the census has more than MAX_CENSUS_DIAGRAMS"
                             f" = {MAX_CENSUS_DIAGRAMS} diagrams")
    assignments = [{h.label: o >> i & 1 for i, h in enumerate(cat.family)} for o in found]
    assignments.sort(key=lambda d: tuple(sorted(d.items())))
    return CensusReport(len(assignments), 2, len(assignments), 2, assignments)

"""The orbit category of a finite group with respect to a family of subgroups.

Objects are coset G-sets G/H for H in the family; a morphism G/H -> G/K is
the map "right-translate by a", lawful exactly when a^-1 * H * a lands in
K, and two translates coincide exactly when they define the same coset aK.
Morphisms are stored by the least element of that coset, read from the
coset table ``K.cosets``, so equality is structural and composition is a
lookup; hom sets are cross-checked, as sets of cosets, against (G/K)^H.

The family is an arbitrary list of subgroups: it is not required to be
closed under conjugation or under passing to subgroups.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InternalError
from .groups import Group, Subgroup
from .gsets import GMap, coset_gset, fixed_points, make_gmap


class OrbitMorphism:
    """Right translation G/H -> G/K sending gH to (ga)K, stored by least rep."""

    __slots__ = ("source", "target", "rep")

    def __init__(self, source: Subgroup, target: Subgroup, rep: int):
        self.source, self.target, self.rep = source, target, rep

    def __eq__(self, other):
        if other.__class__ is not OrbitMorphism:
            return NotImplemented
        return (self.source, self.target, self.rep) == (other.source, other.target, other.rep)

    def __hash__(self):
        return hash((self.source, self.target, self.rep))

    def __repr__(self):
        return f"R_{self.rep}[{{{self.source.label}}}->{{{self.target.label}}}]"


def composite_rep(k: Subgroup, a: int, b: int) -> int:
    """The rep of R_b o R_a into G/K: the least element of the coset abK."""
    reps, index = k.cosets
    return reps[index[k.parent.mult[a][b]]]


def orbit_morphism(source: Subgroup, target: Subgroup, a: int) -> OrbitMorphism:
    g = source.parent
    if target.parent != g:
        raise ValueError("source and target subgroups of different groups")
    kset = set(target.members)
    if not all(g.conjugate(a, x) in kset for x in source.members):
        raise ValueError(
            f"R_{a} is not a morphism: {a}^-1 H {a} is not inside K")
    return OrbitMorphism(source, target, composite_rep(target, a, 0))  # R_0 o R_a = R_a


class OrbitCategory:
    """Hom tables of the orbit category, with composition and realization.

    Every morphism is a composite of ``generators``, so F(b a) = F(a) F(b)
    holds for all composable a, b once it holds for a an identity or a
    generator s: for a = a' s, F(b a) = F(s) F(b a') = F(s) F(a') F(b) =
    F(a) F(b), by induction on the length of a (Mac Lane, CWM II.8).
    """

    def __init__(self, group: Group, family: list[Subgroup]):
        self.group = group
        self.family = family
        self.index = {h.members: i for i, h in enumerate(family)}
        self.hom: dict[tuple[int, int], tuple[OrbitMorphism, ...]] = {}

    def object_index(self, h: Subgroup) -> int:
        return self.index[h.members]

    def identity(self, h: Subgroup) -> OrbitMorphism:
        return orbit_morphism(h, h, 0)

    def all_morphisms(self):
        for i in range(len(self.family)):
            for j in range(len(self.family)):
                yield from self.hom[(i, j)]

    @cached_property
    def generators(self) -> tuple[OrbitMorphism, ...]:
        """Greedy in increasing index |K|/|H|: keep each morphism not yet a
        composite of those kept. Indices multiply and the isomorphisms come
        first, so no generator of index above 1 is a composite of the others.
        Morphisms are closed up as (source index, target index, rep) triples."""
        fam = self.family
        reached = {(i, i, 0) for i in range(len(fam))}  # the empty composites
        out_of, into = [[] for _ in fam], [[] for _ in fam]
        gens = []
        triples = [(i, j, m.rep) for (i, j), ms in sorted(self.hom.items()) for m in ms]
        for m in sorted(triples, key=lambda t: fam[t[1]].order // fam[t[0]].order):
            todo = [] if m in reached else [m]
            gens += todo
            while todo:  # close up under composition with all that is reached
                x = i, j, a = todo.pop()
                if x not in reached:
                    reached.add(x)
                    out_of[i].append(x)
                    into[j].append(x)
                    todo += [(i, l, composite_rep(fam[l], a, b)) for _, l, b in out_of[j]]
                    todo += [(h, j, composite_rep(fam[j], c, a)) for h, _, c in into[i]]
        return tuple(OrbitMorphism(fam[i], fam[j], a) for i, j, a in gens)

    @cached_property
    def morphism_keys(self) -> frozenset:
        """(source index, target index, rep) of every morphism: a diagram's map keys."""
        return frozenset((i, j, m.rep) for (i, j), ms in self.hom.items() for m in ms)

    @cached_property
    def functoriality_pairs(self) -> tuple[tuple[int, ...], ...]:
        """(i, j, l, a, b, c) for each generator R_a: G/H_i -> G/H_j and each
        R_b: G/H_j -> G/H_l, with R_c = R_b o R_a; made once, read by every diagram."""
        return tuple((i, j, l, a.rep, b.rep, composite_rep(self.family[l], a.rep, b.rep))
                     for a in self.generators
                     for i, j in [(self.object_index(a.source), self.object_index(a.target))]
                     for l in range(len(self.family)) for b in self.hom[(j, l)])

    def to_json(self) -> dict:
        objects = [h.label for h in self.family]
        hom = {}
        for (i, j), ms in sorted(self.hom.items()):
            hom[f"{objects[i]};{objects[j]}"] = [m.rep for m in ms]
        return {"objects": objects, "hom": hom}

    def composition_table_text(self) -> str:
        """Printable table of all composites second∘first."""
        lines = []
        for m1 in self.all_morphisms():
            j = self.object_index(m1.target)
            for l, k in enumerate(self.family):
                for m2 in self.hom[(j, l)]:
                    m = OrbitMorphism(m1.source, k, composite_rep(k, m1.rep, m2.rep))
                    lines.append(f"{m2!r} o {m1!r} = {m!r}")
        return "\n".join(lines)


def build_orbit_category(g: Group, family) -> OrbitCategory:
    """Enumerate hom sets: morphisms G/H -> G/K are the H-fixed cosets aK."""
    fam = []
    seen = set()
    for h in family:
        if not isinstance(h, Subgroup) or h.parent != g:
            raise ValueError(f"{h!r} is not a subgroup of the given group")
        if h.members not in seen:
            seen.add(h.members)
            fam.append(h)
    fam.sort(key=lambda s: (len(s.members), s.members))
    cat = OrbitCategory(g, fam)
    for j, k in enumerate(fam):
        gk = coset_gset(g, k)
        # aK is a morphism iff a^-1 H a lies in K, iff H lies in the subgroup aKa^-1
        # (which depends on aK only), iff H's generators do
        conjugates = [(a, {g.conjugate(g.inv[a], x) for x in k.members}) for a in k.cosets.reps]
        for i, h in enumerate(fam):
            ms = tuple(OrbitMorphism(h, k, a) for a, aka in conjugates
                       if aka.issuperset(h.generators))
            cat.hom[(i, j)] = ms
            # cross-check against the fixed points of G/K, as sets of cosets
            if {k.cosets.index[m.rep] for m in ms} != set(fixed_points(gk, h)):
                raise InternalError(
                    f"hom({{{h.label}}},{{{k.label}}}) differs from (G/K)^H")
    return cat


def compose(second: OrbitMorphism, first: OrbitMorphism) -> OrbitMorphism:
    """R_b after R_a is R_{ab}: gH -> gaK -> gabL."""
    if first.target.members != second.source.members:
        raise ValueError("morphisms are not composable")
    # a composite of lawful morphisms is lawful, so only the reduction is left
    return OrbitMorphism(first.source, second.target,
                         composite_rep(second.target, first.rep, second.rep))


def realize(m: OrbitMorphism) -> GMap:
    """The underlying G-map of coset G-sets, for faithfulness checks."""
    g = m.source.parent
    index = m.target.cosets.index
    values = [index[g.mult[r][m.rep]] for r in m.source.cosets.reps]
    return make_gmap(coset_gset(g, m.source), coset_gset(g, m.target), values)

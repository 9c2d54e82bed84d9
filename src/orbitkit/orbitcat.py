"""The orbit category of a finite group with respect to a family of subgroups.

Objects are coset G-sets G/H for H in the family; a morphism G/H -> G/K is
the map "right-translate by a", lawful exactly when a^-1 * H * a lands in
K, and two translates coincide exactly when they define the same coset aK.
Morphisms are stored by the least element of that coset, so hom sets have
a canonical order and equality is structural.

The family is an arbitrary list of subgroups: it is not required to be
closed under conjugation or under passing to subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError
from .groups import Group, Subgroup, left_cosets
from .gsets import GMap, coset_gset, make_gmap, orbit_analysis


@dataclass(frozen=True)
class OrbitMorphism:
    """Right translation G/H -> G/K sending gH to (ga)K, stored by least rep."""

    source: Subgroup
    target: Subgroup
    rep: int

    def __repr__(self):
        return f"R_{self.rep}[{{{self.source.label}}}->{{{self.target.label}}}]"


def _least_coset_rep(g: Group, k: Subgroup, a: int) -> int:
    return min(g.mult[a][x] for x in k.members)


def orbit_morphism(source: Subgroup, target: Subgroup, a: int) -> OrbitMorphism:
    g = source.parent
    if target.parent != g:
        raise ValueError("source and target subgroups of different groups")
    kset = set(target.members)
    if not all(g.conjugate(a, x) in kset for x in source.members):
        raise ValueError(
            f"R_{a} is not a morphism: {a}^-1 H {a} is not inside K")
    return OrbitMorphism(source, target, _least_coset_rep(g, target, a))


class OrbitCategory:
    """Hom tables of the orbit category, with composition and realization."""

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
            for m2 in self.all_morphisms():
                if m1.target.members == m2.source.members:
                    c = compose(m2, m1)
                    lines.append(f"{m2!r} o {m1!r} = {c!r}")
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
    for i, h in enumerate(fam):
        for j, k in enumerate(fam):
            ms = []
            seen_cosets = set()
            kset = set(k.members)
            for a in g.elements():
                coset = tuple(sorted(g.mult[a][x] for x in k.members))
                if coset in seen_cosets:
                    continue
                seen_cosets.add(coset)
                if all(g.conjugate(a, x) in kset for x in h.members):
                    ms.append(OrbitMorphism(h, k, coset[0]))
            ms.sort(key=lambda m: m.rep)
            cat.hom[(i, j)] = tuple(ms)
            # cross-check against the fixed points of G/K
            fixed = orbit_analysis(coset_gset(g, k), h).fixed
            if len(ms) != len(fixed):
                raise InternalError(
                    f"hom({{{h.label}}},{{{k.label}}}) size mismatch with (G/K)^H")
    return cat


def compose(second: OrbitMorphism, first: OrbitMorphism) -> OrbitMorphism:
    """R_b after R_a is R_{ab}: gH -> gaK -> gabL."""
    if first.target.members != second.source.members:
        raise ValueError("morphisms are not composable")
    g = first.source.parent
    ab = g.mult[first.rep][second.rep]
    return orbit_morphism(first.source, second.target, ab)


def realize(m: OrbitMorphism) -> GMap:
    """The underlying G-map of coset G-sets, for faithfulness checks."""
    g = m.source.parent
    src = coset_gset(g, m.source)
    tgt = coset_gset(g, m.target)
    src_cosets = left_cosets(g, m.source)
    tgt_index = {c: i for i, c in enumerate(left_cosets(g, m.target))}
    values = []
    for c in src_cosets:
        rep = c[0]
        image = tuple(sorted(g.mult[g.mult[rep][m.rep]][x] for x in m.target.members))
        values.append(tgt_index[image])
    return make_gmap(src, tgt, values)

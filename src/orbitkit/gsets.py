"""Finite G-sets: orbits, stabilizers, fixed points, equivariant maps.

A G-set stores one permutation per group element; validation enforces the
action axioms (lengths for every element, the permutation property and the
homomorphism law on the group's generators, which imply the rest), so
downstream code can trust ``act[g][x]`` blindly.  The central fact
exercised here is that equivariant maps out of a coset G-set G/H
correspond to H-fixed points of the target, via evaluation at the base
coset.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalError
from .groups import Group, Subgroup, check_action_laws, trivial_subgroup


class GSet:
    __slots__ = ("group", "size", "act")

    def __init__(self, group: Group, size: int, act: tuple[tuple[int, ...], ...]):
        self.group, self.size, self.act = group, size, act  # act[g][point]

    def __eq__(self, other):
        if other.__class__ is not GSet:
            return NotImplemented
        return (self.group, self.size, self.act) == (other.group, other.size, other.act)

    def __hash__(self):
        return hash((self.group, self.size, self.act))

    def __repr__(self):
        return f"GSet(|X|={self.size} over {self.group!r})"


class GMap:
    __slots__ = ("source", "target", "values")

    def __init__(self, source: GSet, target: GSet, values: tuple[int, ...]):
        self.source, self.target, self.values = source, target, values

    def __eq__(self, other):
        if other.__class__ is not GMap:
            return NotImplemented
        return (self.source, self.target, self.values) == (other.source, other.target,
                                                           other.values)

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __repr__(self):
        return f"GMap(source={self.source!r}, target={self.target!r}, values={self.values!r})"

    def __call__(self, x: int) -> int:
        return self.values[x]


def make_gset(group: Group, perms) -> GSet:
    """Build a validated GSet from per-element permutations.

    ``perms`` maps each group element to a permutation of ``0..size-1``
    (list indexed by element, or dict keyed by element).
    """
    if isinstance(perms, dict):
        for g in perms:
            if g not in group.elements():
                raise ValueError(f"action key {g!r} is not a group element")
        act = [tuple(perms[g]) for g in group.elements()]
    else:
        act = [tuple(p) for p in perms]
    if len(act) != group.order:
        raise ValueError("need one permutation per group element")
    size = len(act[0]) if act else 0
    x = GSet(group, size, tuple(act))
    validate_gset(x)
    return x


def validate_gset(x: GSet) -> None:
    """Raise ValueError unless x.act is an action by permutations of 0..size-1.

    Lengths are checked for every element, being a permutation on the generators
    only (``check_action_laws`` then makes every element a composite of them)."""
    g, identity = x.group, tuple(range(x.size))
    for a in g.elements():  # size entries making up the set of points: a permutation
        if len(x.act[a]) != x.size or a in g.generators and set(x.act[a]) != set(identity):
            raise ValueError(f"action of {a} is not a permutation")
    try:
        check_action_laws(g, x.act.__getitem__,
                          lambda p, q: tuple([p[i] for i in q]), identity)
    except (IndexError, TypeError):  # q names something that is not a point
        raise ValueError("action is not by permutations: an entry is not a point") from None


def make_gmap(source: GSet, target: GSet, values) -> GMap:
    if source.group != target.group:
        raise ValueError("G-map needs a common acting group")
    vals = tuple(values)
    if len(vals) != source.size:
        raise ValueError("value list length mismatch")
    for v in vals:
        if not 0 <= v < target.size:
            raise ValueError(f"value {v} outside the target")
    # both actions are homomorphisms, so commuting with generators suffices
    for g in source.group.generators:
        for x in range(source.size):
            if vals[source.act[g][x]] != target.act[g][vals[x]]:
                raise ValueError(f"not equivariant at (g={g}, x={x})")
    return GMap(source, target, vals)


def trivial_gset(group: Group, size: int) -> GSet:
    ident = tuple(range(size))
    return GSet(group, size, tuple(ident for _ in group.elements()))


def coset_gset(g: Group, h: Subgroup) -> GSet:
    """G/H with left translation; point i is the i-th coset by least rep."""
    if h.parent != g:
        raise ValueError("subgroup of a different group")
    reps, index = h.cosets
    return GSet(g, len(reps), tuple(tuple(index[row[r]] for r in reps) for row in g.mult))


def regular_gset(g: Group) -> GSet:
    return coset_gset(g, trivial_subgroup(g))


class Orbit(NamedTuple):
    representative: int
    stabilizer: Subgroup
    members: tuple[int, ...]


class OrbitReport(NamedTuple):
    orbits: tuple[Orbit, ...]
    fixed: tuple[int, ...]


def stabilizer(group: Group, perms, point) -> Subgroup:
    """The elements g with ``perms[g][point] == point``, for ``perms`` as in ``orbits``."""
    return Subgroup(group, tuple(a for a in group.elements() if perms[a][point] == point))


def orbits(perms, members) -> list[tuple[int, ...]]:
    """Orbits of a subgroup acting through per-element permutations.

    ``perms[g][pt]`` is the image of point pt under group element g:
    ``GSet.act``, one degree of a chain complex's action, or
    ``GSSet.action``.  The points are those of the identity's ``perms[0]``.
    ``members`` are the elements of the subgroup, which must be closed
    under multiplication.  Each orbit is a sorted tuple; orbits come in
    order of their least point.
    """
    seen = set()
    out = []
    for pt in sorted(perms[0]):
        if pt not in seen:
            orbit = tuple(sorted({perms[a][pt] for a in members}))
            seen.update(orbit)
            out.append(orbit)
    return out


def fixed_points(x: GSet, h: Subgroup) -> tuple[int, ...]:
    """The points of x fixed by h (by its generators, so by all), in increasing order."""
    if h.parent != x.group:
        raise ValueError("subgroup of a different group")
    points = range(x.size)
    for a in h.generators:
        points = [p for p in points if x.act[a][p] == p]
    return tuple(points)


def orbit_analysis(x: GSet, h: Subgroup) -> OrbitReport:
    """Orbits of the full group action plus the H-fixed points.

    Stabilizers always refer to the whole group; the subgroup argument
    only selects which fixed-point set is reported.
    """
    fixed = fixed_points(x, h)
    whole = tuple(Orbit(o[0], stabilizer(x.group, x.act, o[0]), o)
                  for o in orbits(x.act, x.group.elements()))
    return OrbitReport(whole, fixed)


def is_transitive(x: GSet) -> bool:
    return x.size > 0 and len(orbits(x.act, x.group.elements())) == 1


def equivariant_maps(source: GSet, target: GSet) -> list[GMap]:
    """All G-maps out of a transitive (coset) G-set.

    A map is determined by the image of the base point 0, which can be any
    point of the target fixed by the stabilizer H of 0; the resulting
    evaluation-at-0 correspondence with target^H is checked to be a
    bijection before returning.
    """
    if not is_transitive(source):
        raise ValueError("source must be a transitive (coset) G-set")
    g = source.group
    h = stabilizer(g, source.act, 0)
    fixed = fixed_points(target, h)
    # least group element moving the base point to each source point
    mover = {}
    for a in g.elements():
        pt = source.act[a][0]
        if pt not in mover:
            mover[pt] = a
    maps = []
    for y in fixed:
        values = [target.act[mover[pt]][y] for pt in range(source.size)]
        maps.append(make_gmap(source, target, values))
    evals = [m.values[0] for m in maps]
    if sorted(evals) != sorted(fixed) or len(set(evals)) != len(evals):
        raise InternalError(
            "evaluation at the base point must biject onto the fixed points")
    return maps


def product_gset(x: GSet, y: GSet) -> GSet:
    """Product with diagonal action; point (a, b) has index a*|Y| + b."""
    if x.group != y.group:
        raise ValueError("product needs a common group")
    return GSet(x.group, x.size * y.size, tuple(
        tuple(pa * y.size + pb for pa in p for pb in q) for p, q in zip(x.act, y.act)))

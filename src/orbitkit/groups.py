"""Finite groups as validated multiplication tables, plus subgroup machinery.

Elements are dense identifiers ``0..order-1`` with ``0`` the identity.
Everything downstream (G-sets, orbit categories, equivariant chains)
indexes into these tables, so construction validates identity, inverses
and associativity (exactly, by Light's test); actions are then checked on the
small generating set ``generators`` (``check_action_laws``).  Group order
is capped (default 64); this is a desk-scale toolkit and all searches are
exhaustive on purpose.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

DEFAULT_ORDER_BOUND = 64


class Group:
    """Equal, and hashed alike, when the tables are: ``name`` is only for display."""

    def __init__(self, order: int, mult: tuple[tuple[int, ...], ...], inv: tuple[int, ...],
                 name: str = ""):
        self.order, self.mult, self.inv, self.name = order, mult, inv, name

    def __eq__(self, other):
        if other.__class__ is not Group:
            return NotImplemented
        return (self.order, self.mult, self.inv) == (other.order, other.mult, other.inv)

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, a: int, x: int) -> int:
        """a^-1 * x * a."""
        return self.mult[self.mult[self.inv[a]][x]][a]

    def __hash__(self):
        return self._table_hash

    @cached_property
    def _table_hash(self) -> int:
        return hash(self.mult)  # order and inv are functions of mult, as in __eq__

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Greedy: each one doubles the span at least, so at most log2|G|."""
        return Subgroup(self, tuple(self.elements())).generators

    def __repr__(self):
        return self.name or f"Group(order={self.order})"


class CosetTable(NamedTuple):
    reps: tuple[int, ...]   # the least element of each left coset aH, increasing
    index: tuple[int, ...]  # index[a]: the position in reps of the coset aH


class Subgroup:
    def __init__(self, parent: Group, members: tuple[int, ...]):
        self.parent, self.members = parent, members

    def __eq__(self, other):
        if other.__class__ is not Subgroup:
            return NotImplemented
        return (self.parent, self.members) == (other.parent, other.members)

    def __hash__(self):
        return hash((self.parent, self.members))

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def label(self) -> str:
        """Stable text key: comma-joined sorted members."""
        return ",".join(str(m) for m in self.members)

    @cached_property
    def cosets(self) -> CosetTable:
        """Scanned in increasing order, each coset is first met at its least element."""
        g = self.parent
        index = [-1] * g.order
        reps = []
        for a in g.elements():
            if index[a] < 0:
                for x in self.members:
                    index[g.mult[a][x]] = len(reps)
                reps.append(a)
        return CosetTable(tuple(reps), tuple(index))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Greedy among the members: each doubles the span at least."""
        return _greedy_generators(self.parent.mult, self.members)

    def is_trivial(self) -> bool:
        return self.members == (0,)

    def __repr__(self):
        return f"Subgroup({{{self.label}}})"


def check_action_laws(g: Group, act, compose, identity) -> None:
    """Raise ValueError unless a -> act(a) is a homomorphism; compose(p, q) is p o q.

    act(0) = identity and act(s) o act(b) = act(sb) for generators s and all b suffice:
    a = s_1 ... s_k (g is finite) acts as act(s_1) o ... o act(s_k), by induction on k,
    so as a permutation when every act(s) is one.
    """
    if act(0) != identity:
        raise ValueError("identity element must act trivially")
    for s in g.generators:
        p = act(s)
        for b in g.elements():
            if compose(p, act(b)) != act(g.mult[s][b]):
                raise ValueError(f"action not a homomorphism at ({s},{b})")


def _validate_table(order: int, mult) -> None:
    if order <= 0:
        raise ValueError("group order must be positive")
    if len(mult) != order or any(len(row) != order for row in mult):
        raise ValueError("multiplication table is not square of the stated order")
    for row in mult:
        for v in row:
            if not isinstance(v, int) or not 0 <= v < order:
                raise ValueError(f"table entry {v!r} out of range")
    for x in range(order):
        if mult[0][x] != x or mult[x][0] != x:
            raise ValueError("element 0 is not a two-sided identity")
    # Light's test: the s with (x s) y = x (s y) for all x, y contain 0 and are closed
    # under products (Clifford-Preston I, 1.2), so s that generate the table suffice
    for s in _greedy_generators(mult, range(order)):
        col = mult[s]
        for x, row in enumerate(mult):
            left = mult[row[s]]
            if left != tuple([row[c] for c in col]):
                y = next(y for y in range(order) if left[y] != row[col[y]])
                raise ValueError(f"table not associative at ({x},{s},{y})")


def group_from_table(mult, name: str = "") -> Group:
    order = len(mult)
    table = tuple(tuple(row) for row in mult)
    _validate_table(order, table)
    # y' x = 0 = x y gives y' = y' (x y) = (y' x) y = y: a two-sided inverse of x
    # is its least right inverse (and 0 is none for x != 0, as x 0 = x)
    inv = tuple(row.index(0) if 0 in row else 0 for row in table)
    for x, y in enumerate(inv):
        if table[x][y] or table[y][x]:
            raise ValueError(f"element {x} has no two-sided inverse")
    return Group(order, table, inv, name)


def group_from_generators(generators, name: str = "",
                          max_order: int = DEFAULT_ORDER_BOUND) -> Group:
    """Close permutation generators under composition and build the table.

    Generators are permutations of a common finite set ``0..d-1`` given as
    sequences.  The identity gets identifier 0; the rest are ordered by
    their permutation tuple.
    """
    perms = [tuple(p) for p in generators]
    if not perms:
        raise ValueError("need at least one generator")
    degree = len(perms[0])
    for p in perms:
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise ValueError(f"{p!r} is not a permutation of 0..{degree - 1}")
    identity = tuple(range(degree))
    els = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for gperm in perms:
                c = tuple(gperm[a[i]] for i in range(degree))
                if c not in els:
                    els.add(c)
                    nxt.append(c)
                    if len(els) > max_order:
                        raise ValueError(
                            f"generator closure exceeds the bound {max_order}")
        frontier = nxt
    ordered = [identity] + sorted(els - {identity})
    index = {p: i for i, p in enumerate(ordered)}
    order = len(ordered)
    mult = [[0] * order for _ in range(order)]
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            # composite acts as "a after b": (a*b)(x) = a(b(x))
            mult[i][j] = index[tuple(a[b[x]] for x in range(degree))]
    return group_from_table(mult, name)


def make_group(spec, name: str = "", max_order: int = DEFAULT_ORDER_BOUND) -> Group:
    """Build a validated Group from a table or permutation generators.

    Accepts a full multiplication table (list of rows), a list of
    permutation generators (list of permutations, detected by content), or
    a dict in the file format: ``{"order": n, "mult": [[...]]}`` or
    ``{"degree": d, "generators": [[...], ...]}``.
    """
    if isinstance(spec, dict):
        if "mult" in spec:
            table = spec["mult"]
            if "order" in spec and spec["order"] != len(table):
                raise ValueError("order field does not match table size")
            return group_from_table(table, name or spec.get("name", ""))
        if "generators" in spec:
            gens = spec["generators"]
            if "degree" in spec:
                for p in gens:
                    if len(p) != spec["degree"]:
                        raise ValueError("generator degree mismatch")
            return group_from_generators(gens, name or spec.get("name", ""),
                                         max_order)
        raise ValueError("group spec needs 'mult' or 'generators'")
    seq = [list(row) for row in spec]
    if seq and len(seq) == len(seq[0]):
        try:
            return group_from_table(seq, name)
        except ValueError:
            pass
    return group_from_generators(seq, name, max_order)


def subgroup(g: Group, members) -> Subgroup:
    mem = tuple(sorted(set(members)))
    for x in mem:  # all of them, before the closure checks index the table
        if not 0 <= x < g.order:
            raise ValueError(f"element {x} outside the group")
    if not mem or mem[0] != 0:
        raise ValueError("subgroup must contain the identity 0")
    ms = set(mem)
    for x in mem:
        if g.inv[x] not in ms:
            raise ValueError(f"subgroup not closed under inverse at {x}")
        for y in mem:
            if g.mult[x][y] not in ms:
                raise ValueError(f"subgroup not closed under product at ({x},{y})")
    return Subgroup(g, mem)


def trivial_subgroup(g: Group) -> Subgroup:
    return Subgroup(g, (0,))


def full_subgroup(g: Group) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def _closure(mult, seed) -> frozenset:
    """The subgroup generated by seed: a search from 0 by right multiplication
    with its members (in a finite group, their products form a subgroup)."""
    steps = [s for s in set(seed) if s]
    els, todo = {0}, [0]
    for x in todo:  # grows while it is read
        row = mult[x]
        for s in steps:
            if row[s] not in els:
                els.add(row[s])
                todo.append(row[s])
    return frozenset(els)


def _greedy_generators(mult, members) -> tuple[int, ...]:
    """Keep each member not yet reached from 0 by right multiplication with those kept."""
    gens, span = [], frozenset([0])
    for x in members:
        if x not in span:
            gens.append(x)
            span = _closure(mult, gens)
    return tuple(gens)


def all_subgroups(g: Group, max_order: int = DEFAULT_ORDER_BOUND) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by size then membership.

    A search from {e}: each subgroup H found is extended to <H, x> by one x
    from each left coset xH other than H (the join depends on xH only).
    Every subgroup is reached, as it is generated by a chain of its elements
    x_1, ..., x_n with each <x_1, ..., x_i> an extension of the one before.
    """
    if g.order > max_order:
        raise ValueError(f"group order {g.order} exceeds the bound {max_order}")
    seeds = {frozenset([0]): ()}  # each subgroup found, with a seed that generates it
    todo = list(seeds)
    for h in todo:
        tried = set(h)
        for x in g.elements():
            if x not in tried:
                tried.update(g.mult[x][y] for y in h)  # the coset xH
                j = _closure(g.mult, seeds[h] + (x,))
                if j not in seeds:
                    seeds[j] = seeds[h] + (x,)
                    todo.append(j)
    out = [Subgroup(g, tuple(sorted(s))) for s in seeds]
    out.sort(key=lambda h: (len(h.members), h.members))
    return out


def conjugating_element(h: Subgroup, k: Subgroup):
    """Least a with a^-1 * H * a contained in K, or None."""
    if h.parent != k.parent:
        raise ValueError("subgroups of different parent groups")
    g = h.parent
    kset = set(k.members)
    for a in k.cosets.reps:  # the test depends on aK only, so the first hit is least
        if all(g.conjugate(a, x) in kset for x in h.members):
            return a
    return None


# --- stock groups for fixtures and the CLI ---------------------------------


def cyclic_group(n: int) -> Group:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(table, f"C{n}")


def symmetric_group(n: int) -> Group:
    if n < 1 or n > 5:
        raise ValueError("symmetric_group supports 1 <= n <= 5")
    if n == 1:
        return group_from_table([[0]], "S1")
    swap = [1, 0] + list(range(2, n))
    cycle = list(range(1, n)) + [0]
    return group_from_generators([swap, cycle], f"S{n}")


def dihedral_group(n: int) -> Group:
    """Symmetries of the regular n-gon, order 2n, as permutations of vertices."""
    if n < 2:
        raise ValueError("dihedral_group needs n >= 2")
    rot = [(i + 1) % n for i in range(n)]
    refl = [(n - i) % n for i in range(n)]
    return group_from_generators([rot, refl], f"D{n}")


def direct_product(a: Group, b: Group) -> Group:
    """Product group; element i*|b|+j stands for the pair (i, j)."""
    n = a.order * b.order
    # pair (0,0) maps to 0, so identity is preserved
    table = [[0] * n for _ in range(n)]
    for i1 in range(a.order):
        for j1 in range(b.order):
            for i2 in range(a.order):
                for j2 in range(b.order):
                    x = i1 * b.order + j1
                    y = i2 * b.order + j2
                    table[x][y] = a.mult[i1][i2] * b.order + b.mult[j1][j2]
    name = f"{a.name}x{b.name}" if a.name and b.name else ""
    return group_from_table(table, name)


def klein_four_group() -> Group:
    return direct_product(cyclic_group(2), cyclic_group(2))  # named C2xC2

"""Finite G-simplicial sets in degeneracy normal form.

A simplicial set with finitely many nondegenerate simplices has infinitely
many simplices, but every simplex is uniquely s_{i_k}...s_{i_1} x with x
nondegenerate and i_k > ... > i_1.  ``SimplexRef`` names a simplex by that
normal form; the operator engine rewrites face and degeneracy applications
back into normal form using the simplicial identities

    d_i d_j = d_{j-1} d_i (i < j)          s_i s_j = s_{j+1} s_i (i <= j)
    d_i s_j = s_{j-1} d_i (i < j)          d_j s_j = id = d_{j+1} s_j
    d_i s_j = s_j d_{i-1} (i > j + 1)

together with the stored faces of nondegenerate simplices.  The word of a
normal form equals the collapse set of the corresponding monotone
surjection, sorted decreasingly.

Group actions permute nondegenerate simplices dimension-wise and commute
with faces; degeneracies then commute automatically.  Everything a
constructor returns satisfies these axioms: checked (the action laws on
generators), or implied by the objects it was derived from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InternalError
from .groups import Group, Subgroup, check_action_laws, conjugating_element, \
    cyclic_group
from .gsets import GSet, orbits, stabilizer, trivial_gset

TRIVIAL_GROUP = cyclic_group(1)
TOP_DIM_CAP = 8


@dataclass(frozen=True)
class SimplexRef:
    """A simplex in normal form: degeneracy word applied to a base simplex."""

    base: int
    word: tuple[int, ...] = ()

    @property
    def degenerate(self) -> bool:
        return bool(self.word)


def apply_degeneracy(ref: SimplexRef, i: int) -> SimplexRef:
    """Normal form of s_i applied to ``ref`` (pure word combinatorics)."""
    out = []
    j = i
    word = ref.word
    k = 0
    while k < len(word) and j <= word[k]:
        out.append(word[k] + 1)
        k += 1
    out.append(j)
    out.extend(word[k:])
    return SimplexRef(ref.base, tuple(out))


def _apply_letters(ref: SimplexRef, letters) -> SimplexRef:
    """Apply degeneracy letters outermost-first (letters[0] applied last)."""
    for c in reversed(list(letters)):
        ref = apply_degeneracy(ref, c)
    return ref


class GSSet:
    """A finite simplicial set with a group action on nondegenerate simplices."""

    def __init__(self, group: Group, dim_of: dict[int, int],
                 faces: dict[int, tuple], action: dict[int, dict[int, int]],
                 validate: bool = True):
        self.group = group
        self.dim_of = dict(dim_of)
        self.faces = {x: tuple(fs) for x, fs in faces.items()}
        self.action = {g: dict(m) for g, m in action.items()}
        self.simplices: dict[int, tuple[int, ...]] = {}
        for x, n in sorted(self.dim_of.items()):
            self.simplices.setdefault(n, [])
            self.simplices[n].append(x)
        self.simplices = {n: tuple(sorted(ids)) for n, ids in self.simplices.items()}
        self.top_dim = max(self.dim_of.values(), default=-1)
        if self.top_dim > TOP_DIM_CAP:
            raise ValueError(f"top dimension {self.top_dim} exceeds cap {TOP_DIM_CAP}")
        if validate:
            self.validate()

    # -- basic access --------------------------------------------------

    def ids(self):
        for n in sorted(self.simplices):
            yield from self.simplices[n]

    def ids_of_dim(self, n: int) -> tuple[int, ...]:
        return self.simplices.get(n, ())

    def dim(self, x: int) -> int:
        return self.dim_of[x]

    def ref_dim(self, ref: SimplexRef) -> int:
        return self.dim_of[ref.base] + len(ref.word)

    def face(self, x: int, i: int) -> SimplexRef:
        return self.faces[x][i]

    def act(self, g: int, x: int) -> int:
        return self.action[g][x]

    def act_ref(self, g: int, ref: SimplexRef) -> SimplexRef:
        return SimplexRef(self.action[g][ref.base], ref.word)

    def __repr__(self):
        counts = ",".join(f"{n}:{len(self.simplices[n])}" for n in sorted(self.simplices))
        return f"GSSet[{counts}]"

    # -- validation ----------------------------------------------------

    def _check_ref(self, ref: SimplexRef, want_dim: int | None = None):
        if ref.base not in self.dim_of:
            raise ValueError(f"face references unknown simplex {ref.base}")
        p = self.dim_of[ref.base]
        word = ref.word
        for a, b in zip(word, word[1:]):
            if a <= b:
                raise ValueError(f"degeneracy word {word} not strictly decreasing")
        for pos, letter in enumerate(reversed(word)):
            if not 0 <= letter <= p + pos:
                raise ValueError(f"degeneracy index {letter} out of range in {word}")
        if want_dim is not None and p + len(word) != want_dim:
            raise ValueError(f"face {ref} has dimension {p + len(word)}, want {want_dim}")

    def validate(self):
        for x in self.faces:
            if x not in self.dim_of:
                raise ValueError(f"faces given for {x}, which is not a listed simplex")
        for x, n in self.dim_of.items():
            if n < 0:
                raise ValueError(f"negative dimension for simplex {x}")
            if n == 0:
                if x in self.faces and self.faces[x]:
                    raise ValueError(f"vertex {x} must not list faces")
                continue
            fs = self.faces.get(x)
            if fs is None or len(fs) != n + 1:
                raise ValueError(f"simplex {x} of dimension {n} needs {n + 1} faces")
            for ref in fs:
                self._check_ref(ref, n - 1)
        # simplicial identities d_i d_j = d_{j-1} d_i for i < j
        for x, n in self.dim_of.items():
            if n < 2:
                continue
            fs = self.faces[x]  # d_j x, checked above
            for j in range(n + 1):
                for i in range(j):
                    if apply_face(self, fs[j], i) != apply_face(self, fs[i], j - 1):
                        raise ValueError(
                            f"simplicial identity fails at (i={i}, j={j}, simplex={x})")
        # action: dimension-preserving permutations forming a homomorphism
        ids = sorted(self.dim_of)
        g = self.group
        for a in self.action:
            if a not in g.elements():
                raise ValueError(f"action key {a!r} is not a group element")
        for a in g.elements():
            m = self.action.get(a)
            if m is None:
                raise ValueError(f"missing action of group element {a}")
            if sorted(m) != ids or sorted(m.values()) != ids or any(
                    self.dim_of[m[x]] != n for x, n in self.dim_of.items()):
                raise ValueError(f"action of {a} is not a dimension-preserving "
                                 "permutation of the simplices")
        check_action_laws(g, self.action.__getitem__,
                          lambda p, q: {x: p[y] for x, y in q.items()},
                          {x: x for x in ids})
        # faces are equivariant; on generators, as the action is a homomorphism
        for a in g.generators:
            for x, n in self.dim_of.items():
                for i in range(n + 1 if n else 0):
                    if self.act_ref(a, self.faces[x][i]) != self.faces[self.action[a][x]][i]:
                        raise ValueError(
                            f"face {i} of simplex {x} is not equivariant under {a}")


def apply_face(sset: GSSet, ref: SimplexRef, i: int) -> SimplexRef:
    """Normal form of d_i applied to ``ref``."""
    if not ref.word:
        return sset.faces[ref.base][i]
    word = list(ref.word)
    j = i
    k = 0
    while k < len(word):
        w = word[k]
        if j < w:
            word[k] = w - 1
            k += 1
        elif j == w or j == w + 1:
            del word[k]
            return _apply_letters(SimplexRef(ref.base), word)
        else:
            j -= 1
            k += 1
    return _apply_letters(sset.face(ref.base, j), word)


def apply_operator(sset: GSSet, ref: SimplexRef, op: tuple[str, int]) -> SimplexRef:
    """Apply ("d", i) or ("s", i) with index validation."""
    kind, i = op
    n = sset.ref_dim(ref)
    if kind == "s":
        if not 0 <= i <= n:
            raise ValueError(f"s_{i} out of range on a {n}-simplex")
        return apply_degeneracy(ref, i)
    if kind == "d":
        if n == 0 or not 0 <= i <= n:
            raise ValueError(f"d_{i} out of range on a {n}-simplex")
        return apply_face(sset, ref, i)
    raise ValueError(f"unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# constructors


def _trivial_action(ids) -> dict[int, dict[int, int]]:
    return {0: {x: x for x in ids}}


def standard_simplex(n: int) -> GSSet:
    """Delta[n]: nondegenerate k-simplices are the (k+1)-subsets of 0..n."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    if n > TOP_DIM_CAP:  # before enumerating 2^(n+1) - 1 vertex subsets
        raise ValueError(f"top dimension {n} exceeds cap {TOP_DIM_CAP}")
    ids = {}
    counter = 0
    for k in range(n + 1):
        for verts in combinations(range(n + 1), k + 1):
            ids[verts] = counter
            counter += 1
    dim_of = {i: len(v) - 1 for v, i in ids.items()}
    faces = {}
    for verts, x in ids.items():
        if len(verts) == 1:
            continue
        faces[x] = tuple(SimplexRef(ids[verts[:i] + verts[i + 1:]])
                         for i in range(len(verts)))
    return GSSet(TRIVIAL_GROUP, dim_of, faces, _trivial_action(dim_of))


def boundary_simplex(n: int) -> GSSet:
    """The boundary of Delta[n] (empty for n = 0)."""
    full = standard_simplex(n)
    keep = [x for x in full.ids() if full.dim(x) < n]
    return sub_sset(full, keep)


def empty_sset(group: Group = TRIVIAL_GROUP) -> GSSet:
    return GSSet(group, {}, {}, {g: {} for g in group.elements()})


def point_sset() -> GSSet:
    return standard_simplex(0)


def build_sset(spec, group: Group | None = None) -> GSSet:
    """Build a validated GSSet from a dict spec or a built-in name.

    Built-in names: "point", "empty", "delta:n", "boundary:n".  The dict
    layout matches the JSON file format: dims, simplices, faces, action
    (action may be omitted for a trivial group).
    """
    if isinstance(spec, str):
        if spec == "point":
            return point_sset()
        if spec == "empty":
            return empty_sset(group or TRIVIAL_GROUP)
        if spec.startswith("delta:"):
            return standard_simplex(int(spec.split(":", 1)[1]))
        if spec.startswith("boundary:"):
            return boundary_simplex(int(spec.split(":", 1)[1]))
        raise ValueError(f"unknown built-in simplicial set {spec!r}")
    group = group or TRIVIAL_GROUP
    dim_of = {}
    for n_str, id_list in spec.get("simplices", {}).items():
        for x in id_list:
            x = int(x)
            if x in dim_of:
                raise ValueError(f"duplicate simplex identifier {x}")
            dim_of[x] = int(n_str)
    faces = {}
    for x_str, fs in spec.get("faces", {}).items():
        faces[int(x_str)] = tuple(SimplexRef(int(b), tuple(int(w) for w in word))
                                  for b, word in fs)
    action_spec = spec.get("action")
    if action_spec is None:
        if group.order != 1:
            raise ValueError("nontrivial group needs an explicit action")
        action = _trivial_action(dim_of)
    else:
        action = {}
        for g_str, m in action_spec.items():
            action[int(g_str)] = {int(x): int(y) for x, y in m.items()}
        for g in group.elements():
            if g not in action:
                if g == 0:
                    action[0] = {x: x for x in dim_of}
                else:
                    raise ValueError(f"missing action of group element {g}")
    s = GSSet(group, dim_of, faces, action)
    if "dims" in spec and int(spec["dims"]) != max(s.top_dim, -1):
        raise ValueError("dims field does not match the simplices listed")
    return s


def sset_to_json(x: GSSet) -> dict:
    return {
        "dims": x.top_dim,
        "simplices": {str(n): list(x.simplices[n]) for n in sorted(x.simplices)},
        "faces": {str(s): [[r.base, list(r.word)] for r in x.faces[s]]
                  for s in sorted(x.faces)},
        "action": {str(g): {str(s): x.action[g][s] for s in sorted(x.dim_of)}
                   for g in x.group.elements()},
    }


# ---------------------------------------------------------------------------
# simplicial maps


class SMap:
    """A simplicial map, stored on nondegenerate simplices.

    Values are SimplexRefs in the target (a nondegenerate simplex may map to
    a degenerate one).  ``equivariant``: the values commute with the common
    group of source and target; the caller's word when ``validate`` is off.
    """

    def __init__(self, source: GSSet, target: GSSet, values: dict[int, SimplexRef],
                 validate: bool = True, equivariant: bool = False):
        self.source = source
        self.target = target
        self.values = dict(values)
        self.equivariant = equivariant
        if validate:
            self._validate()

    def push(self, ref: SimplexRef) -> SimplexRef:
        return _apply_letters(self.values[ref.base], ref.word)

    def _validate(self):
        src, tgt = self.source, self.target
        for x in self.values:
            if x not in src.dim_of:
                raise ValueError(f"map has a value for {x}, which is not a source simplex")
        for x in src.ids():
            ref = self.values.get(x)
            if ref is None:
                raise ValueError(f"map has no value for simplex {x}")
            tgt._check_ref(ref, src.dim(x))
        for x in src.ids():
            n = src.dim(x)
            for i in range(n + 1 if n else 0):
                if self.push(src.face(x, i)) != apply_face(tgt, self.values[x], i):
                    raise ValueError(f"map does not commute with d_{i} at simplex {x}")
        if src.group == tgt.group:
            self.equivariant = all(
                self.values[src.act(g, x)] == tgt.act_ref(g, self.values[x])
                for g in src.group.generators for x in src.ids())

    def is_iso(self) -> bool:
        if any(r.degenerate for r in self.values.values()):
            return False
        for n in set(self.source.simplices) | set(self.target.simplices):
            img = sorted(self.values[x].base for x in self.source.ids_of_dim(n))
            if img != sorted(self.target.ids_of_dim(n)):
                return False
        return True

    def __repr__(self):
        return f"SMap({self.source!r} -> {self.target!r})"


def make_smap(source: GSSet, target: GSSet, values) -> SMap:
    vals = {}
    for x, v in values.items():
        if isinstance(v, SimplexRef):
            vals[int(x)] = v
        elif isinstance(v, int):
            vals[int(x)] = SimplexRef(v)
        else:
            b, word = v
            vals[int(x)] = SimplexRef(int(b), tuple(int(w) for w in word))
    return SMap(source, target, vals)


def identity_smap(x: GSSet) -> SMap:
    return SMap(x, x, {s: SimplexRef(s) for s in x.ids()}, validate=False, equivariant=True)


def compose_smaps(second: SMap, first: SMap) -> SMap:
    mid, mid2 = first.target, second.source
    if (mid.dim_of, mid.faces) != (mid2.dim_of, mid2.faces):
        raise ValueError("maps are not composable")
    # simplicial as both factors are; equivariant if both are, through one G-object
    return SMap(first.source, second.target,
                {x: second.push(ref) for x, ref in first.values.items()}, validate=False,
                equivariant=first.equivariant and second.equivariant
                and (mid.group, mid.action) == (mid2.group, mid2.action))


def smaps_equal(a: SMap, b: SMap) -> bool:
    return a.values == b.values


# ---------------------------------------------------------------------------
# subobjects, skeleta, fixed points


def sub_sset(x: GSSet, keep_ids) -> GSSet:
    """Subcomplex on the given nondegenerate ids (same identifiers)."""
    keep = set(keep_ids)
    for s in keep:
        if s not in x.dim_of:
            raise ValueError(f"unknown simplex {s}")
        if x.dim(s) > 0:
            for ref in x.faces[s]:
                if ref.base not in keep:
                    raise ValueError(f"ids not closed under faces at {s}")
    for g in x.group.generators:  # closed under generators, so under G
        for s in keep:
            if x.action[g][s] not in keep:
                raise ValueError(f"ids not closed under the action at {s}")
    # closed under faces and the action, so a G-sset because x is one
    return GSSet(x.group,
                 {s: x.dim_of[s] for s in keep},
                 {s: x.faces[s] for s in keep if x.dim_of[s] > 0},
                 {g: {s: x.action[g][s] for s in keep} for g in x.group.elements()},
                 validate=False)


def skeleton(x: GSSet, n: int) -> tuple[GSSet, SMap]:
    """The n-skeleton (empty for n = -1) with its inclusion."""
    keep = [s for s in x.ids() if x.dim(s) <= n]
    sk = sub_sset(x, keep)
    incl = SMap(sk, x, {s: SimplexRef(s) for s in keep})
    return sk, incl


def fixed_sset(x: GSSet, h: Subgroup) -> tuple[GSSet, SMap]:
    """The subcomplex of simplices fixed by every element of h (by its generators).

    Returned as a plain simplicial set (trivial action) with the inclusion
    into x.  Face closure is automatic but asserted; the inclusion is the
    identity on the kept ids, whose faces are x's, so it is not re-validated.
    """
    if h.parent != x.group:
        raise ValueError("subgroup of a different group")
    keep = [s for s in x.ids() if all(x.action[g][s] == s for g in h.generators)]
    keep_set = set(keep)
    for s in keep:
        if x.dim(s) > 0 and not all(r.base in keep_set for r in x.faces[s]):
            raise InternalError("fixed simplices must be closed under faces")
    fx = GSSet(TRIVIAL_GROUP,
               {s: x.dim_of[s] for s in keep},
               {s: x.faces[s] for s in keep if x.dim_of[s] > 0},
               _trivial_action(keep), validate=False)
    return fx, SMap(fx, x, {s: SimplexRef(s) for s in keep}, validate=False,
                    equivariant=fx.group == x.group)


# ---------------------------------------------------------------------------
# tensors with orbit sets and prisms


def gtensor(orbit: GSet, a: GSSet) -> GSSet:
    """Disjoint copies of a plain simplicial set indexed by a G-set.

    The group permutes the copies; the copy at point p keeps a's ids
    shifted by ``p * stride``.
    """
    if a.group.order != 1:
        raise ValueError("the tensor factor must be a plain simplicial set")
    stride = max(a.dim_of, default=-1) + 1
    dim_of = {}
    faces = {}
    for p in range(orbit.size):
        for s, n in a.dim_of.items():
            dim_of[p * stride + s] = n
            if n > 0:
                faces[p * stride + s] = tuple(
                    SimplexRef(p * stride + r.base, r.word) for r in a.faces[s])
    action = {}
    for g in orbit.group.elements():
        action[g] = {p * stride + s: orbit.act[g][p] * stride + s
                     for p in range(orbit.size) for s in a.dim_of}
    return GSSet(orbit.group, dim_of, faces, action, validate=False)


def disjoint_copies(a: GSSet, n_copies: int) -> tuple[GSSet, int]:
    """n disjoint copies of a plain simplicial set; returns (sset, stride)."""
    return (gtensor(trivial_gset(TRIVIAL_GROUP, n_copies), a),
            max(a.dim_of, default=-1) + 1)


@dataclass
class Prism:
    """X x Delta[1] with its two end inclusions and the projection.

    ``mid_id[(x, j)]`` is the nondegenerate (n+1)-simplex (s_j x, eta_j)
    where eta_j jumps from 0 to 1 after position j; these are the cells the
    interval shuffle map hits.  ``end_id[(x, eps)]`` are the two product
    copies of x at the interval ends.
    """

    product: GSSet
    end0: SMap
    end1: SMap
    proj: SMap
    end_id: dict
    mid_id: dict
    pair_of: dict


def _eta_collapse_set(eta: tuple[int, ...]):
    return {i for i in range(len(eta) - 1) if eta[i] == eta[i + 1]}


def prism(x: GSSet) -> Prism:
    """The product X x Delta[1], enumerated by joint nondegeneracy.

    Nondegenerate n-simplices are pairs (xi, eta) with xi a possibly
    degenerate simplex of X, eta a monotone 0/1 string, and no index at
    which both are degenerate; concretely: both end copies of each
    x (eta constant), the jump pairs (x, 0^a 1^(n+1-a)), and the middle
    cells (s_j x, eta_j) one dimension up.
    """
    pairs = []
    for s in x.ids():
        m = x.dim(s)
        pairs.append((SimplexRef(s), (0,) * (m + 1)))
        pairs.append((SimplexRef(s), (1,) * (m + 1)))
        for a in range(1, m + 1):
            pairs.append((SimplexRef(s), (0,) * a + (1,) * (m + 1 - a)))
        for j in range(m + 1):
            pairs.append((SimplexRef(s, (j,)), (0,) * (j + 1) + (1,) * (m + 1 - j)))

    def pair_dim(pr):
        return len(pr[1]) - 1

    pairs.sort(key=lambda pr: (pair_dim(pr), pr[0].base, pr[0].word, pr[1]))
    pid = {pr: i for i, pr in enumerate(pairs)}
    pair_of = {i: pr for pr, i in pid.items()}

    def normalize_pair(xi: SimplexRef, eta: tuple[int, ...]) -> SimplexRef:
        letters = []
        while True:
            common = sorted(set(xi.word) & _eta_collapse_set(eta))
            if not common:
                break
            c = common[0]
            xi = apply_face(x, xi, c)
            eta = eta[:c] + eta[c + 1:]
            letters.append(c)
        return _apply_letters(SimplexRef(pid[(xi, eta)]), letters)

    dim_of = {}
    faces = {}
    for pr, i in pid.items():
        n = pair_dim(pr)
        dim_of[i] = n
        if n > 0:
            xi, eta = pr
            fs = []
            for k in range(n + 1):
                fs.append(normalize_pair(apply_face(x, xi, k), eta[:k] + eta[k + 1:]))
            faces[i] = tuple(fs)
    action = {}
    for g in x.group.elements():
        action[g] = {pid[pr]: pid[(x.act_ref(g, pr[0]), pr[1])] for pr in pairs}
    product = GSSet(x.group, dim_of, faces, action)

    end_id = {}
    mid_id = {}
    for pr, i in pid.items():
        xi, eta = pr
        if not xi.word:
            zeros = sum(1 for v in eta if v == 0)
            if zeros == len(eta):
                end_id[(xi.base, 0)] = i
            elif zeros == 0:
                end_id[(xi.base, 1)] = i
        else:
            mid_id[(xi.base, xi.word[0])] = i

    end0 = SMap(x, product, {s: SimplexRef(end_id[(s, 0)]) for s in x.ids()})
    end1 = SMap(x, product, {s: SimplexRef(end_id[(s, 1)]) for s in x.ids()})
    proj = SMap(product, x, {i: pair_of[i][0] for i in pair_of})
    return Prism(product, end0, end1, proj, end_id, mid_id, pair_of)


# ---------------------------------------------------------------------------
# equivariant cell decomposition


@dataclass(frozen=True)
class CellSummand:
    representative: int
    stabilizer: Subgroup
    attaching: tuple[SimplexRef, ...]


@dataclass
class CellStructure:
    by_dim: dict[int, tuple[CellSummand, ...]]


class ReplayError(ValueError):
    pass


def _check_mono(f: SMap):
    """First witness that f is not a monomorphism, or None."""
    seen = {}
    for s in sorted(f.source.ids(), key=lambda s: (f.source.dim(s), s)):
        ref = f.values[s]
        if ref.degenerate:
            return s, "maps a nondegenerate simplex to a degenerate one"
        if ref.base in seen:
            return s, f"collides with simplex {seen[ref.base]}"
        seen[ref.base] = s
    return None


def cell_decomposition(f: SMap) -> CellStructure:
    """Orbit cells of the new simplices of an equivariant monomorphism.

    For each dimension n, one summand per orbit of nondegenerate
    n-simplices of B outside the image: the least representative, its
    stabilizer in the full group, and its faces in B (the attaching data).
    The stagewise pushout replay is checked; failure raises ReplayError.
    """
    if f.source.group != f.target.group:
        raise ValueError("cell decomposition needs a common acting group")
    if not f.equivariant:
        raise ValueError("cell decomposition needs an equivariant map")
    mono = _check_mono(f)
    if mono is not None:
        raise ValueError(f"map is not injective: simplex {mono[0]} {mono[1]}")
    b = f.target
    image = {f.values[s].base for s in f.source.ids()}
    by_dim = {}
    for orbit in orbits(b.action, b.group.elements()):
        new = [s not in image for s in orbit]
        if any(new) and not all(new):
            raise InternalError(
                "the image of an equivariant mono is closed under the action")
        if all(new):
            rep = orbit[0]
            by_dim.setdefault(b.dim(rep), []).append(
                CellSummand(rep, stabilizer(b.group, b.action, rep), b.faces.get(rep, ())))
    cs = CellStructure({n: tuple(by_dim[n]) for n in sorted(by_dim)})
    replay_cell_decomposition(f, cs)
    return cs


def replay_cell_decomposition(f: SMap, cs: CellStructure) -> None:
    """Re-attach the cells stage by stage and compare with the target.

    For each n the pushout of

        sum_x G/G_x (x) boundary Delta[n]  ->  A u Sk_{n-1} B
        sum_x G/G_x (x) Delta[n]           ->  (pushout)

    is built explicitly (fresh identifiers for the new top cells, faces
    transported along coset translation) and compared with A u Sk_n B via
    the canonical identification (coset c, x) -> c.least * x.  Any
    mismatch raises ReplayError.
    """
    b = f.target
    g = b.group
    image = {f.values[s].base for s in f.source.ids()}

    def stage_ids(n):
        return {s for s in b.ids() if s in image or b.dim(s) <= n}

    for n in sorted(b.simplices):
        summands = cs.by_dim.get(n, ())
        prev_ids = stage_ids(n - 1)
        cur_ids = stage_ids(n)
        fresh_start = max(b.dim_of, default=-1) + 1
        dim_of = {s: b.dim_of[s] for s in prev_ids}
        faces = {s: b.faces[s] for s in prev_ids if b.dim_of[s] > 0}
        to_b = {s: s for s in prev_ids}
        blocks = []  # (first fresh id, coset table); coset i's cell is start + i
        new_id = fresh_start
        for summand in summands:
            blocks.append((new_id, summand.stabilizer.cosets))
            for r in summand.stabilizer.cosets.reps:
                to_b[new_id] = b.action[r][summand.representative]
                dim_of[new_id] = n
                if n > 0:
                    faces[new_id] = tuple(
                        SimplexRef(b.action[r][ref.base], ref.word)
                        for ref in summand.attaching)
                new_id += 1
        action = {}
        for a in g.elements():
            m = {s: b.action[a][s] for s in prev_ids}
            for start, (reps, index) in blocks:
                for i, r in enumerate(reps):
                    m[start + i] = start + index[g.mult[a][r]]
            action[a] = m
        try:
            pushout = GSSet(g, dim_of, faces, action)
        except ValueError as exc:
            raise ReplayError(f"stage {n} pushout is not a valid G-sset: {exc}")
        # canonical comparison with A u Sk_n B
        if sorted(to_b.values()) != sorted(cur_ids):
            raise ReplayError(
                f"stage {n}: replayed cells do not biject onto the stage simplices")
        for s in pushout.ids():
            if pushout.dim(s) != b.dim(to_b[s]):
                raise ReplayError(f"stage {n}: dimension mismatch at {s}")
            if pushout.dim(s) > 0:
                for i, r in enumerate(pushout.faces[s]):
                    want = b.faces[to_b[s]][i]
                    got = SimplexRef(to_b[r.base], r.word)
                    if want != got:
                        raise ReplayError(f"stage {n}: face mismatch at ({s},{i})")
            for a in g.elements():
                if to_b[pushout.action[a][s]] != b.action[a][to_b[s]]:
                    raise ReplayError(f"stage {n}: action mismatch at ({a},{s})")


@dataclass(frozen=True)
class CofibrationVerdict:
    ok: bool
    witness: int | None = None
    reason: str = ""

    def to_json(self):
        return {"cofibration": self.ok, "witness": self.witness,
                "reason": self.reason}


def check_F_cofibration(f: SMap, family) -> CofibrationVerdict:
    """Monomorphism + every new simplex has stabilizer conjugate into the family."""
    if f.source.group != f.target.group or not f.equivariant:
        return CofibrationVerdict(False, None, "map is not equivariant")
    mono = _check_mono(f)
    if mono is not None:
        return CofibrationVerdict(False, mono[0], f"not a monomorphism: {mono[1]}")
    b = f.target
    image = {f.values[s].base for s in f.source.ids()}
    for s in sorted(b.ids(), key=lambda s: (b.dim(s), s)):
        if s in image:
            continue
        stab = stabilizer(b.group, b.action, s)
        if not any(conjugating_element(stab, k) is not None for k in family):
            return CofibrationVerdict(
                False, s,
                f"stabilizer {{{stab.label}}} is not subconjugate to the family")
    return CofibrationVerdict(True)

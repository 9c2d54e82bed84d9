"""Action laws checked on a generating set, against brute force over all pairs.

Each property starts from a valid action (a G-set, a ``gtensor`` G-sset or
the permutation action on its chains), changes the permutation of one group
element, a generator or not, and asserts that construction fails exactly
when the check of every pair (a, b) of group elements fails.  A G-sset's map
may also lose or gain a key, name a non-simplex or move a simplex to another
dimension.
"""

import json
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import exit_2_with_and_without_O, perm_mat, stock_groups
from orbitkit.chains import ChainComplex, normalized_chains
from orbitkit.groups import all_subgroups, cyclic_group, dihedral_group, symmetric_group
from orbitkit.gsets import GSet, coset_gset, make_gset, product_gset
from orbitkit.rings import ZZ
from orbitkit.simplicial import GSSet, SimplexRef, apply_face, boundary_simplex, gtensor, \
    sset_to_json, standard_simplex

# cyclic groups and the non-abelian S3 and D4
GROUPS = [cyclic_group(2), cyclic_group(4), cyclic_group(6), symmetric_group(3),
          dihedral_group(4)]


def all_pairs_law(g, act, compose, identity) -> bool:
    return act(0) == identity and all(
        compose(act(a), act(b)) == act(g.mult[a][b])
        for a in g.elements() for b in g.elements())


def generated(g, gens) -> set:
    els, frontier = {0}, [0]
    while frontier:
        nxt = [g.mult[x][s] for x in frontier for s in gens]
        frontier = [y for y in set(nxt) if y not in els]
        els.update(frontier)
    return els


def test_generators_generate_within_log2_order():
    for g in stock_groups():
        gens = g.generators
        assert generated(g, gens) == set(g.elements()), g
        assert 2 ** len(gens) <= g.order, g
        assert 0 not in gens


def _perturbed(data, g, perms):
    """Copy of perms with the entry of one element changed."""
    perms = [list(p) for p in perms]
    a = data.draw(st.sampled_from(list(g.elements())), label="element")
    kind = data.draw(st.sampled_from(["swap", "copy", "collide"]), label="kind")
    p = perms[a]
    if kind == "copy":
        perms[a] = list(perms[data.draw(st.sampled_from(list(g.elements())))])
    elif len(p) > 1:
        i, j = data.draw(st.lists(st.integers(0, len(p) - 1), min_size=2,
                                  max_size=2, unique=True))
        if kind == "swap":
            p[i], p[j] = p[j], p[i]
        else:
            p[i] = p[j]
    return perms


@settings(max_examples=80, deadline=None)
@given(group=st.sampled_from(GROUPS), data=st.data())
def test_gset_construction_matches_all_pairs(group, data):
    ks = data.draw(st.lists(st.sampled_from(all_subgroups(group)), min_size=1,
                            max_size=2))
    x = coset_gset(group, ks[0])
    if len(ks) == 2:
        x = product_gset(x, coset_gset(group, ks[1]))
    perms = _perturbed(data, group, x.act)
    size = x.size
    valid = all(sorted(p) == list(range(size)) for p in perms) and all_pairs_law(
        group, lambda a: tuple(perms[a]), lambda p, q: tuple(p[i] for i in q),
        tuple(range(size)))
    try:
        make_gset(group, perms)
        built = True
    except ValueError:
        built = False
    assert built == valid


@settings(max_examples=150, deadline=None)
@given(group=st.sampled_from(GROUPS), data=st.data(),
       base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(1, 2))
def test_gsset_construction_matches_all_pairs(group, data, base, n):
    k = data.draw(st.sampled_from(all_subgroups(group)))
    x = gtensor(coset_gset(group, k), base(n))
    action = {a: dict(x.action[a]) for a in group.elements()}
    a = data.draw(st.sampled_from(list(group.elements())), label="element")
    _perturb_row(data, x, action, a)
    try:
        GSSet(group, x.dim_of, x.faces, action)
        built = True
    except ValueError:
        built = False
    assert built == _all_pairs_valid(group, x, action)


GSSET_KINDS = ["swap", "copy", "collide", "dimension", "drop", "add", "nonsimplex"]


def _perturb_row(data, x, action, a):
    """Change the map of element a in place, by a kind drawn from ``GSSET_KINDS``."""
    kind = data.draw(st.sampled_from(GSSET_KINDS), label="kind")
    m, ids, outside = action[a], sorted(x.dim_of), max(x.dim_of) + 1
    if kind == "copy":
        action[a] = dict(action[data.draw(st.sampled_from(list(action)))])
    elif kind == "dimension":  # swap the images of two simplices of different dimensions
        assume(len(x.simplices) > 1)
        s = data.draw(st.sampled_from(ids))
        t = data.draw(st.sampled_from([t for t in ids if x.dim_of[t] != x.dim_of[s]]))
        m[s], m[t] = m[t], m[s]
    elif kind == "drop":
        del m[data.draw(st.sampled_from(ids))]
    elif kind == "add":
        m[outside] = outside
    elif kind == "nonsimplex":
        m[data.draw(st.sampled_from(ids))] = outside
    else:
        # two simplices of one dimension, so that the map keeps dimensions
        dim = data.draw(st.sampled_from([d for d, ids_d in sorted(x.simplices.items())
                                         if len(ids_d) > 1]))
        s, t = data.draw(st.lists(st.sampled_from(x.ids_of_dim(dim)), min_size=2,
                                  max_size=2, unique=True))
        m[s], m[t] = (m[t], m[s]) if kind == "swap" else (m[t], m[t])


def _all_pairs_valid(group, x, action) -> bool:
    """Every map a dimension-preserving permutation of the simplices, faces
    equivariant and the law holding, all checked for every element."""
    ids = sorted(x.dim_of)
    if not all(sorted(m) == ids and sorted(m.values()) == ids
               and all(x.dim_of[m[s]] == x.dim_of[s] for s in ids)
               for m in action.values()):
        return False
    faces_ok = all(
        SimplexRef(action[b][r.base], r.word) == x.faces[action[b][s]][i]
        for b in group.elements() for s, fs in x.faces.items()
        for i, r in enumerate(fs))
    return faces_ok and all_pairs_law(group, action.__getitem__,
                                      lambda p, q: {s: p[t] for s, t in q.items()},
                                      {s: s for s in ids})


@pytest.mark.parametrize("kind", GSSET_KINDS[3:])
@pytest.mark.parametrize("element", [2, 3])  # C4 is generated by 1
def test_bad_non_generator_row_exits_2(capsys, tmp_path, kind, element):
    """Each defect in the row of a non-generator raises ValueError, and the
    CLI exits 2 on it, also under ``python -O``, with no traceback."""
    c4 = cyclic_group(4)
    assert element not in c4.generators
    x = gtensor(coset_gset(c4, all_subgroups(c4)[0]), standard_simplex(1))
    action = {a: dict(x.action[a]) for a in c4.elements()}
    m, outside = action[element], max(x.dim_of) + 1
    vertex, edge = x.ids_of_dim(0)[0], x.ids_of_dim(1)[0]
    if kind == "dimension":
        m[vertex], m[edge] = m[edge], m[vertex]
    elif kind == "drop":
        del m[edge]
    elif kind == "add":
        m[outside] = outside
    else:
        m[vertex] = outside
    assert not _all_pairs_valid(c4, x, action)
    with pytest.raises(ValueError):
        GSSet(c4, x.dim_of, x.faces, action)
    data = sset_to_json(x)
    data["action"] = {str(a): {str(s): t for s, t in am.items()} for a, am in action.items()}
    sset, group = tmp_path / "sset.json", tmp_path / "c4.json"
    sset.write_text(json.dumps(data))
    group.write_text(json.dumps({"order": 4, "mult": c4.mult}))
    exit_2_with_and_without_O(capsys, ["homology", "--group", str(group), "--sset", str(sset),
                                       "--ring", "Z"], "input error: sset: ")


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from(GROUPS), data=st.data(),
       base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(1, 2))
def test_chain_action_construction_matches_all_pairs(group, data, base, n):
    k = data.draw(st.sampled_from(all_subgroups(group)))
    c = normalized_chains(gtensor(coset_gset(group, k), base(n)), ZZ)
    acts = [list(x.act) for x in c.action]
    d = data.draw(st.integers(0, c.top), label="degree")
    acts[d] = [tuple(p) for p in _perturbed(data, group, acts[d])]
    diffs = {e: c.d(e) for e in range(1, c.top + 1)}
    valid = all(sorted(p) == list(range(c.rank(d))) for p in acts[d]) and all_pairs_law(
        group, lambda a: acts[d][a], lambda p, q: tuple(p[i] for i in q),
        tuple(range(c.rank(d)))) and all(
        perm_mat(ZZ, acts[e - 1][b]) @ diffs[e] == diffs[e] @ perm_mat(ZZ, acts[e][b])
        for b in group.elements() for e in range(1, c.top + 1))
    try:
        ChainComplex(ZZ, c.ranks, diffs,
                     [GSet(group, r, tuple(act)) for r, act in zip(c.ranks, acts)])
        built = True
    except ValueError:
        built = False
    assert built == valid


def test_non_generator_defect_is_caught():
    # C4 is generated by 1; a wrong permutation for 3 only shows in a
    # product of the generator with a non-generator
    c4 = cyclic_group(4)
    assert c4.generators == (1,)
    perms = [list(p) for p in coset_gset(c4, all_subgroups(c4)[0]).act]
    perms[3] = perms[1]
    with pytest.raises(ValueError, match="homomorphism"):
        make_gset(c4, perms)


# ---------------------------------------------------------------------------
# faces and simplicial identities, checked at one simplex per orbit


def _ref_ok(dim_of, ref, want: int) -> bool:
    """A known base, a strictly decreasing word of letters in range, dimension want."""
    base, word = ref
    if base not in dim_of:
        return False
    p = dim_of[base]
    return (all(a > b for a, b in zip(word, word[1:])) and p + len(word) == want
            and all(0 <= letter <= p + k for k, letter in enumerate(reversed(word))))


def _identity_failure(x):
    """The first (i, j, s) with d_i d_j s != d_{j-1} d_i s, scanning every simplex."""
    for s, n in x.dim_of.items():
        for j in range(n + 1 if n > 1 else 0):
            for i in range(j):
                if apply_face(x, x.faces[s][j], i) != apply_face(x, x.faces[s][i], j - 1):
                    return i, j, s
    return None


def _full_scan_verdict(group, x, action):
    """Reference: None if valid, else "identity" or "other", checking faces, the
    simplicial identities at every simplex and the action laws on all pairs."""
    if not all(_ref_ok(x.dim_of, r, n - 1) and len(x.faces[s]) == n + 1
               for s, n in x.dim_of.items() if n for r in x.faces.get(s, ())) \
            or any(n and s not in x.faces for s, n in x.dim_of.items()):
        return "other"
    if not _all_pairs_valid(group, x, action):
        return "other"
    return None if _identity_failure(x) is None else "identity"


def _perturb_faces(data, x, faces, action):
    """Change face i of a simplex s, at s alone or at every g s (as g o the new face)."""
    s = data.draw(st.sampled_from([s for s in sorted(x.dim_of) if x.dim_of[s] > 0]))
    n = x.dim_of[s]
    i = data.draw(st.integers(0, n))
    kind = data.draw(st.sampled_from(["simplex", "degenerate", "bad"]), label="face")
    if kind == "degenerate" and n >= 2:
        base = data.draw(st.sampled_from(x.ids_of_dim(n - 2)))
        new = SimplexRef(base, (data.draw(st.integers(0, n - 2)),))
    elif kind == "bad":
        new = data.draw(st.sampled_from([SimplexRef(max(x.dim_of) + 1), SimplexRef(s),
                                         SimplexRef(x.faces[s][0].base, (0, 0))]))
    else:
        new = SimplexRef(data.draw(st.sampled_from(x.ids_of_dim(n - 1))))
    targets = {s: new}
    if data.draw(st.booleans(), label="whole orbit") and new.base in x.dim_of:
        targets = {action[a][s]: SimplexRef(action[a][new.base], new.word)
                   for a in x.group.elements()}
    for t, ref in targets.items():
        faces[t] = faces[t][:i] + (ref,) + faces[t][i + 1:]


@settings(max_examples=300, deadline=None)
@given(group=st.sampled_from(GROUPS), data=st.data(),
       base_n=st.sampled_from([(standard_simplex, 1), (standard_simplex, 2),
                               (standard_simplex, 3), (boundary_simplex, 2),
                               (boundary_simplex, 3)]))
def test_gsset_faces_checked_per_orbit_match_a_scan_of_every_simplex(group, data, base_n):
    """Faces changed at one simplex or across an orbit, sometimes with a changed
    action too: refused exactly when the full scan refuses, and a fault in the
    simplicial identities alone is named at the simplex the scan finds first."""
    base, n = base_n
    k = data.draw(st.sampled_from(all_subgroups(group)))
    x = gtensor(coset_gset(group, k), base(n))
    faces = dict(x.faces)
    action = {a: dict(x.action[a]) for a in group.elements()}
    _perturb_faces(data, x, faces, action)
    if data.draw(st.booleans(), label="action too"):
        _perturb_row(data, x, action, data.draw(st.sampled_from(list(group.elements()))))
    raw = GSSet(group, x.dim_of, faces, action, validate=False)
    verdict = _full_scan_verdict(group, raw, action)
    try:
        GSSet(group, x.dim_of, faces, action)
        error = None
    except ValueError as exc:
        error = str(exc)
    assert (error is None) == (verdict is None), (verdict, error)
    if verdict == "identity":
        assert error == "simplicial identity fails at (i={}, j={}, simplex={})".format(
            *_identity_failure(raw))


def test_identity_broken_across_a_whole_orbit_is_refused():
    """Face 0 of every triangle of C4/e x Delta[2] replaced by its face 1: the
    faces stay equivariant, so only the identity check at an orbit's least id
    sees it, and the message names the first triangle, as a scan of all does."""
    c4 = cyclic_group(4)
    x = gtensor(coset_gset(c4, all_subgroups(c4)[0]), standard_simplex(2))
    faces = {s: (fs[1],) + fs[1:] if x.dim_of[s] == 2 else fs for s, fs in x.faces.items()}
    raw = GSSet(c4, x.dim_of, faces, x.action, validate=False)
    assert _all_pairs_valid(c4, raw, x.action)
    first = _identity_failure(raw)
    assert first[2] == min(x.ids_of_dim(2))
    with pytest.raises(ValueError, match=re.escape(
            "simplicial identity fails at (i={}, j={}, simplex={})".format(*first))):
        GSSet(c4, x.dim_of, faces, x.action)


def test_a_face_both_unequivariant_and_off_the_identities_names_equivariance():
    """The action checks run before the simplicial identities: a face changed at
    one triangle only breaks both, and the error names the equivariance."""
    c4 = cyclic_group(4)
    x = gtensor(coset_gset(c4, all_subgroups(c4)[0]), standard_simplex(2))
    t = x.ids_of_dim(2)[1]
    faces = {**x.faces, t: (x.faces[t][1],) + x.faces[t][1:]}
    assert _identity_failure(GSSet(c4, x.dim_of, faces, x.action, validate=False))
    with pytest.raises(ValueError, match="face 0 of simplex .* is not equivariant"):
        GSSet(c4, x.dim_of, faces, x.action)

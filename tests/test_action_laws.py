"""Action laws checked on a generating set, against brute force over all pairs.

Each property starts from a valid action (a G-set, a ``gtensor`` G-sset or
a matrix representation), changes the permutation or matrix of one group
element, a generator or not, and asserts that construction fails exactly
when the check of every pair (a, b) of group elements fails.
"""

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit.chains import ChainComplex, normalized_chains
from orbitkit.exactla import Mat
from orbitkit.groups import all_subgroups, cyclic_group, dihedral_group, \
    direct_product, klein_four_group, symmetric_group
from orbitkit.gsets import coset_gset, make_gset, product_gset
from orbitkit.rings import ZZ
from orbitkit.simplicial import GSSet, SimplexRef, boundary_simplex, gtensor, \
    standard_simplex

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


def stock_groups():
    small = [cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3),
             dihedral_group(4), klein_four_group()]
    c2_cubed = direct_product(klein_four_group(), cyclic_group(2))
    yield from (cyclic_group(n) for n in range(1, 65))
    yield from (symmetric_group(n) for n in range(1, 5))
    yield from (dihedral_group(n) for n in range(2, 33))
    yield from (direct_product(a, b) for a in small for b in small)
    yield direct_product(c2_cubed, c2_cubed)
    yield direct_product(direct_product(cyclic_group(4), cyclic_group(4)),
                         cyclic_group(4))


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


@settings(max_examples=80, deadline=None)
@given(group=st.sampled_from(GROUPS), data=st.data(),
       base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(1, 2))
def test_gsset_construction_matches_all_pairs(group, data, base, n):
    k = data.draw(st.sampled_from(all_subgroups(group)))
    x = gtensor(coset_gset(group, k), base(n))
    ids = sorted(x.dim_of)
    action = {a: dict(x.action[a]) for a in group.elements()}
    a = data.draw(st.sampled_from(list(group.elements())), label="element")
    kind = data.draw(st.sampled_from(["swap", "copy", "collide"]), label="kind")
    if kind == "copy":
        action[a] = dict(action[data.draw(st.sampled_from(list(group.elements())))])
    else:
        # two simplices of one dimension, so that the map keeps dimensions
        dim = data.draw(st.sampled_from([d for d, ids_d in sorted(x.simplices.items())
                                         if len(ids_d) > 1]))
        s, t = data.draw(st.lists(st.sampled_from(x.ids_of_dim(dim)), min_size=2,
                                  max_size=2, unique=True))
        m = action[a]
        m[s], m[t] = (m[t], m[s]) if kind == "swap" else (m[t], m[t])
    faces_ok = all(
        SimplexRef(action[b][r.base], r.word) == x.faces[action[b][s]][i]
        for b in group.elements() for s, fs in x.faces.items()
        for i, r in enumerate(fs))
    valid = all(sorted(m.values()) == ids for m in action.values()) and faces_ok \
        and all_pairs_law(group, action.__getitem__,
                          lambda p, q: {s: p[t] for s, t in q.items()},
                          {s: s for s in ids})
    try:
        GSSet(group, x.dim_of, x.faces, action)
        built = True
    except ValueError:
        built = False
    assert built == valid


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from(GROUPS), data=st.data(),
       base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(1, 2))
def test_matrix_rep_construction_matches_all_pairs(group, data, base, n):
    k = data.draw(st.sampled_from(all_subgroups(group)))
    c = normalized_chains(gtensor(coset_gset(group, k), base(n)), ZZ)
    rep = {a: {d: c.rep_mat(a, d) for d in range(c.top + 1)}
           for a in group.elements()}
    a = data.draw(st.sampled_from(list(group.elements())), label="element")
    d = data.draw(st.integers(0, c.top), label="degree")
    r = c.rank(d)
    kind = data.draw(st.sampled_from(["entry", "copy", "swap"]))
    m = Mat(ZZ, r, r, rep[a][d].rows)
    i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
    if kind == "entry":
        m.rows[i][j] += data.draw(st.sampled_from([-1, 1]))
    elif kind == "copy":
        m = rep[data.draw(st.sampled_from(list(group.elements())))][d]
    else:
        for row in m.rows:
            row[i], row[j] = row[j], row[i]
    rep[a][d] = m
    diffs = {e: c.d(e) for e in range(1, c.top + 1)}
    valid = all(
        all_pairs_law(group, lambda b: rep[b][e], Mat.__matmul__,
                      Mat.identity(ZZ, c.rank(e)))
        for e in range(c.top + 1)) and all(
        rep[b][e - 1] @ diffs[e] == diffs[e] @ rep[b][e]
        for b in group.elements() for e in range(1, c.top + 1))
    try:
        ChainComplex(ZZ, c.ranks, diffs, group=group, rep=rep)
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

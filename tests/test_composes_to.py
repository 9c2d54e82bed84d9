"""``composes_to(second, first, h)`` against composing and comparing, and
finite-set corestriction against ``VMap.make``.

In each value category ``composes_to(a, b, h)`` must equal
``maps_equal(h, compose(a, b))`` on every composable pair: maps of finite
sets, simplicial maps between standard simplices (degenerate values
included), and chain maps given as maps of bases, as matrices, or one of
each.  The candidate h is the composite itself, the composite in the other
representation, the composite with one entry changed, or an unrelated map.
"""

import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_mat
from orbitkit.chains import ChainComplex, ChainMap
from orbitkit.elmendorf import ChainCat, FinSSetCat, FinSetCat, VMap
from orbitkit.groups import all_subgroups, symmetric_group
from orbitkit.gsets import coset_gset
from orbitkit.rings import ZZ
from orbitkit.simplicial import SMap, SimplexRef, standard_simplex


def _vmap(data, source: int, target: int) -> VMap:
    return VMap(source, target, tuple(data.draw(
        st.lists(st.integers(0, target - 1), min_size=source, max_size=source))
        if target else ()))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_finset_composes_to_is_compose_and_compare(data, sizes):
    a, b, c = sizes
    if b == 0:
        a = 0  # the only maps into the empty set start there
    if c == 0:
        a = b = 0
    vc = FinSetCat()
    first, second = _vmap(data, a, b), _vmap(data, b, c)
    comp = vc.compose(second, first)
    kind = data.draw(st.sampled_from(["same", "changed", "other", "resized"]))
    h = comp
    if kind == "changed" and a and c > 1:
        i = data.draw(st.integers(0, a - 1))
        h = VMap(a, c, comp.fn[:i] + ((comp.fn[i] + 1) % c,) + comp.fn[i + 1:])
    elif kind == "other":
        h = _vmap(data, a, c)
    elif kind == "resized":
        h = VMap(a, c + 1, comp.fn)
    assert vc.composes_to(second, first, h) == vc.maps_equal(h, comp)


def _monotone_smap(source: int, target: int, vertex_map) -> SMap:
    """The map Delta[source] -> Delta[target] of a monotone vertex map, in normal form:
    a simplex goes to the simplex on its distinct images, degenerate along the
    positions where two consecutive vertices meet."""
    x, y = standard_simplex(source), standard_simplex(target)
    ids_x = {v: i for i, v in enumerate(
        vs for k in range(source + 1) for vs in combinations(range(source + 1), k + 1))}
    ids_y = {v: i for i, v in enumerate(
        vs for k in range(target + 1) for vs in combinations(range(target + 1), k + 1))}
    values = {}
    for verts, s in ids_x.items():
        img = [vertex_map[v] for v in verts]
        word = tuple(sorted((i for i in range(len(img) - 1) if img[i] == img[i + 1]),
                            reverse=True))
        values[s] = SimplexRef(ids_y[tuple(sorted(set(img)))], word)
    return SMap(x, y, values)  # validated: a simplicial map


def _monotone(data, source: int, target: int):
    return sorted(data.draw(st.lists(st.integers(0, target), min_size=source + 1,
                                     max_size=source + 1)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dims=st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_finsset_composes_to_is_compose_and_compare(data, dims):
    p, q, r = dims
    vc = FinSSetCat()
    f1, f2 = _monotone(data, p, q), _monotone(data, q, r)
    first, second = _monotone_smap(p, q, f1), _monotone_smap(q, r, f2)
    comp = vc.compose(second, first)
    kind = data.draw(st.sampled_from(["same", "rebuilt", "other", "plain", "wider"]))
    if kind == "rebuilt":  # the same values, built from the composite vertex map
        h = _monotone_smap(p, r, [f2[v] for v in f1])
    elif kind == "wider":  # the same vertex map into a larger simplex
        h = _monotone_smap(p, r + 1, [f2[v] for v in f1])
    elif kind == "other":
        h = _monotone_smap(p, r, _monotone(data, p, r))
    elif kind == "plain":  # another source with the same faces is the same value
        src = standard_simplex(p)
        h = SMap(src, comp.target, comp.values, validate=False)
    else:
        h = comp
    if kind == "rebuilt":
        assert vc.maps_equal(h, comp)  # so some degenerate values compare equal
    assert vc.composes_to(second, first, h) == vc.maps_equal(h, comp)


def _complex(ranks) -> ChainComplex:
    return ChainComplex(ZZ, ranks, {})  # zero differentials: any matrices are chain maps


def _chain_map(data, source: ChainComplex, target: ChainComplex, of_bases: bool) -> ChainMap:
    degrees = range(max(source.top, target.top) + 1)
    if of_bases:
        return ChainMap.of_bases(source, target, {n: tuple(data.draw(st.lists(
            st.one_of(st.none(), st.integers(0, source.rank(n) - 1)) if source.rank(n)
            else st.none(), min_size=target.rank(n), max_size=target.rank(n))))
            for n in degrees})
    return ChainMap(source, target, {n: dense_mat(ZZ, target.rank(n), source.rank(n), [
        data.draw(st.lists(st.integers(-1, 1), min_size=source.rank(n),
                           max_size=source.rank(n))) for _ in range(target.rank(n))])
        for n in degrees}, validate=False)


def _other_kind(m: ChainMap) -> ChainMap:
    """m as matrices if it is a map of bases, else as a map of bases if its
    matrices have at most one 1 per row and no other entry, else m."""
    degrees = range(m.top + 1)
    if m.sel is not None:
        return ChainMap(m.source, m.target, {n: m.mat(n) for n in degrees}, validate=False)
    sel = {}
    for n in degrees:
        rows = m.mat(n).rows
        if any(any(row) and sorted(row) != [0] * (len(row) - 1) + [1] for row in rows):
            return m
        sel[n] = tuple(row.index(1) if 1 in row else None for row in rows)
    return ChainMap.of_bases(m.source, m.target, sel)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), top=st.integers(0, 1),
       bases=st.lists(st.booleans(), min_size=3, max_size=3))
def test_chain_composes_to_is_compose_and_compare(data, top, bases):
    """Maps of bases, matrix maps and mixed pairs; h of either kind."""
    a, b, c = (_complex(data.draw(st.lists(st.integers(0, 3), min_size=top + 1,
                                           max_size=top + 1))) for _ in range(3))
    vc = ChainCat(ZZ)
    first, second = _chain_map(data, a, b, bases[0]), _chain_map(data, b, c, bases[1])
    comp = vc.compose(second, first)
    kind = data.draw(st.sampled_from(["same", "other kind", "other", "copied source",
                                      "wider source"]))
    if kind == "same":
        h = comp
    elif kind == "other kind":  # the composite as matrices, or as a map of bases
        h = _other_kind(comp)
        assert vc.maps_equal(h, comp)
    elif kind == "other":
        h = _chain_map(data, a, c, bases[2])
    elif kind == "copied source":  # equal complexes that are not the same object
        h = ChainMap.of_bases(_complex(a.ranks), c, comp.sel) if comp.sel is not None \
            else ChainMap(_complex(a.ranks), c, {n: comp.mat(n) for n in range(top + 1)},
                          validate=False)
    else:  # the composite's tuples, from a source with one more basis vector
        wider = _complex((a.rank(0) + 1,) + a.ranks[1:])
        sel = comp.sel if comp.sel is not None else _other_kind(comp).sel
        h = ChainMap.of_bases(wider, c, sel) if sel is not None \
            else _chain_map(data, wider, c, True)
    assert vc.composes_to(second, first, h) == vc.maps_equal(h, comp)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(0, 5), h=st.integers(0, 5), size=st.integers(0, 4))
def test_finset_corestrict_through_the_position_table_is_make(data, k, h, size):
    """Corestriction through ``fixed``'s inclusion gives the map, or the error,
    that ``VMap.make`` gives on the positions of the images."""
    g = symmetric_group(3)
    subs = all_subgroups(g)
    x = coset_gset(g, subs[k])
    vc = FinSetCat()
    incl = vc.fixed(x, subs[h])
    m = _vmap(data, size if x.size else 0, x.size)
    position = {p: i for i, p in enumerate(incl.fn)}
    try:
        want = VMap.make(m.source, incl.source, map(position.get, m.fn))
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            vc.corestrict(m, incl)
    else:
        assert vc.corestrict(m, incl) == want

"""Simplicial engine against an independent monotone-map oracle, plus
skeleta, fixed points, tensors, prisms, cell decompositions."""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbitkit
from conftest import swap_boundary1, vee, with_trivial_action
from orbitkit.groups import all_subgroups, cyclic_group, dihedral_group, subgroup, \
    symmetric_group, trivial_subgroup, full_subgroup
from orbitkit.gsets import coset_gset, regular_gset
from orbitkit.simplicial import ReplayError, SMap, SimplexRef, \
    apply_operator, boundary_simplex, build_sset, cell_decomposition, \
    check_F_cofibration, compose_smaps, disjoint_copies, empty_sset, fixed_sset, \
    gtensor, identity_smap, make_smap, point_sset, prism, \
    replay_cell_decomposition, skeleton, smaps_equal, sset_to_json, \
    standard_simplex, sub_sset


# ---------------------------------------------------------------------------
# the independent oracle: simplices as (base, monotone surjection)


def collapse_surj(word, length):
    """The surjection tuple of a degeneracy word (length = n+1 values)."""
    v = set(word)
    out = [0]
    for k in range(length - 1):
        out.append(out[-1] if k in v else out[-1] + 1)
    return tuple(out)


def ref_to_state(sset, ref):
    n = sset.ref_dim(ref)
    return (ref.base, collapse_surj(ref.word, n + 1))


def state_to_ref(state):
    b, alpha = state
    word = sorted((k for k in range(len(alpha) - 1) if alpha[k] == alpha[k + 1]),
                  reverse=True)
    return SimplexRef(b, tuple(word))


def oracle_eval(sset, base, alpha):
    """Normalize (base, arbitrary monotone map) by epi-mono factorization."""
    p = sset.dim(base)
    hit = set(alpha)
    if len(hit) == p + 1:
        return (base, tuple(alpha))
    v = max(set(range(p + 1)) - hit)
    face = sset.face(base, v)
    gamma = collapse_surj(face.word, p)
    alpha2 = tuple(a - 1 if a > v else a for a in alpha)
    comp = tuple(gamma[a] for a in alpha2)
    return oracle_eval(sset, face.base, comp)


def oracle_apply(sset, state, op):
    b, alpha = state
    kind, i = op
    if kind == "s":
        return (b, alpha[:i + 1] + (alpha[i],) + alpha[i + 1:])
    return oracle_eval(sset, b, alpha[:i] + alpha[i + 1:])


def all_words(start_dim, max_len):
    """Every operator word valid from a simplex of the given dimension."""
    def extend(word, dim):
        if len(word) == max_len:
            yield word
            return
        yield word
        for i in range(dim + 1):
            yield from extend(word + (("s", i),), dim + 1)
        if dim >= 1:
            for i in range(dim + 1):
                yield from extend(word + (("d", i),), dim - 1)
    yield from extend((), start_dim)


@pytest.mark.parametrize("fixture", [
    lambda: standard_simplex(2),
    lambda: boundary_simplex(2),
    lambda: vee(cyclic_group(2)),
    lambda: prism(standard_simplex(1)).product,
])
def test_engine_matches_rewriting_oracle(fixture):
    sset = fixture()
    for s in sset.ids():
        start = SimplexRef(s)
        for word in all_words(sset.dim(s), 4):
            ref = start
            state = ref_to_state(sset, start)
            for op in word:
                ref = apply_operator(sset, ref, op)
                state = oracle_apply(sset, state, op)
            assert ref == state_to_ref(state), (s, word)


def test_apply_operator_examples():
    d1 = standard_simplex(1)
    edge = SimplexRef(2)
    assert apply_operator(d1, edge, ("d", 0)) == SimplexRef(1)
    v = SimplexRef(0)
    assert apply_operator(d1, apply_operator(d1, v, ("s", 0)), ("d", 0)) == v
    # s0 s0 normalizes to s1 s0; then d1 cancels one letter leaving s0
    ss = apply_operator(d1, apply_operator(d1, v, ("s", 0)), ("s", 0))
    assert ss == SimplexRef(0, (1, 0))
    assert apply_operator(d1, ss, ("d", 1)) == SimplexRef(0, (0,))


def test_apply_operator_range_errors():
    d1 = standard_simplex(1)
    with pytest.raises(ValueError):
        apply_operator(d1, SimplexRef(0), ("d", 0))  # vertices have no faces
    with pytest.raises(ValueError):
        apply_operator(d1, SimplexRef(2), ("d", 2))
    with pytest.raises(ValueError):
        apply_operator(d1, SimplexRef(2), ("s", 2))


# ---------------------------------------------------------------------------
# construction and validation


def test_standard_simplices():
    assert len(list(standard_simplex(0).ids())) == 1
    b2 = boundary_simplex(2)
    assert [len(b2.ids_of_dim(n)) for n in (0, 1)] == [3, 3]
    assert b2.ids_of_dim(2) == ()
    assert boundary_simplex(0).top_dim == -1


def test_builtin_simplex_over_the_cap_is_rejected_before_enumeration():
    with pytest.raises(ValueError, match="exceeds cap"):
        build_sset("delta:1000")
    with pytest.raises(ValueError, match="exceeds cap"):
        build_sset("boundary:99")


def test_build_sset_by_name_and_dict_roundtrip():
    b2 = build_sset("boundary:2")
    data = sset_to_json(b2)
    again = build_sset(data)
    assert again.dim_of == b2.dim_of
    assert again.faces == b2.faces
    assert build_sset("point").top_dim == 0
    assert build_sset("empty").top_dim == -1


def test_build_sset_rejects_identity_violation():
    # a 2-simplex whose faces do not satisfy d_i d_j = d_{j-1} d_i
    data = {
        "simplices": {"0": [0, 1, 2], "1": [3, 4, 5], "2": [6]},
        "faces": {
            "3": [[1, []], [0, []]],
            "4": [[2, []], [0, []]],
            "5": [[2, []], [1, []]],
            # wrong face order: d0 should be the edge opposite vertex 0
            "6": [[3, []], [4, []], [5, []]],
        },
    }
    with pytest.raises(ValueError, match="identity"):
        build_sset(data)


# each fails d_i d_j = d_{j-1} d_i first at the named (i, j, simplex)
BAD_IDENTITIES = {
    # d_0 d_0 of the 2-simplex 6 is d_0 of the edge 3, which is 1, but d_0 d_1 is 2
    "plain-faces": ({"simplices": {"0": [0, 1, 2], "1": [3, 4, 5], "2": [6]},
                     "faces": {"3": [[1, []], [0, []]], "4": [[2, []], [0, []]],
                               "5": [[2, []], [1, []]],
                               "6": [[3, []], [4, []], [5, []]]}},
                    "(i=0, j=1, simplex=6)"),
    # d_2 of the 2-simplex 3 is the degenerate s_0(1), so d_0 d_2 is 1, but d_1 d_0 is 0
    "degenerate-face": ({"simplices": {"0": [0, 1], "1": [2], "2": [3]},
                         "faces": {"2": [[1, []], [0, []]],
                                   "3": [[2, []], [2, []], [1, [0]]]}},
                        "(i=0, j=2, simplex=3)"),
}


@pytest.mark.parametrize("name", sorted(BAD_IDENTITIES))
def test_simplicial_identity_failure_names_its_indices(name):
    data, where = BAD_IDENTITIES[name]
    with pytest.raises(ValueError, match=re.escape(f"simplicial identity fails at {where}")):
        build_sset(data)


def test_simplicial_identity_failures_raise_under_python_O():
    script = textwrap.dedent("""
        import json, sys
        from orbitkit.simplicial import build_sset
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        for data, where in json.loads(sys.argv[1]).values():
            try:
                build_sset(data)
            except ValueError as exc:
                if str(exc) == f"simplicial identity fails at {where}":
                    continue
                sys.exit(f"wrong message: {exc}")
            sys.exit(f"accepted: {where}")
    """)
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script, json.dumps(BAD_IDENTITIES)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_build_sset_rejects_non_homomorphic_action(c2):
    data = sset_to_json(boundary_simplex(1))
    data["action"] = {"0": {"0": 0, "1": 1}, "1": {"0": 0, "1": 0}}
    with pytest.raises(ValueError, match="permutation"):
        build_sset(data, c2)


def test_swap_of_two_points_is_valid(c2):
    x = swap_boundary1(c2)
    assert x.top_dim == 0


def test_orientation_reversing_edge_swap_is_rejected(c2):
    # swapping vertices 1,2 of the triangle boundary would have to flip
    # the edge {1,2}, which no simplicial action can do
    b2 = boundary_simplex(2)
    data = sset_to_json(b2)
    data["action"] = {"0": {str(i): i for i in range(6)},
                      "1": {"0": 0, "1": 2, "2": 1, "3": 4, "4": 3, "5": 5}}
    with pytest.raises(ValueError, match="equivariant"):
        build_sset(data, c2)


# ---------------------------------------------------------------------------
# fixed points and skeleta


def test_fixed_sset_trivial_action(c2):
    x = with_trivial_action(standard_simplex(1), c2)
    fx, incl = fixed_sset(x, full_subgroup(c2))
    assert sorted(fx.ids()) == sorted(x.ids())
    assert incl.values[2] == SimplexRef(2)


def test_fixed_sset_free_action_is_empty(c2):
    x = swap_boundary1(c2)
    fx, _ = fixed_sset(x, full_subgroup(c2))
    assert fx.top_dim == -1


def test_fixed_sset_vee(c2):
    x = vee(c2)
    fx, _ = fixed_sset(x, full_subgroup(c2))
    assert sorted(fx.ids()) == [2]
    fe, _ = fixed_sset(x, trivial_subgroup(c2))
    assert sorted(fe.ids()) == sorted(x.ids())


def _fixed_by_every_member(x, h):
    """Reference: the ids fixed by every member of h, not only its generators."""
    return [s for s in x.ids() if all(x.action[g][s] == s for g in h.members)]


def _assert_fixed_matches_reference(x, h):
    fx, incl = fixed_sset(x, h)
    keep = _fixed_by_every_member(x, h)
    assert list(fx.ids()) == keep, (x, h)
    assert fx.faces == {s: x.faces[s] for s in keep if x.dim(s) > 0}
    assert incl.values == {s: SimplexRef(s) for s in keep}


@pytest.mark.parametrize("name", ["c4", "s3", "d4"])
def test_fixed_sset_on_generators_matches_every_member(name, request):
    g = request.getfixturevalue(name)
    subgroups = all_subgroups(g)
    for k in subgroups:
        for x in (gtensor(coset_gset(g, k), standard_simplex(1)),
                  gtensor(coset_gset(g, k), boundary_simplex(2))):
            for h in subgroups:
                _assert_fixed_matches_reference(x, h)


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from([cyclic_group(4), cyclic_group(6), symmetric_group(3),
                              dihedral_group(4)]),
       data=st.data(), base=st.sampled_from([standard_simplex, boundary_simplex]),
       n=st.integers(0, 2))
def test_fixed_sset_on_generators_matches_every_member_on_gtensors(group, data, base, n):
    subgroups = all_subgroups(group)
    orbit = coset_gset(group, data.draw(st.sampled_from(subgroups)))
    x = gtensor(orbit, base(n))
    for h in subgroups:
        _assert_fixed_matches_reference(x, h)


def test_fixed_sset_closed_under_faces(c2, s3):
    for x in (vee(c2), gtensor(regular_gset(s3), standard_simplex(1))):
        for h in all_subgroups(x.group):
            fx, _ = fixed_sset(x, h)
            fx.validate()


def test_skeleton():
    d2 = standard_simplex(2)
    sk_minus, _ = skeleton(d2, -1)
    assert sk_minus.top_dim == -1
    sk_full, _ = skeleton(d2, 2)
    assert sorted(sk_full.ids()) == sorted(d2.ids())
    sk1, _ = skeleton(d2, 1)
    assert sorted(sk1.ids()) == sorted(boundary_simplex(2).ids())
    b2 = boundary_simplex(2)
    assert (sk1.dim_of, sk1.faces) == (b2.dim_of, b2.faces)


# ---------------------------------------------------------------------------
# tensors


def test_gtensor_with_one_point_orbit_is_identity_shape(s3):
    a = standard_simplex(1)
    t = gtensor(coset_gset(s3, full_subgroup(s3)), a)
    assert (t.dim_of, t.faces) == (a.dim_of, a.faces)
    assert all(t.action[g] == {s: s for s in t.dim_of} for g in s3.elements())


def test_gtensor_free_two_points(c2):
    t = gtensor(regular_gset(c2), standard_simplex(0))
    assert len(list(t.ids())) == 2
    assert t.action[1][0] != 0


def test_gtensor_fixed_point_instance(c2):
    d1 = standard_simplex(1)
    free = gtensor(regular_gset(c2), d1)
    f_free, _ = fixed_sset(free, full_subgroup(c2))
    assert f_free.top_dim == -1
    triv = gtensor(coset_gset(c2, full_subgroup(c2)), d1)
    f_triv, _ = fixed_sset(triv, full_subgroup(c2))
    assert (f_triv.dim_of, f_triv.faces) == (d1.dim_of, d1.faces)


# ---------------------------------------------------------------------------
# prisms


def test_prism_of_point_is_interval():
    pr = prism(point_sset())
    d1 = standard_simplex(1)
    assert (pr.product.dim_of, pr.product.faces) == (d1.dim_of, d1.faces)


def test_prism_counts_delta1():
    pr = prism(standard_simplex(1))
    counts = {n: len(pr.product.simplices[n]) for n in sorted(pr.product.simplices)}
    assert counts == {0: 4, 1: 5, 2: 2}


def test_prism_sections():
    x = standard_simplex(1)
    pr = prism(x)
    assert smaps_equal(compose_smaps(pr.proj, pr.end0), identity_smap(x))
    assert smaps_equal(compose_smaps(pr.proj, pr.end1), identity_smap(x))


def test_prism_equivariance(c2):
    x = swap_boundary1(c2)
    pr = prism(x)
    assert pr.product.group == c2
    assert pr.end0.equivariant and pr.end1.equivariant and pr.proj.equivariant


# ---------------------------------------------------------------------------
# cell decomposition and the cofibration test


def test_cell_decomposition_identity_is_empty(c2):
    x = vee(c2)
    cs = cell_decomposition(identity_smap(x))
    assert cs.by_dim == {}


def test_cell_decomposition_single_free_cell(c2):
    x = gtensor(regular_gset(c2), standard_simplex(0))
    f = SMap(empty_sset(c2), x, {})
    cs = cell_decomposition(f)
    assert list(cs.by_dim) == [0]
    assert len(cs.by_dim[0]) == 1
    assert cs.by_dim[0][0].stabilizer.members == (0,)


def test_cell_decomposition_trivial_interval(c2):
    x = with_trivial_action(standard_simplex(1), c2)
    f = SMap(empty_sset(c2), x, {})
    cs = cell_decomposition(f)
    assert len(cs.by_dim[0]) == 2
    assert len(cs.by_dim[1]) == 1
    assert all(s.stabilizer.members == (0, 1)
               for d in cs.by_dim.values() for s in d)
    replay_cell_decomposition(f, cs)


def test_cell_decomposition_mixed_vee(c2):
    x = vee(c2)
    f = SMap(empty_sset(c2), x, {})
    cs = cell_decomposition(f)
    stabs0 = sorted(s.stabilizer.members for s in cs.by_dim[0])
    assert stabs0 == [(0,), (0, 1)]
    assert [s.stabilizer.members for s in cs.by_dim[1]] == [(0,)]


def test_cell_decomposition_requires_mono(c2):
    x = with_trivial_action(standard_simplex(0), c2)
    two = with_trivial_action(disjoint_copies(standard_simplex(0), 2)[0], c2)
    fold = SMap(two, x, {0: SimplexRef(0), 1: SimplexRef(0)})
    with pytest.raises(ValueError, match="injective"):
        cell_decomposition(fold)


def test_replay_detects_corrupted_structure(c2):
    x = vee(c2)
    f = SMap(empty_sset(c2), x, {})
    cs = cell_decomposition(f)
    from orbitkit.simplicial import CellSummand, CellStructure
    bad = CellStructure({
        0: cs.by_dim[0],
        1: tuple(CellSummand(s.representative,
                             subgroup(c2, (0, 1)),  # wrong stabilizer
                             s.attaching) for s in cs.by_dim[1]),
    })
    with pytest.raises(ReplayError):
        replay_cell_decomposition(f, bad)


def test_cofibration_swap_free(c2):
    x = swap_boundary1(c2)
    f = SMap(empty_sset(c2), x, {})
    v = check_F_cofibration(f, [trivial_subgroup(c2)])
    assert v.ok


def test_cofibration_trivial_vertex_fails_for_free_family(c2):
    x = with_trivial_action(standard_simplex(0), c2)
    f = SMap(empty_sset(c2), x, {})
    v = check_F_cofibration(f, [trivial_subgroup(c2)])
    assert not v.ok
    assert v.witness == 0
    v2 = check_F_cofibration(f, all_subgroups(c2))
    assert v2.ok


def test_cofibration_identity_always_yes(c2):
    x = vee(c2)
    v = check_F_cofibration(identity_smap(x), [])
    assert v.ok


def test_cofibration_agrees_with_decomposition_both_directions(c2, s3):
    fixtures = []
    for g in (c2, s3):
        fixtures.append((SMap(empty_sset(g), gtensor(regular_gset(g),
                                                     standard_simplex(1)), {}), g))
        fixtures.append((SMap(empty_sset(g),
                              with_trivial_action(boundary_simplex(2), g), {}), g))
    fixtures.append((SMap(empty_sset(c2), vee(c2), {}), c2))
    from orbitkit.groups import conjugating_element
    for f, g in fixtures:
        for fam in ([trivial_subgroup(g)], all_subgroups(g)):
            verdict = check_F_cofibration(f, fam)
            cs = cell_decomposition(f)  # replay-verified
            sub_ok = all(
                any(conjugating_element(s.stabilizer, k) is not None for k in fam)
                for d in cs.by_dim.values() for s in d)
            assert verdict.ok == sub_ok


def test_fixed_points_preserve_cell_filtration(c2):
    """Counting (G/G_x)^H recovers the fixed cells stage by stage."""
    from orbitkit.gsets import orbit_analysis
    for x in (vee(c2), gtensor(regular_gset(c2), standard_simplex(1)),
              with_trivial_action(boundary_simplex(2), c2)):
        f = SMap(empty_sset(c2), x, {})
        cs = cell_decomposition(f)
        for h in all_subgroups(c2):
            fx, _ = fixed_sset(x, h)
            for n, summands in cs.by_dim.items():
                new_fixed = len(fx.ids_of_dim(n))
                expect = 0
                for s in summands:
                    gk = coset_gset(c2, s.stabilizer)
                    expect += len(orbit_analysis(gk, h).fixed)
                assert new_fixed == expect


def test_smap_validation_catches_face_violations():
    d1 = standard_simplex(1)
    with pytest.raises(ValueError, match="commute"):
        make_smap(d1, d1, {0: 0, 1: 0, 2: 2})
    m = make_smap(d1, d1, {0: 0, 1: 0, 2: (0, (0,))})
    assert m.push(SimplexRef(2)) == SimplexRef(0, (0,))


def test_sub_sset_closure_checks(c2):
    x = vee(c2)
    with pytest.raises(ValueError, match="faces"):
        sub_sset(x, [3])
    with pytest.raises(ValueError, match="action"):
        sub_sset(x, [0])

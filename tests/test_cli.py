"""CLI verbs: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbitkit
from orbitkit.chains import ChainHomotopy, ChainMap, normalized_chain_map
from orbitkit.cli import _dumps, main
from orbitkit.exactla import Mat
from orbitkit.gsets import regular_gset
from orbitkit.jsonio import load_group, load_smap
from orbitkit.rings import ZZ
from orbitkit.simplicial import gtensor, sset_to_json, standard_simplex
from orbitkit.whitehead import Certificate, verify_certificate
from conftest import exit_2_with_and_without_O, swap_boundary1, vee
from orbitkit.groups import cyclic_group


@pytest.fixture()
def files(tmp_path):
    c2 = {"order": 2, "mult": [[0, 1], [1, 0]]}
    group = tmp_path / "c2.json"
    group.write_text(json.dumps(c2))

    gset = tmp_path / "regular.json"
    gset.write_text(json.dumps({"size": 2, "action": {"0": [0, 1], "1": [1, 0]}}))

    g = cyclic_group(2)
    swap = sset_to_json(swap_boundary1(g))
    incl = tmp_path / "swap_incl.json"
    incl.write_text(json.dumps({
        "source": {"simplices": {}, "faces": {}, "action": {"0": {}, "1": {}}},
        "target": swap,
        "values": {},
    }))

    to_vee = tmp_path / "point_to_vee.json"
    to_vee.write_text(json.dumps({
        "source": {"simplices": {"0": [0]}, "faces": {},
                   "action": {"0": {"0": 0}, "1": {"0": 0}}},
        "target": sset_to_json(vee(g)),
        "values": {"0": [2, []]},
    }))

    empty_to_vee = tmp_path / "empty_to_vee.json"
    empty_to_vee.write_text(json.dumps({
        "source": {"simplices": {}, "faces": {}, "action": {"0": {}, "1": {}}},
        "target": sset_to_json(vee(g)),
        "values": {},
    }))
    return {"group": str(group), "gset": str(gset), "incl": str(incl),
            "to_vee": str(to_vee), "empty_to_vee": str(empty_to_vee),
            "tmp": tmp_path}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_census_text(files, capsys):
    code, out, _ = run(capsys, ["census", "--group", files["group"],
                                "--family", "all"])
    assert code == 0
    assert out.strip() == "3 diagrams vs 2 G-objects"


def test_homology_boundary2(files, capsys):
    code, out, _ = run(capsys, ["homology", "--sset", "boundary:2",
                                "--ring", "Z"])
    assert code == 0
    assert out.splitlines()[0] == "H0=Z, H1=Z"


def test_homology_json_roundtrips(files, capsys):
    code, out, _ = run(capsys, ["homology", "--sset", "boundary:2",
                                "--ring", "Z", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["0"]["invariants_of_chains"][0] == \
        {"degree": 0, "free": 1, "torsion": []}


def test_homology_of_the_trivial_subgroup_is_computed_once(files, capsys, monkeypatch):
    """X^e = X: the chains-of-fixed-points column at e reuses the invariants column."""
    from orbitkit import cli
    real, calls = cli.homology, []

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(cli, "homology", counted)
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    code, out, _ = run(capsys, ["homology", "--group", str(fixtures / "c2.json"),
                                "--sset", str(fixtures / "vee.json"), "--family", "all",
                                "--ring", "Z"])
    assert code == 0
    assert len(calls) == 2 * 2 - 1
    lines = out.splitlines()
    assert lines[1].split(": ")[1] == lines[2].split(": ")[1]  # the H = e rows agree


def test_cofib_check_yes(files, capsys):
    code, out, _ = run(capsys, ["cofib-check", "--group", files["group"],
                                "--map", files["incl"], "--family", "trivial"])
    assert code == 0
    assert out.strip() == "cofibration: yes"


def test_cofib_check_no_exit_1(files, capsys):
    # the middle vertex of the vee has stabilizer C2, not subconjugate to {e}
    code, out, _ = run(capsys, ["cofib-check", "--group", files["group"],
                                "--map", files["empty_to_vee"],
                                "--family", "trivial"])
    assert code == 1
    assert out.startswith("cofibration: no")
    assert "witness simplex 2" in out


def test_cells_verb(files, capsys):
    code, out, _ = run(capsys, ["cells", "--group", files["group"],
                                "--map", files["incl"]])
    assert code == 0
    assert "stabilizer {0}" in out
    assert "replay: reconstructed" in out


def test_orbit_cat_verb(files, capsys):
    code, out, _ = run(capsys, ["orbit-cat", "--group", files["group"],
                                "--family", "all", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["objects"] == ["0", "0,1"]
    assert payload["hom"]["0;0,1"] == [0]


def test_orbit_cat_json_skips_composition_table(files, capsys, monkeypatch):
    import orbitkit.orbitcat

    def fail(self):
        raise AssertionError("composition table built for JSON output")
    monkeypatch.setattr(orbitkit.orbitcat.OrbitCategory, "composition_table_text", fail)
    code, out, _ = run(capsys, ["orbit-cat", "--group", files["group"],
                                "--family", "all", "--format", "json"])
    assert code == 0 and json.loads(out)["objects"] == ["0", "0,1"]


def test_fixed_points_gset(files, capsys):
    code, out, _ = run(capsys, ["fixed-points", "--group", files["group"],
                                "--sset", files["gset"], "--family", "all"])
    assert code == 0
    assert "H={0,1} fixed: []" in out


def test_fixed_points_sset(files, capsys):
    code, out, _ = run(capsys, ["fixed-points", "--sset", "delta:1"])
    assert code == 0
    assert "fixed simplices per dim" in out


def test_elmendorf_verb(files, capsys):
    code, out, _ = run(capsys, ["elmendorf", "--group", files["group"],
                                "--family", "all", "--ring", "Z",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["adjunction"]["0"]["unit_iso"] is False
    assert payload["adjunction"]["0,1"]["unit_iso"] is True
    assert payload["cellularity"]["0,1;0"]["iso"] is False


def test_elmendorf_refuses_a_ring_and_an_sset_together(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["elmendorf", "--group", files["group"], "--ring", "Z", "--sset", "delta:1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--sset" in err and "--ring" in err


def test_whitehead_verb_pass(files, capsys):
    code, out, _ = run(capsys, ["whitehead", "--group", files["group"],
                                "--map", files["to_vee"], "--family", "all",
                                "--ring", "Z"])
    assert code == 0
    assert "certificate: found and verified" in out


def test_whitehead_json_certificate_reverifies(files, capsys):
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    free = sset_to_json(gtensor(regular_gset(cyclic_group(2)), standard_simplex(1)))
    ident = files["tmp"] / "identity.json"
    ident.write_text(json.dumps({
        "source": free, "target": free,
        "values": {s: [int(s), []] for ids in free["simplices"].values()
                   for s in map(str, ids)}}))
    for path in (fixtures / "point_to_vee.json", ident):
        code, out, _ = run(capsys, ["whitehead", "--group", files["group"],
                                    "--map", str(path), "--family", "all",
                                    "--ring", "Z", "--format", "json"])
        assert code == 0
        cert = json.loads(out)["certificate"]
        cf = normalized_chain_map(load_smap(str(path), load_group(files["group"])), ZZ)
        src, tgt = cf.source, cf.target

        def mats(key, rows_of, cols_of):
            return {int(n): Mat(ZZ, rows_of(int(n)), cols_of(int(n)), m)
                    for n, m in cert[key].items()}

        parsed = Certificate(
            ChainMap(tgt, src, mats("g", src.rank, tgt.rank)),
            ChainHomotopy(tgt, tgt, mats("s", lambda n: tgt.rank(n + 1), tgt.rank)),
            ChainHomotopy(src, src, mats("t", lambda n: src.rank(n + 1), src.rank)))
        assert verify_certificate(parsed, cf)


def test_whitehead_verb_fail(files, capsys):
    code, out, _ = run(capsys, ["whitehead", "--group", files["group"],
                                "--map", files["incl"], "--family", "trivial",
                                "--ring", "Z"])
    assert code == 1
    assert "failing subgroups" in out


def test_sset_file_named_like_a_builtin_is_read(capsys, tmp_path, monkeypatch):
    """Only "point" and "empty" are built-in names; "points.json" is a file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.json").write_text(
        json.dumps({"dims": 0, "simplices": {"0": [0, 1]}, "faces": {}}))
    code, out, _ = run(capsys, ["homology", "--sset", "points.json", "--ring", "Z"])
    assert code == 0 and out.startswith("H0=Z^2\n")
    code, out, _ = run(capsys, ["fixed-points", "--sset", "points.json"])
    assert code == 0 and "{'0': 2}" in out


def test_exit_2_on_bad_input(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["census", "--group", str(bad), "--family", "all"])
    assert code == 2
    assert "input error" in err
    code2, _, err2 = run(capsys, ["census", "--group",
                                  str(tmp_path / "missing.json")])
    assert code2 == 2


def test_exit_2_on_simplex_over_the_cap(files, capsys):
    code, _, err = run(capsys, ["homology", "--sset", "delta:1000", "--ring", "Z"])
    assert code == 2
    assert "exceeds cap" in err


def test_exit_2_at_once_on_a_prime_over_the_cap(capsys):
    from orbitkit.rings import MAX_PRIME, PrimeField
    assert PrimeField(4294967291).p == 4294967291  # the largest prime below the cap
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"cap {MAX_PRIME}"):
        PrimeField(4294967311)  # the least prime above it
    code, _, err = run(capsys, ["homology", "--sset", "boundary:2",
                                "--ring", "Fp:10000000000000061"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "exceeds the cap" in err


LONG = "1" * 5000  # more digits than int() reads


# the numeric part of a tag takes ASCII digits only, as int() would also read
# " 2", "+2", "1_1" and other scripts' digits
@pytest.mark.parametrize("tag", ["Fp:x", "Fp:4", "R", "Fp:", "Fp:2.0", "Fp: 2", "Fp:+2",
                                 "Fp:1_1", "Fp:\u0663",
                                 pytest.param("Fp:" + LONG, id="Fp:<5000 digits>")])
def test_exit_2_on_an_unknown_ring_tag(capsys, tag):
    from orbitkit.rings import MAX_PRIME
    code, _, err = run(capsys, ["homology", "--sset", "boundary:2", "--ring", tag])
    words = {"Fp:4": "4 is not prime",
             "Fp:" + LONG: f"ring tag Fp:<5000 digits> exceeds the cap {MAX_PRIME} on primes"
             }.get(tag, f"unknown ring tag {tag!r} (expected Z, Q, or Fp:p)")
    assert code == 2 and err == f"input error: {words}\n", err


@pytest.mark.parametrize("name", ["delta:abc", "boundary:", "delta:", "delta: 2",
                                  "delta:+2", "delta:1_0", "boundary:\u0662",
                                  pytest.param("delta:" + LONG, id="delta:<5000 digits>"),
                                  pytest.param("boundary:" + LONG, id="boundary:<5000 digits>")])
def test_exit_2_on_an_unknown_builtin_sset_name(capsys, name):
    code, _, err = run(capsys, ["homology", "--sset", name, "--ring", "Z"])
    kind, _, digits = name.partition(":")
    words = f"built-in simplicial set {kind}:<5000 digits> exceeds the cap 8 on top " \
        "dimensions" if digits == LONG else f"unknown built-in simplicial set {name!r}"
    assert code == 2 and err == f"input error: {words}\n", err


def test_leading_zeros_stay_accepted(capsys):
    plain = run(capsys, ["homology", "--sset", "delta:2", "--ring", "Fp:2"])
    assert plain[0] == 0
    assert run(capsys, ["homology", "--sset", "delta:0000000002",
                        "--ring", "Fp:0000000002"]) == plain


# id -> (verb, data): input files of the wrong shape, data written as JSON or, when
# a str, verbatim; ``malformed_argv`` runs them
MALFORMED = {
    "sset-list": ("homology", [1, 2]),                  # --sset holding a list
    "values-list": ("cells", {"source": "point", "target": "point", "values": [[0, []]]}),
    "value-string": ("cells", {"source": "point", "target": "point", "values": {"0": "x"}}),
    "value-base-list": ("cells", {"source": "point", "target": "point",
                                  "values": {"0": [[1], []]}}),
    "value-word-nested": ("cells", {"source": "point", "target": "point",
                                    "values": {"0": [0, [[1]]]}}),
    "gset-action-list": ("fixed-points", {"size": 2, "action": [[0, 1], [1, 0]]}),
    "gset-perm-number": ("fixed-points", {"size": 2, "action": {"0": [0, 1], "1": 5}}),
    "gset-size-string": ("fixed-points", {"size": "2", "action": {"1": [1, 0]}}),
    "group-generators-number": ("census", {"degree": 3, "generators": 5}),
    "group-mult-number": ("census", {"order": 2, "mult": 7}),
    "family-member-number": ("census-family", [5]),
    "family-member-string": ("census-family", [[0, "a"]]),
    "sset-simplices-number": ("homology", {"simplices": {"0": 5}}),
    "sset-faces-number": ("homology", {"simplices": {"0": [0], "1": [1]}, "faces": {"1": 5}}),
    "sset-action-number": ("homology", {"simplices": {"0": [0]}, "action": {"0": 3}}),
    "group-order-5000-digits": ("census", f'{{"order": {LONG}, "mult": [[0]]}}'),
    "sset-dims-5000-digits": ("homology", f'{{"dims": {LONG}, "simplices": {{}}}}'),
    "sset-face-word-object": ("homology", {"simplices": {"0": [7, 8], "1": [9]},
                                           "faces": {"9": [[8, {}], [7, []]]}}),
}


def malformed_argv(files, verb, path):
    return {"homology": ["homology", "--sset", str(path), "--ring", "Z"],
            "cells": ["cells", "--map", str(path)],
            "fixed-points": ["fixed-points", "--sset", str(path),
                             "--group", files["group"]],
            "census": ["census", "--group", str(path)],
            "census-family": ["census", "--group", files["group"],
                              "--family", str(path)]}[verb]


@pytest.mark.parametrize("verb,data", MALFORMED.values(), ids=list(MALFORMED))
def test_exit_2_on_malformed_json(files, capsys, verb, data):
    path = files["tmp"] / "malformed.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, _, err = run(capsys, malformed_argv(files, verb, path))
    assert code == 2
    assert "input error" in err
    if isinstance(data, str):  # a message that names the file, not int()'s own
        assert err.startswith(f"input error: cannot read {path}: "), err


def test_exit_2_on_a_family_member_outside_the_group(files, capsys):
    path = files["tmp"] / "family.json"
    path.write_text(json.dumps([[0, 5]]))
    exit_2_with_and_without_O(capsys, ["orbit-cat", "--group", files["group"],
                                       "--family", str(path)],
                              "element 5 outside the group")


# id -> (verb, data, words): keys that name nothing; ``verb_argv`` runs them
STRAY_KEYS = {
    "gset-action-key": ("fixed-points",
                        {"size": 2, "action": {"0": [0, 1], "1": [1, 0], "9": [0, 1]}},
                        "action key 9 is not a group element"),
    "sset-action-key": ("homology", {"simplices": {"0": [0]}, "faces": {},
                                     "action": {"0": {"0": 0}, "1": {"0": 0}, "9": {"0": 0}}},
                        "action key 9 is not a group element"),
    "sset-faces-key": ("homology", {"simplices": {"0": [0]}, "faces": {"7": [[0, []]]},
                                    "action": {"0": {"0": 0}, "1": {"0": 0}}},
                       "faces given for 7"),
    "map-values-key": ("cells", {"source": "point", "target": "point",
                                 "values": {"0": 0, "3": 0}},
                       "value for 3"),
    # a key that is not an integer is named with the kind of file it is in
    "gset-action-key-x": ("fixed-points", {"size": 2, "action": {"0": [0, 1], "x": [1, 0]}},
                          "gset: action key 'x' is not an integer"),
    "sset-action-key-x": ("homology", {"simplices": {"0": [0]},
                                       "action": {"0": {"0": 0}, "x": {"0": 0}}},
                          "sset: action key 'x' is not an integer"),
    "sset-action-simplex-x": ("homology", {"simplices": {"0": [0]},
                                           "action": {"0": {"0": 0}, "1": {"x": 0}}},
                              "sset: action of 1: simplex 'x' is not an integer"),
    "sset-faces-key-x": ("homology", {"simplices": {"0": [0, 1], "1": [2]},
                                      "faces": {"x": [[1, []], [0, []]]},
                                      "action": {"1": {"0": 0, "1": 1, "2": 2}}},
                         "sset: faces key 'x' is not an integer"),
    "sset-dimension-x": ("homology", {"simplices": {"x": [0]}, "action": {"1": {"0": 0}}},
                         "sset: dimension 'x' is not an integer"),
    "map-values-key-x": ("cells", {"source": "point", "target": "point", "values": {"x": 0}},
                         "map: values key 'x' is not an integer"),
    # an action object whose keys differ from the one before it is read on its own
    "sset-action-key-missing": ("homology", {"simplices": {"0": [7, 8]},
                                             "action": {"0": {"7": 7, "8": 8}, "1": {"7": 8}}},
                                "sset: action of 1 is not a dimension-preserving permutation"),
    "sset-action-keys-7-and-07": ("homology", {
        "simplices": {"0": [7, 8]},
        "action": {"0": {"7": 7, "8": 8}, "1": {"7": 8, "07": 7, "8": 7}}},
        "sset: action of 1 is not a permutation"),
}


@pytest.mark.parametrize("verb,data,words", STRAY_KEYS.values(), ids=list(STRAY_KEYS))
def test_exit_2_on_a_key_that_names_nothing(files, capsys, verb, data, words):
    path = files["tmp"] / "stray.json"
    path.write_text(json.dumps(data))
    exit_2_with_and_without_O(capsys, verb_argv(files, verb, path), words)


# id -> (verb, data, plain): action objects whose keys are spelled or ordered apart
# from another element's, each read as the table ``plain`` spells with one key per
# simplex in order; ``verb_argv`` runs both
SPELLED_KEYS = {
    "sset-action-key-07": ("homology-all", {"simplices": {"0": [7, 8]}, "action": {
        "0": {"7": 7, "8": 8}, "1": {"07": 8, "8": 7}}}, {"1": {"7": 8, "8": 7}}),
    "sset-action-keys-reordered": ("homology-all", {"simplices": {"0": [7, 8]}, "action": {
        "0": {"7": 7, "8": 8}, "1": {"8": 8, "7": 7}}}, {"1": {"7": 7, "8": 8}}),
    "sset-action-keys-reordered-swap": ("homology-all", {"simplices": {"0": [7, 8]}, "action": {
        "0": {"7": 7, "8": 8}, "1": {"8": 7, "7": 8}}}, {"1": {"7": 8, "8": 7}}),
    # both elements hold "7" and "07"; the later of the two is read, as in any JSON object
    "sset-action-keys-7-and-07": ("homology-all", {"simplices": {"0": [7, 8]}, "action": {
        "0": {"7": 8, "07": 7, "8": 8}, "1": {"7": 7, "07": 8, "8": 7}}},
        {"0": {"7": 7, "8": 8}, "1": {"7": 8, "8": 7}}),
}


@pytest.mark.parametrize("verb,data,plain", SPELLED_KEYS.values(), ids=list(SPELLED_KEYS))
def test_action_keys_spelled_apart_read_as_one_table(files, capsys, verb, data, plain):
    paths = files["tmp"] / "spelled.json", files["tmp"] / "plain.json"
    paths[0].write_text(json.dumps(data))
    paths[1].write_text(json.dumps(dict(data, action=plain)))
    spelled, expected = (run(capsys, verb_argv(files, verb, p)) for p in paths)
    assert spelled == expected and expected[0] == 0, spelled
    fixed = plain["1"]["7"] == 7  # element 1 fixes both vertices, else swaps them
    assert f"H={{0,1}} invariants-of-chains: H0=Z{'^2' if fixed else ''}\n" in expected[1]


def verb_argv(files, verb, path):
    return {"fixed-points": ["fixed-points", "--sset", str(path), "--group", files["group"]],
            "homology": ["homology", "--sset", str(path), "--group", files["group"],
                         "--ring", "Z"],
            "homology-all": ["homology", "--sset", str(path), "--group", files["group"],
                             "--ring", "Z", "--family", "all"],
            "cells": ["cells", "--map", str(path)],
            "orbit-cat": ["orbit-cat", "--group", files["group"], "--family", str(path)],
            "census": ["census", "--group", str(path), "--family", "all"]}[verb]


# id -> (verb, data, words): JSON booleans are Python ints; each is refused where
# an integer is expected; ``verb_argv`` runs them
BOOLEANS = {
    "family-member": ("orbit-cat", [[0, True]], "family[0]: expected a list of group elements"),
    "group-mult": ("census", {"order": 2, "mult": [[0, 1], [1, False]]},
                   "group: 'mult' must be"),
    "gset-perm": ("fixed-points", {"size": 2, "action": {"0": [0, 1], "1": [True, 0]}},
                  "gset: action of 1 must be a list of points"),
    "gset-size": ("fixed-points", {"size": True, "action": {"0": [0]}}, "gset: 'size' must be"),
    "sset-id": ("homology", {"simplices": {"0": [False]}}, "sset: 'simplices' must be"),
    "sset-dims": ("homology", {"dims": False, "simplices": {"0": [0]}}, "sset: 'dims' must be"),
    "sset-face-base": ("homology", {"simplices": {"0": [0, 1], "1": [2]},
                                    "faces": {"2": [[True, []], [0, []]]}},
                       "sset: 'faces' must be"),
    "sset-face-word": ("homology", {"simplices": {"0": [0, 1], "1": [2]},
                                    "faces": {"2": [[1, [False]], [0, []]]}},
                       "sset: 'faces' must be"),
    "sset-action-value": ("homology", {"simplices": {"0": [0, 1]},
                                       "action": {"1": {"0": True, "1": False}}},
                          "sset: 'action' must be"),
    "map-value": ("cells", {"source": "point", "target": "point", "values": {"0": False}},
                  "map: value of simplex 0 must be"),
    "map-value-base": ("cells", {"source": "point", "target": "point",
                                 "values": {"0": [False, []]}},
                       "map: value of simplex 0 must be"),
}


@pytest.mark.parametrize("verb,data,words", BOOLEANS.values(), ids=list(BOOLEANS))
def test_exit_2_on_a_boolean_for_an_integer(files, capsys, verb, data, words):
    path = files["tmp"] / "boolean.json"
    path.write_text(json.dumps(data))
    exit_2_with_and_without_O(capsys, verb_argv(files, verb, path), words)


def test_exit_3_on_internal_error(files, capsys, monkeypatch):
    import orbitkit.whitehead
    monkeypatch.setattr(orbitkit.whitehead, "verify_certificate",
                        lambda cert, cf: False)
    code, _, err = run(capsys, ["whitehead", "--group", files["group"],
                                "--map", files["to_vee"], "--family", "all",
                                "--ring", "Z"])
    assert code == 3
    assert "internal error" in err and "re-verification" in err


BROKEN_TRANSPORT = """
import orbitkit.whitehead as w
certificate = w.Certificate

def broken(g, s, t):
    # a bug after transport: g gets 1 added at entry (0, 0) in every degree, so
    # the g of the identity of C2/e x Delta[1] breaks the chain-map law in degree 1
    for n in range(g.top + 1):
        m = g.mat(n)
        m.rows[0][0] = m.ring.reduce([m.rows[0][0] + 1])[0]
    broken.g = g
    return certificate(g, s, t)
"""


def test_a_certificate_off_the_chain_map_law_exits_3(files, capsys, monkeypatch):
    """A certificate whose g fails the chain-map law is a solver bug, not bad
    input: exit 3 naming the re-verification, in-process and under python -O."""
    import orbitkit.whitehead as w
    x = sset_to_json(gtensor(regular_gset(cyclic_group(2)), standard_simplex(1)))
    path = files["tmp"] / "identity.json"
    path.write_text(json.dumps({"source": x, "target": x, "values": {
        str(s): [s, []] for ids in x["simplices"].values() for s in ids}}))
    argv = ["whitehead", "--group", files["group"], "--map", str(path), "--family", "all",
            "--ring", "Z"]
    words = "internal error: solver returned a certificate that fails re-verification"
    namespace = {}
    exec(BROKEN_TRANSPORT, namespace)
    monkeypatch.setattr(w, "Certificate", namespace["broken"])
    code, _, err = run(capsys, argv)
    assert code == 3 and err.startswith(words) and "Traceback" not in err, (code, err)
    g = namespace["broken"].g
    with pytest.raises(ValueError, match="does not commute with d in degree 1"):
        ChainMap(g.source, g.target, {n: g.mat(n) for n in range(g.top + 1)})
    script = BROKEN_TRANSPORT + textwrap.dedent("""
        import sys
        from orbitkit.cli import _dumps, main
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        w.Certificate = broken
        sys.exit(main(sys.argv[1:]))
    """)
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script, *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 3 and proc.stderr.startswith(words) \
        and "Traceback" not in proc.stderr, (proc.returncode, proc.stderr)


def _short_finset(incl, x):
    """The inclusion of finite sets without its last point."""
    if not incl.fn:
        return incl
    short = type(incl)(incl.source - 1, incl.target, incl.fn[:-1])
    short.position = {p: i for i, p in enumerate(short.fn)}
    return short


def _short_sset(incl, x):
    """The inclusion without its greatest simplex, a top simplex of the last
    fixed copy of the cell, so no face of another."""
    from orbitkit.simplicial import GSSet, SMap, TRIVIAL_GROUP
    fx = incl.source
    if not fx.dim_of:
        return incl
    keep = {s: n for s, n in fx.dim_of.items() if s != max(fx.dim_of)}
    small = GSSet(TRIVIAL_GROUP, keep, {s: fx.faces[s] for s in keep if keep[s]},
                  {0: {s: s for s in keep}}, validate=False)
    return SMap(small, x, {s: incl.values[s] for s in keep}, validate=False)


def _short_chains(incl, x):
    """The inclusion of orbit sums, in degree 0 only, without its last orbit."""
    from orbitkit.chains import ChainComplex
    r = incl.source.rank(0)
    if not r:
        return incl
    small = ChainComplex(x.ring, [r - 1], {})
    short = ChainMap.of_bases(small, x, {0: tuple(None if j == r - 1 else j
                                                  for j in incl.sel[0])})
    short.coords = ChainMap.of_bases(x, small, {0: incl.coords.sel[0][:-1]})
    return short


@pytest.mark.parametrize("value,category,shorten,words", [
    ((), "FinSetCat", _short_finset, "the unit must send"),
    (("--sset", "delta:1"), "FinSSetCat", _short_sset, "the unit must send"),
    # over Z the invariants of G/e are not empty, so the translations of the
    # counit's diagram meet the fault first
    (("--ring", "Z"), "ChainCat", _short_chains, "the translation by")],
    ids=["finite sets", "delta:1", "Z"])
def test_a_unit_that_misses_the_fixed_points_exits_3(value, category, shorten, words,
                                                     capsys, monkeypatch):
    """A fixed-point inclusion of a nontrivial H that drops its last point is a
    bug in orbitkit, not bad input: the first corestriction through it exits 3
    and names the map, in every value category."""
    from orbitkit import elmendorf
    vcat_type = getattr(elmendorf, category)
    real = vcat_type.fixed

    def fixed(self, x, h):
        incl = real(self, x, h)
        return incl if h.is_trivial() else shorten(incl, x)

    monkeypatch.setattr(vcat_type, "fixed", fixed)
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    code = main(["elmendorf", "--group", str(fixtures / "s3.json"), "--family", "all",
                 *value])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith(f"internal error: {words} "), err
    assert "-fixed points" in err and "Traceback" not in err


def test_failed_corestrictions_exit_3_under_python_O():
    # the corestriction checks must be raises that -O keeps, not asserts
    script = textwrap.dedent("""
        import contextlib, io, sys
        from orbitkit import InternalError, ZZ, chains, cyclic_group, elmendorf, \\
            fixed_sset, gtensor, regular_gset, standard_simplex, trivial_subgroup
        from orbitkit.cli import _dumps, main
        from orbitkit.exactla import Mat
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        group = sys.argv[1]

        def exit_3(argv, words):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(err):
                code = main(argv)
            if code != 3 or words not in err.getvalue():
                sys.exit(f"{argv[0]}: exit {code}, stderr {err.getvalue()!r}")

        def projection(self, x, g):
            # not a translation: keeps the first basis vector, kills the rest
            mats = {}
            for n in range(x.top + 1):
                mats[n] = Mat.zeros(x.ring, x.rank(n), x.rank(n))
                if x.rank(n):
                    mats[n].rows[0][0] = x.ring.one
            plain = x.forget_action()
            return chains.ChainMap(plain, plain, mats, validate=False)

        action_as_map = elmendorf.ChainCat.action_as_map
        elmendorf.ChainCat.action_as_map = projection
        exit_3(["elmendorf", "--group", group, "--family", "all", "--ring", "Z"],
               "translation")
        elmendorf.ChainCat.action_as_map = action_as_map
        invariants = elmendorf.invariants

        def no_coords(c, h):
            # an inclusion whose coordinates are all zero: nothing factors
            inv, incl = invariants(c, h)
            incl.coords = [Mat.zeros(c.ring, p.nrows, p.ncols) for p in incl.coords]
            return inv, incl

        elmendorf.invariants = no_coords  # the fixed points of ChainCat
        exit_3(["elmendorf", "--group", group, "--family", "all", "--ring", "Z"],
               "does not factor")
        elmendorf.invariants = invariants
        c2 = cyclic_group(2)
        x, e = gtensor(regular_gset(c2), standard_simplex(1)), trivial_subgroup(c2)
        c = chains.normalized_chains(x, ZZ)
        try:  # the comparison C(X^H) -> C(X)^H, through zero coordinates
            chains.corestrict(chains.normalized_chain_map(fixed_sset(x, e)[1], ZZ, cy=c),
                              no_coords(c, e)[1])
        except InternalError:
            sys.exit(0)
        sys.exit("the fixed-chains comparison returned a map")
    """)
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(fixtures / "c2.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_differential_that_does_not_restrict_exits_3_under_python_O():
    # the restriction check of invariants must be a raise that -O keeps
    script = textwrap.dedent("""
        import contextlib, io, sys
        from orbitkit import cli
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        normalized = cli.normalized_chains

        def lopsided(x, ring):
            # d_1 loses one row, so d no longer commutes with the action
            c = normalized(x, ring)
            if c.top >= 1:
                c.d(1).rows[0] = [ring.zero] * c.rank(1)
            return c

        cli.normalized_chains = lopsided
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["homology", "--sset", sys.argv[1], "--group", sys.argv[2],
                             "--family", "all", "--ring", "Z"])
        if code != 3 or "must restrict" not in err.getvalue():
            sys.exit(f"exit {code}, stderr {err.getvalue()!r}")
    """)
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(fixtures / "vee.json"),
                           str(fixtures / "c2.json")],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_exit_2_names_invalid_field(files, capsys, tmp_path):
    bad = tmp_path / "badgroup.json"
    bad.write_text(json.dumps({"order": 2, "mult": [[0, 1], [1, 1]]}))
    code, _, err = run(capsys, ["census", "--group", str(bad), "--family", "all"])
    assert code == 2
    assert "group:" in err


def test_importing_the_cli_loads_all_of_orbitkit_and_not_dataclasses():
    """Start-up: a fresh ``import orbitkit.cli`` loads every module of orbitkit, none
    deferred to a first call, and neither ``dataclasses`` nor ``inspect``, which
    would add about a fifth to the import."""
    pkg = Path(orbitkit.__file__).resolve().parent
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import orbitkit.cli; "
              "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script, str(pkg.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    modules = {f"orbitkit.{p.stem}" for p in pkg.glob("*.py") if p.stem != "__init__"}
    assert len(modules) >= 12 and modules <= loaded, sorted(modules - loaded)
    assert not {"dataclasses", "inspect"} & loaded


def test_byte_identical_output(files, capsys):
    argv = ["elmendorf", "--group", files["group"], "--family", "all",
            "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_out_flag_writes_file(files, capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["census", "--group", files["group"],
                                "--family", "all", "--format", "json",
                                "--out", str(target)])
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["diagrams"] == 3


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(value=JSON_VALUES)
def test_the_report_encoder_writes_what_json_dumps_writes(value):
    """Nested dicts and lists, non-ASCII and escaped strings, bools, None and
    empty containers, byte for byte as json.dumps(sort_keys=True, indent=2)."""
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_the_report_encoder_escapes_and_sorts():
    value = {"\u00e9\n\"": ["\t\x00", "\U0001f600"], "a": {"z": [], "b": {}}, "": None,
             "t": [True, False, -3, 1.5]}
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

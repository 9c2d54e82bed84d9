"""CLI verbs: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import orbitkit
from orbitkit.chains import ChainHomotopy, ChainMap, normalized_chain_map
from orbitkit.cli import main
from orbitkit.exactla import Mat
from orbitkit.gsets import regular_gset
from orbitkit.jsonio import load_group, load_smap
from orbitkit.rings import ZZ
from orbitkit.simplicial import gtensor, sset_to_json, standard_simplex
from orbitkit.whitehead import Certificate, verify_certificate
from conftest import swap_boundary1, vee
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


@pytest.mark.parametrize("tag", ["Fp:x", "Fp:4", "R"])
def test_exit_2_on_an_unknown_ring_tag(capsys, tag):
    code, _, err = run(capsys, ["homology", "--sset", "boundary:2", "--ring", tag])
    assert code == 2 and "input error" in err


@pytest.mark.parametrize("verb,data", [
    ("homology", [1, 2]),                               # --sset holding a list
    ("cells", {"source": "point", "target": "point", "values": [[0, []]]}),
    ("cells", {"source": "point", "target": "point", "values": {"0": "x"}}),
    ("cells", {"source": "point", "target": "point", "values": {"0": [[1], []]}}),
    ("cells", {"source": "point", "target": "point", "values": {"0": [0, [[1]]]}}),
    ("fixed-points", {"size": 2, "action": [[0, 1], [1, 0]]}),
    ("fixed-points", {"size": 2, "action": {"0": [0, 1], "1": 5}}),
    ("fixed-points", {"size": "2", "action": {"1": [1, 0]}}),
    ("census", {"degree": 3, "generators": 5}),
    ("census", {"order": 2, "mult": 7}),
    ("census-family", [5]),
    ("census-family", [[0, "a"]]),
    ("homology", {"simplices": {"0": 5}}),
    ("homology", {"simplices": {"0": [0], "1": [1]}, "faces": {"1": 5}}),
    ("homology", {"simplices": {"0": [0]}, "action": {"0": 3}}),
], ids=["sset-list", "values-list", "value-string", "value-base-list",
        "value-word-nested", "gset-action-list",
        "gset-perm-number", "gset-size-string", "group-generators-number",
        "group-mult-number", "family-member-number", "family-member-string",
        "sset-simplices-number", "sset-faces-number", "sset-action-number"])
def test_exit_2_on_malformed_json(files, capsys, verb, data):
    path = files["tmp"] / "malformed.json"
    path.write_text(json.dumps(data))
    argv = {"homology": ["homology", "--sset", str(path), "--ring", "Z"],
            "cells": ["cells", "--map", str(path)],
            "fixed-points": ["fixed-points", "--sset", str(path),
                             "--group", files["group"]],
            "census": ["census", "--group", str(path)],
            "census-family": ["census", "--group", files["group"],
                              "--family", str(path)]}[verb]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "input error" in err


def _exit_2_with_and_without_O(capsys, argv, words):
    """In-process, and in a ``python -O`` process, where an assert would vanish."""
    code, _, err = run(capsys, argv)
    assert code == 2 and words in err, (code, err)
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-m", "orbitkit.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2 and words in proc.stderr, (proc.returncode, proc.stderr)


def test_exit_2_on_a_family_member_outside_the_group(files, capsys):
    path = files["tmp"] / "family.json"
    path.write_text(json.dumps([[0, 5]]))
    _exit_2_with_and_without_O(capsys, ["orbit-cat", "--group", files["group"],
                                        "--family", str(path)],
                               "element 5 outside the group")


@pytest.mark.parametrize("verb,data,words", [
    ("fixed-points", {"size": 2, "action": {"0": [0, 1], "1": [1, 0], "9": [0, 1]}},
     "action key 9 is not a group element"),
    ("homology", {"simplices": {"0": [0]}, "faces": {},
                  "action": {"0": {"0": 0}, "1": {"0": 0}, "9": {"0": 0}}},
     "action key 9 is not a group element"),
    ("homology", {"simplices": {"0": [0]}, "faces": {"7": [[0, []]]},
                  "action": {"0": {"0": 0}, "1": {"0": 0}}},
     "faces given for 7"),
    ("cells", {"source": "point", "target": "point", "values": {"0": 0, "3": 0}},
     "value for 3"),
], ids=["gset-action-key", "sset-action-key", "sset-faces-key", "map-values-key"])
def test_exit_2_on_a_key_that_names_nothing(files, capsys, verb, data, words):
    path = files["tmp"] / "stray.json"
    path.write_text(json.dumps(data))
    argv = {"fixed-points": ["fixed-points", "--sset", str(path), "--group", files["group"]],
            "homology": ["homology", "--sset", str(path), "--group", files["group"],
                         "--ring", "Z"],
            "cells": ["cells", "--map", str(path)]}[verb]
    _exit_2_with_and_without_O(capsys, argv, words)


def test_exit_3_on_internal_error(files, capsys, monkeypatch):
    import orbitkit.whitehead
    monkeypatch.setattr(orbitkit.whitehead, "verify_certificate",
                        lambda cert, cf: False)
    code, _, err = run(capsys, ["whitehead", "--group", files["group"],
                                "--map", files["to_vee"], "--family", "all",
                                "--ring", "Z"])
    assert code == 3
    assert "internal error" in err and "re-verification" in err


def test_failed_corestrictions_exit_3_under_python_O():
    # the corestriction checks must be raises that -O keeps, not asserts
    script = textwrap.dedent("""
        import contextlib, io, sys
        from orbitkit import InternalError, ZZ, chains, cyclic_group, elmendorf, \\
            fixed_sset, gtensor, regular_gset, standard_simplex, trivial_subgroup
        from orbitkit.cli import main
        from orbitkit.exactla import Mat
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        group, smap = sys.argv[1:3]

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

        elmendorf.ChainCat.action_as_map = projection
        exit_3(["elmendorf", "--group", group, "--family", "all", "--ring", "Z"],
               "translation")
        invariants = chains.invariants

        def no_coords(c, h):
            # an inclusion whose coordinates are all zero: nothing factors
            inv, incl = invariants(c, h)
            incl.coords = [Mat.zeros(c.ring, p.nrows, p.ncols) for p in incl.coords]
            return inv, incl

        chains.invariants = no_coords
        exit_3(["whitehead", "--group", group, "--map", smap, "--family", "all",
                "--ring", "Z"], "does not factor")
        c2 = cyclic_group(2)
        x, e = gtensor(regular_gset(c2), standard_simplex(1)), trivial_subgroup(c2)
        c = chains.normalized_chains(x, ZZ)
        try:  # the comparison C(X^H) -> C(X)^H
            chains.corestrict(chains.normalized_chain_map(fixed_sset(x, e)[1], ZZ, cy=c),
                              chains.invariants(c, e)[1])
        except InternalError:
            sys.exit(0)
        sys.exit("the fixed-chains comparison returned a map")
    """)
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    src = str(Path(orbitkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script,
                           str(fixtures / "c2.json"), str(fixtures / "point_to_vee.json")],
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

"""Batch command-line front end.

One verb per construction; file-based inputs, deterministic reports.
Exit codes: 0 success, 1 verification failure (a check that ran and said
no), 2 invalid input, 3 internal error (a broken invariant: a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import elmendorf as elm
from .chains import homology, invariants, normalized_chains
from .errors import InternalError
from .groups import trivial_subgroup
from .gsets import orbit_analysis
from .jsonio import InputError, format_homology, load_family, load_group, \
    load_gset, load_sset, load_smap, is_gset_data, sset_data
from .orbitcat import build_orbit_category
from .rings import ring_from_tag
from .simplicial import cell_decomposition, check_F_cofibration, fixed_sset, \
    ReplayError
from .whitehead import whitehead_verify


def _emit(args, text: str, payload: dict) -> None:
    out = json.dumps(payload, sort_keys=True, indent=2) if args.format == "json" \
        else text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def cmd_orbit_cat(args) -> int:
    group = load_group(args.group)
    cat = build_orbit_category(group, load_family(args.family, group))
    payload = cat.to_json()
    lines = ["objects: " + " ".join("{" + o + "}" for o in payload["objects"])]
    for key, reps in sorted(payload["hom"].items()):
        h, k = key.split(";")
        lines.append(f"hom({{{h}}} -> {{{k}}}): {len(reps)} morphisms, reps {reps}")
    if args.format == "text":
        lines.append(cat.composition_table_text())
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_fixed_points(args) -> int:
    group = load_group(args.group) if args.group else None
    data = sset_data(args.sset)
    family = load_family(args.family, group) if group else None
    lines = []
    payload = {}
    if is_gset_data(data):
        if group is None:
            raise InputError("fixed-points on a G-set needs --group")
        x = load_gset(data, group)
        for h in family:
            rep = orbit_analysis(x, h)
            lines.append(f"H={{{h.label}}} fixed: {list(rep.fixed)}")
            payload[h.label] = {"fixed": list(rep.fixed),
                                "orbits": [{"rep": o.representative,
                                            "stabilizer": o.stabilizer.label,
                                            "members": list(o.members)}
                                           for o in rep.orbits]}
    else:
        x = load_sset(data, group)
        if family is None:
            family = [trivial_subgroup(x.group)]
        for h in family:
            fx, _ = fixed_sset(x, h)
            counts = {str(n): len(fx.simplices[n]) for n in sorted(fx.simplices)}
            lines.append(f"H={{{h.label}}} fixed simplices per dim: {counts}")
            payload[h.label] = {"simplices": {str(n): list(fx.simplices[n])
                                              for n in sorted(fx.simplices)}}
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_homology(args) -> int:
    ring = ring_from_tag(args.ring)
    group = load_group(args.group) if args.group else None
    x = load_sset(args.sset, group)
    family = load_family(args.family, x.group)
    c = normalized_chains(x, ring)
    lines = []
    payload = {}
    for h in family:
        inv, _ = invariants(c, h)
        col_a = homology(inv)
        col_b = col_a if h.is_trivial() else homology(  # X^e = X: its chains are c
            normalized_chains(fixed_sset(x, h)[0], ring))
        text_a = format_homology(col_a, ring.name)
        text_b = format_homology(col_b, ring.name)
        if h.is_trivial():
            lines.append(text_a)
        lines.append(f"H={{{h.label}}} invariants-of-chains: {text_a}")
        lines.append(f"H={{{h.label}}} chains-of-fixed-points: {text_b}")
        payload[h.label] = {
            "invariants_of_chains": [{"degree": g.degree, "free": g.free_rank,
                                      "torsion": list(g.torsion)} for g in col_a],
            "chains_of_fixed_points": [{"degree": g.degree, "free": g.free_rank,
                                        "torsion": list(g.torsion)} for g in col_b],
        }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_cofib_check(args) -> int:
    group = load_group(args.group) if args.group else None
    f = load_smap(args.map, group)
    family = load_family(args.family, f.target.group)
    verdict = check_F_cofibration(f, family)
    text = "cofibration: yes" if verdict.ok else \
        f"cofibration: no (witness simplex {verdict.witness}: {verdict.reason})"
    _emit(args, text, verdict.to_json())
    return 0 if verdict.ok else 1


def cmd_cells(args) -> int:
    group = load_group(args.group) if args.group else None
    f = load_smap(args.map, group)
    try:
        cs = cell_decomposition(f)
    except (ReplayError, ValueError) as exc:
        _emit(args, f"cells: failed ({exc})", {"error": str(exc)})
        return 1
    lines = []
    payload = {}
    for n in sorted(cs.by_dim):
        entries = []
        for summand in cs.by_dim[n]:
            lines.append(f"dim {n}: orbit of simplex {summand.representative}, "
                         f"stabilizer {{{summand.stabilizer.label}}}")
            entries.append({"representative": summand.representative,
                            "stabilizer": summand.stabilizer.label,
                            "attaching": [[r.base, list(r.word)]
                                          for r in summand.attaching]})
        payload[str(n)] = entries
    lines.append("replay: reconstructed")
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_elmendorf(args) -> int:
    group = load_group(args.group)
    family = load_family(args.family, group)
    cat = build_orbit_category(group, family)
    if args.sset:
        vcat = elm.FinSSetCat()
        cell = load_sset(args.sset, None)
    elif args.ring:
        vcat = elm.ChainCat(ring_from_tag(args.ring))
        from .chains import concentrated
        cell = concentrated(vcat.ring, 0)
    else:
        vcat = elm.FinSetCat()
        cell = ("*",)
    lines = []
    payload = {"adjunction": {}, "cellularity": {}}
    for k in family:
        t = elm.free_cell_diagram(cat, k, cell, vcat)
        x = elm.i_upper(t)
        rep = elm.adjunction_check(t, x)
        payload["adjunction"][k.label] = rep.to_json()
        lines.append(f"free cell at {{{k.label}}}: unit_iso={rep.unit_iso} "
                     f"counit_iso={rep.counit_iso} triangles="
                     f"{rep.triangle_left and rep.triangle_right}")
    cells = [elm.coset_cell(group, k, cell, vcat) for k in family]
    for h in family:
        for k, kcell in zip(family, cells):
            r = elm.cellularity_report(group, h, k, cell, vcat, kcell)
            payload["cellularity"][f"{h.label};{k.label}"] = r.to_json()
            lines.append(f"cellularity H={{{h.label}}} K={{{k.label}}}: iso={r.iso}")
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_whitehead(args) -> int:
    group = load_group(args.group) if args.group else None
    f = load_smap(args.map, group)
    family = load_family(args.family, f.source.group)
    ring = ring_from_tag(args.ring)
    report = whitehead_verify(f, family, ring)
    ok = report.certificate is not None
    lines = [f"isotropy: subconjugate={report.isotropy.ok_conjugate} "
             f"strict={report.isotropy.ok_strict}"]
    for lbl, v in sorted(report.hyp_a.items()):
        lines.append(f"hyp (a) H={{{lbl}}}: {'pass' if v else 'FAIL'}")
    for lbl, v in sorted(report.hyp_b.items()):
        lines.append(f"hyp (b) H={{{lbl}}}: {'pass' if v else 'FAIL'}")
    if not report.searched:
        lines.append(f"certificate: not searched "
                     f"(failing subgroups: {report.failing_subgroups()})")
    else:
        lines.append(f"certificate: {'found and verified' if ok else 'none over this ring'}")
    _emit(args, "\n".join(lines), report.to_json())
    return 0 if ok else 1


def cmd_census(args) -> int:
    group = load_group(args.group)
    cat = build_orbit_category(group, load_family(args.family, group))
    rep = elm.arrow_poset_census(cat)
    text = f"{rep.diagram_count} diagrams vs {rep.gobject_count} G-objects"
    _emit(args, text, rep.to_json())
    return 0


@functools.cache  # parsing leaves the parser as it was
def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="orbitkit",
                                description="exact equivariant toolkit")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, group=False, family=False, sset=False, map_=False, ring=None):
        if group:
            sp.add_argument("--group", required=(group == "required"))
        if family:
            sp.add_argument("--family", default=None,
                            help="all | trivial | path to a member-list file")
        if sset:
            sp.add_argument("--sset", required=(sset == "required"),
                            help="simplicial set (or G-set) JSON file or builtin name")
        if map_:
            sp.add_argument("--map", required=True,
                            help="simplicial map JSON file with inline source/target")
        if ring == "required":
            sp.add_argument("--ring", required=True, help="Z | Q | Fp:p")
        elif ring:
            sp.add_argument("--ring", default=None, help="Z | Q | Fp:p")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("orbit-cat", help="build and print the orbit category")
    common(sp, group="required", family=True)
    sp.set_defaults(fn=cmd_orbit_cat)

    sp = sub.add_parser("fixed-points", help="fixed points per subgroup")
    common(sp, group=True, family=True, sset="required")
    sp.set_defaults(fn=cmd_fixed_points)

    sp = sub.add_parser("homology", help="equivariant homology table")
    common(sp, group=True, family=True, sset="required", ring="required")
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("cofib-check", help="family cofibration verdict")
    common(sp, group=True, family=True, map_=True)
    sp.set_defaults(fn=cmd_cofib_check)

    sp = sub.add_parser("cells", help="equivariant cell decomposition")
    common(sp, group=True, map_=True)
    sp.set_defaults(fn=cmd_cells)

    sp = sub.add_parser("elmendorf", help="adjunction and cellularity reports")
    common(sp, group="required", family=True, sset=False, ring=True)
    sp.add_argument("--sset", default=None,
                    help="cell object for the simplicial value category")
    sp.set_defaults(fn=cmd_elmendorf)

    sp = sub.add_parser("whitehead", help="hypotheses plus certificate search")
    common(sp, group=True, family=True, map_=True, ring="required")
    sp.set_defaults(fn=cmd_whitehead)

    sp = sub.add_parser("census", help="arrow-poset diagram census")
    common(sp, group="required", family=True)
    sp.set_defaults(fn=cmd_census)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # InputError included
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Exit codes: 0 the command ran, 2 invalid input, 3 internal invariant breach.
All outputs are deterministic JSON (sorted keys) so runs can be diffed.
"""

import argparse
import json
import sys
from pathlib import Path

from . import angles, enumeration, geometry, grouplab, pairings, polytope


def _dump(doc, path=None):
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _load_poly(path):
    return polytope.load_polyhedron(path)


def cmd_info(args):
    poly = _load_poly(args.polyhedron)
    doc = {
        "name": poly.name,
        "vertices": poly.vertex_count(),
        "edges": poly.edge_count(),
        "faces": poly.face_count(),
    }
    try:
        doc["edge_classes_required"] = angles.required_class_count(poly)
    except angles.ClassCountError as exc:
        doc["edge_classes_required"] = None
        doc["class_count_error"] = str(exc)
    doc["edge_bound_ok"] = grouplab.edge_bound_check(poly)
    if not doc["edge_bound_ok"]:
        doc["warning"] = ("edge count exceeds twice the vertex count; any "
                          "torsion-free domain needs commuting generators")
    _dump(doc, args.out_file)
    return 0


def _write_run(report, doc, out):
    """report.json plus one candidate_NNN.json per survivor in directory
    `out`, or the report alone on stdout when no directory is given."""
    if not out:
        _dump(doc)
        return
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    _dump(doc, outdir / "report.json")
    for i, cand in enumerate(report.survivors):
        _dump(enumeration.candidate_to_json_dict(cand),
              outdir / f"candidate_{i:03d}.json")


def cmd_enumerate(args):
    poly = _load_poly(args.polyhedron)
    report = enumeration.classify(poly, circuit_cap=args.circuit_cap)
    if not report.counts_consistent():
        raise AssertionError("report counts do not sum to the total")
    doc = enumeration.report_to_json_dict(report)
    if args.group == "rotations":
        doc["families_requested_grouping"] = len(report.families_rotations)
    else:
        doc["families_requested_grouping"] = len(report.families_full)
    _write_run(report, doc, args.out)
    return 0


def cmd_angles(args):
    poly = _load_poly(args.polyhedron)
    cand_doc = json.loads(Path(args.candidate).read_text())
    cand = enumeration.candidate_from_json_dict(poly, cand_doc)
    doc = {
        "status": cand.solution.status,
        "rank": cand.solution.rank,
        "free_variables": len(cand.solution.basis),
        "witness": cand.witness.to_json_dict(),
        "class_sizes": list(cand.class_sizes),
    }
    _dump(doc, args.out_file)
    return 0


def cmd_restrict(args):
    poly = _load_poly(args.polyhedron)
    if args.candidate:
        cand_doc = json.loads(Path(args.candidate).read_text())
        scheme = pairings.scheme_from_json_dict(poly, cand_doc["scheme"])
        gens = None
        try:
            realization = geometry.regular_cube_realization(poly)
            gens = geometry.face_pairing_maps(realization, scheme)
        except (geometry.GeometryError, pairings.SchemeError):
            pass
        report = grouplab.restriction_report(scheme, gens)
        doc = {
            "has_size3_class": report.has_size3_class,
            "has_y2z_relator": report.has_y2z_relator,
            "squared_terms": len(report.squared_term_relators),
            "adjacent_identified_sharing_edge":
                report.adjacent_identified_sharing_edge,
            "edge_bound_ok": report.edge_bound_ok,
            "parity_ok": report.parity_ok,
            "commuting_generator_pairs":
                [list(p) for p in report.commuting_generator_pairs],
        }
    else:
        doc = {
            "edge_bound_ok": grouplab.edge_bound_check(poly),
            "edges": poly.edge_count(),
            "vertices": poly.vertex_count(),
        }
    _dump(doc, args.out_file)
    return 0


def cmd_realize(args):
    poly = _load_poly(args.polyhedron)
    realization = geometry.regular_cube_realization(poly)
    _dump(geometry.realization_to_json_dict(realization), args.out_file)
    return 0


def cmd_verify(args):
    poly = _load_poly(args.polyhedron)
    cand_doc = json.loads(Path(args.candidate).read_text())
    cand = enumeration.candidate_from_json_dict(poly, cand_doc)
    try:
        presentation = geometry.verify_candidate(
            cand, tol_id=args.tol_id, tol_geo=args.tol_geo)
    except geometry.NotRealizableError as exc:
        _dump({"status": "not-attempted", "reason": str(exc)}, args.out_file)
        return 0
    doc = geometry.presentation_to_json_dict(presentation)
    doc["status"] = "CONFIRMED" if presentation.confirmed() else "REJECTED"
    doc["generator_types"] = {
        sym: geometry.classify_element(m)
        for sym, m in sorted(presentation.generators.items())}
    _dump(doc, args.out_file)
    return 0


def cmd_pipeline(args):
    poly = _load_poly(args.polyhedron)
    report = enumeration.classify(poly, circuit_cap=args.circuit_cap)
    doc = enumeration.report_to_json_dict(report)
    families = []
    for key, members in sorted(report.families_full.items()):
        entry = {
            "schemes": len(members),
            "class_sizes": list(members[0].class_sizes),
            "rotation_classes": len({m.key_rotations for m in members}),
        }
        rep = members[0]
        try:
            presentation = geometry.verify_candidate(
                rep, tol_id=args.tol_id, tol_geo=args.tol_geo)
            entry["verification"] = ("CONFIRMED" if presentation.confirmed()
                                     else "REJECTED")
        except geometry.NotRealizableError as exc:
            entry["verification"] = "out-of-scope"
            entry["reason"] = str(exc)
        except (geometry.GeometryError, pairings.SchemeError) as exc:
            entry["verification"] = "error"
            entry["reason"] = str(exc)
        families.append(entry)
    doc["families"] = families
    _write_run(report, doc, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypdom",
        description="Torsion-free fundamental domain search on polyhedra")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--out-file": dict(default=None, help="write JSON here"),
        "--out": dict(default=None, help="directory for report + candidates"),
        "--group": dict(choices=("rotations", "all"), default="all"),
        "--candidate": dict(default=None, help="candidate JSON document"),
        "--circuit-cap": dict(type=int, default=polytope.DEFAULT_CIRCUIT_CAP),
        "--tol-id": dict(type=float, default=geometry.EPS_ID),
        "--tol-geo": dict(type=float, default=geometry.EPS_GEO),
    }

    def command(name, func, help, flags, candidate=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("polyhedron", help="polyhedron JSON document")
        if candidate:
            p.add_argument("candidate", help="candidate JSON document")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)

    command("info", cmd_info, "census and required class count",
            ["--out-file"])
    command("enumerate", cmd_enumerate, "search pairing schemes",
            ["--circuit-cap", "--group", "--out"])
    command("angles", cmd_angles,
            "solve a candidate's angle system, check its witness",
            ["--out-file"], candidate=True)
    command("restrict", cmd_restrict, "relator-shape restriction report",
            ["--out-file", "--candidate"])
    command("realize", cmd_realize, "regular ideal realization (cube)",
            ["--out-file"])
    command("verify", cmd_verify, "verify a candidate's relators",
            ["--out-file", "--tol-id", "--tol-geo"], candidate=True)
    command("pipeline", cmd_pipeline, "enumerate, solve, restrict, verify",
            ["--circuit-cap", "--tol-id", "--tol-geo", "--out"])
    return parser


INPUT_ERRORS = (polytope.PolyhedronError, pairings.SchemeError,
                angles.PartitionError, angles.ClassCountError,
                enumeration.EnumerationError, json.JSONDecodeError,
                FileNotFoundError, KeyError,
                enumeration.SchemeCapExceeded, polytope.CircuitCapExceeded,
                angles.DimensionCapExceeded)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (pairings.CensusError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Each `cmd_<name>(poly, args)` builds its command's document and returns it;
`main` loads the polyhedron, writes the document and returns the exit code.
`enumerate` and `pipeline` write their runs through `_write_run` instead.
Exit codes: 0 the command ran (also when the reader of its standard output
closed the pipe early), 2 invalid input, 3 internal invariant breach.
All outputs are deterministic JSON (sorted keys) so runs can be diffed.
One writer, `_dump`, encodes every document: the bytes of json.dumps with
indent=1 and sorted keys, without the pure-Python encoder that the indent
would select.  It alone sorts keys and refuses a non-string key.
Candidate documents are read as UTF-8, like polyhedra.
"""

import argparse
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import angles, enumeration, geometry, grouplab, pairings, polytope


def _encode(doc):
    """`doc` as JSON text, byte for byte what json.dumps(doc, indent=1,
    sort_keys=True) writes: dicts with string keys, lists, plain tuples,
    strings, ints, booleans and None; anything else raises TypeError."""
    parts = []
    _write(doc, "\n", parts.append)
    return "".join(parts)


def _write(value, pad, out):
    """Pass the JSON text of `value` to `out` piece by piece, `pad` the
    newline and indent before its closing bracket."""
    kind = type(value)
    if kind is int:  # most values, so checked first
        out(int.__repr__(value))
    elif kind is str:
        out(encode_basestring_ascii(value))
    elif value is None:
        out("null")
    elif value is True or value is False:
        out("true" if value else "false")
    elif isinstance(value, dict):
        inner = pad + " "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            out(sep)
            out(encode_basestring_ascii(key))  # TypeError unless a str
            out(": ")
            _write(value[key], inner, out)
            sep = comma
        out(pad + "}" if value else "{}")
    elif kind is list or kind is tuple:
        inner = pad + " "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out(sep)
            _write(item, inner, out)
            sep = comma
        out(pad + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def _dump(doc, path=None):
    text = _encode(doc)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _read_json(path):
    """The JSON document in file `path`, read as UTF-8."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def cmd_info(poly, args):
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
    return doc


def _write_run(report, doc, out):
    """report.json plus one candidate_NNN.json per survivor in directory
    `out`, whose other candidate_NNN.json files (NNN: 3+ ASCII digits, no
    extra leading 0; an earlier run's) go, or the report alone on stdout."""
    if not out:
        _dump(doc)
        return
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    stale = {path.name for path in outdir.glob("candidate_*.json")
             if re.fullmatch(r"candidate_([0-9]{3}|[1-9][0-9]{3,})\.json",
                             path.name)}
    _dump(doc, outdir / "report.json")
    for i, cand in enumerate(report.survivors):
        name = f"candidate_{i:03d}.json"
        stale.discard(name)
        _dump(enumeration.candidate_to_json_dict(cand), outdir / name)
    for name in stale:
        (outdir / name).unlink()


def cmd_enumerate(poly, args):
    report = enumeration.classify(poly)
    _write_run(report, enumeration.report_to_json_dict(report), args.out)


def _candidate(poly, args):
    """The candidate in file `args.candidate`, its witness checked."""
    return enumeration.candidate_from_json_dict(poly,
                                                _read_json(args.candidate))


def cmd_angles(poly, args):
    cand = _candidate(poly, args)
    solution = angles.solve_exact(cand.system)
    return {
        "status": solution.status,
        "rank": solution.rank,
        "free_variables": len(solution.basis),
        "witness": cand.witness.to_json_dict(),
        "class_sizes": list(cand.class_sizes),
    }


def cmd_restrict(poly, args):
    scheme = enumeration.candidate_scheme(poly, _read_json(args.candidate))
    try:
        gens = geometry.face_pairing_maps(geometry.load_realization(poly),
                                          scheme)
    except geometry.GeometryError:
        gens = None
    return grouplab.restriction_report(scheme, gens)


def cmd_realize(poly, args):
    return geometry.realization_to_json_dict(geometry.load_realization(poly))


def cmd_verify(poly, args):
    cand = _candidate(poly, args)
    try:
        return geometry.verify_candidate(cand)
    except geometry.NotRealizableError as exc:
        return {"status": "not-attempted", "reason": str(exc)}


def cmd_pipeline(poly, args):
    report = enumeration.classify(poly)
    doc = enumeration.report_to_json_dict(report)
    families = []
    for summary, (rep, *_) in zip(doc["families_full_group"],
                                  report.families_full.values()):
        entry = dict(summary)
        entry["schemes"] = entry.pop("size")
        try:
            entry["verification"] = geometry.verify_candidate(rep)["status"]
        except geometry.NotRealizableError as exc:
            entry["verification"] = "out-of-scope"
            entry["reason"] = str(exc)
        except geometry.GeometryError as exc:
            entry["verification"] = "error"
            entry["reason"] = str(exc)
        families.append(entry)
    doc["families"] = families
    _write_run(report, doc, args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypdom",
        description="Torsion-free fundamental domain search on polyhedra")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--out-file": dict(default=None, help="write JSON here"),
        "--out": dict(default=None, help="directory for report + candidates"),
    }

    def command(name, help, flags, candidate=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("polyhedron", help="polyhedron JSON document")
        if candidate:
            p.add_argument("candidate", help="candidate JSON document")
        for flag in flags:
            p.add_argument(flag, **options[flag])

    command("info", "census and required class count", ["--out-file"])
    command("enumerate", "search pairing schemes", ["--out"])
    command("angles", "solve a candidate's angle system, check its witness",
            ["--out-file"], candidate=True)
    command("restrict", "relator-shape restriction report", ["--out-file"],
            candidate=True)
    command("realize", "bundled regular ideal realization", ["--out-file"])
    command("verify", "verify a candidate's relators", ["--out-file"],
            candidate=True)
    command("pipeline", "enumerate, solve, restrict, verify", ["--out"])
    return parser


INPUT_ERRORS = (polytope.PolyhedronError, pairings.SchemeError,
                angles.PartitionError, angles.ClassCountError,
                enumeration.EnumerationError, json.JSONDecodeError,
                UnicodeDecodeError, OSError, enumeration.SchemeCapExceeded,
                geometry.NotRealizableError, geometry.RealizationError)


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:  # built once per process, not once per call
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # a usage error (2) or --help (0): argparse has printed the message
        return exc.code
    try:
        poly = polytope.load_polyhedron(args.polyhedron)
        # cmd_<name> is looked up at call time, so a wrapper put in its
        # place as a module attribute is honoured
        doc = globals()[f"cmd_{args.command}"](poly, args)
        if doc is not None:  # enumerate and pipeline write their own runs
            _dump(doc, args.out_file)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return 0
    except BrokenPipeError:
        # the reader stopped early: what is left goes nowhere, quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (pairings.CensusError, AssertionError, KeyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

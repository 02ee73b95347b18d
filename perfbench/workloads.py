"""Workload inputs, passes and correctness gates.

Each workload drives the public entry point `hypdom.cli.main` in-process.
Its inputs are the bundled solid documents, relabeled by the seed (see
`relabel`), written to the run's work directory.
"""

import hashlib
import json
import random
import shutil
from fractions import Fraction

# Values pinned by tests/test_enumeration.py (test_classify_counts,
# test_classify_families, test_classify_octahedron_exploratory).  A family is
# (class sizes, schemes, rotation classes).
EXPECTED = {
    "tetrahedron": {
        "total_schemes": 27, "survivors": 0, "families": [],
        "verdicts": set(),
    },
    "cube": {
        "total_schemes": 960, "survivors": 30,
        "rejected": {"elliptic": 464, "class_count": 302, "class_size": 24,
                     "system_infeasible": 0, "rivin_infeasible": 140},
        "families": [((6, 6), 6, 2), ((6, 6), 12, 1), ((6, 6), 12, 2)],
        "families_rotation_group": 5,
        "verdicts": {"CONFIRMED"},
    },
    "octahedron": {
        "total_schemes": 8505, "survivors": 120,
        "families": [((3, 3, 6), 12, 2)] * 2 + [((3, 4, 5), 24, 2)] * 3
                    + [((4, 4, 4), 12, 2)] * 2,
        # the regular realization is cube-only today; a realization that
        # verifies octahedron families must confirm them
        "verdicts": {"out-of-scope", "CONFIRMED"},
    },
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def rotations(faces):
    """Orientation-preserving automorphisms of an oriented polyhedron, as
    vertex maps.  Each is fixed by the directed edge that the first edge of
    face 0 goes to; the rest follows face by face across shared edges."""
    where = {}  # directed edge (u, v) -> (face, position of u in it)
    for fi, face in enumerate(faces):
        for i, u in enumerate(face):
            where[(u, face[(i + 1) % len(face)])] = (fi, i)
    found = []
    for image in where:
        vmap, done = {}, set()
        queue = [((faces[0][0], faces[0][1]), image)]
        while queue and vmap is not None:
            src, dst = queue.pop()
            (fs, i), (fd, j) = where[src], where.get(dst, (None, 0))
            if fs in done:
                continue
            a, b = faces[fs], faces[fd] if fd is not None else ()
            if len(a) != len(b):
                vmap = None
                break
            done.add(fs)
            n = len(a)
            for t in range(n):
                u, w = a[(i + t) % n], b[(j + t) % n]
                if vmap.setdefault(u, w) != w:
                    vmap = None
                    break
                # the twin of each edge lies in the neighbouring face
                queue.append(((a[(i + t + 1) % n], u), (b[(j + t + 1) % n], w)))
        if vmap is not None and len(set(vmap.values())) == len(vmap):
            found.append(vmap)
    return found


def relabel(doc, seed):
    """Seed 0: the document unchanged.  Any other seed: the same solid with
    its faces shuffled and each cycle rotated, orientation and vertex names
    kept, drawn from the relabelings that a rotation of the solid induces
    (face i becomes the image of face i under that rotation).

    Those relabelings leave the exact arithmetic of the angle stage
    unchanged, because edge ids follow the face order.  An arbitrary face
    order changes the Fourier-Motzkin elimination order, and with it the
    octahedron pipeline's time by a factor of up to 40 (see README.md),
    more than one bounded run can hold.
    """
    if seed == 0:
        return doc
    choices = [r for r in rotations(doc["faces"])
               if any(k != v for k, v in r.items())]
    sigma = random.Random(seed).choice(choices)
    return dict(doc, faces=[[sigma[v] for v in face] for face in doc["faces"]])


def tree_digest(directory):
    """sha256 over the sorted relative paths and bytes of every file, plus
    the file count and byte count."""
    h = hashlib.sha256()
    files = total = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(len(data).to_bytes(8, "big") + data)
        files += 1
        total += len(data)
    return h.hexdigest(), files, total


# ---------------------------------------------------------------------------
# Correctness gates: each returns a list of failure messages
# ---------------------------------------------------------------------------

def check_report(report, expected):
    errors = []
    for key in ("total_schemes", "survivors", "rejected",
                "families_rotation_group"):
        if key in expected and report.get(key) != expected[key]:
            errors.append(f"{key}: {report.get(key)!r} != {expected[key]!r}")
    if report["total_schemes"] != sum(report["rejected"].values()) + report["survivors"]:
        errors.append("report counts do not sum to the total")
    families = sorted((tuple(f["class_sizes"]), f["size"], f["rotation_classes"])
                      for f in report["families_full_group"])
    if families != sorted(expected["families"]):
        errors.append(f"families {families} != {sorted(expected['families'])}")
    verified = sorted((tuple(f["class_sizes"]), f["schemes"], f["rotation_classes"])
                      for f in report.get("families", []))
    if verified != families:
        errors.append("pipeline families differ from the report's families")
    for f in report.get("families", []):
        if f["verification"] not in expected["verdicts"]:
            errors.append(f"family verification {f['verification']!r}"
                          f" not in {sorted(expected['verdicts'])}")
    return errors


def check_witness(hypdom, poly, inc, dual, candidate):
    """The candidate's witness solves its vertex and class equations exactly
    and passes angles.check_inequalities."""
    values = {int(k): Fraction(v) for k, v in candidate["witness"].items()}
    classes = [{step[0] for step in orbit} for orbit in candidate["orbits"]]
    errors = []
    if sorted(values) != list(range(len(inc.edges))):
        errors.append("witness does not cover every edge")
        return errors
    for v in poly.vertices:
        if sum(values[e] for e in inc.vertex_edges[v]) != 2:
            errors.append(f"vertex {v}: angles do not sum to 2")
    for cl in classes:
        if sum(values[e] for e in cl) != len(cl) - 2:
            errors.append(f"class {sorted(cl)}: angles do not sum to size-2")
    ok, failures = hypdom.angles.check_inequalities(poly, dual, values)
    if not ok:
        errors.append(f"check_inequalities failed: {failures[:3]}")
    return errors


def check_candidates(hypdom, doc_path, directory, count):
    """`count` candidate files, each with a valid witness."""
    poly = hypdom.polytope.load_polyhedron(str(doc_path))
    inc = hypdom.polytope.build_incidence(poly)
    dual = hypdom.polytope.build_dual(poly, inc)
    paths = sorted(directory.glob("candidate_*.json"))
    errors = []
    if [p.name for p in paths] != [f"candidate_{i:03d}.json" for i in range(count)]:
        errors.append(f"expected {count} candidate files, found {len(paths)}")
    for path in paths:
        for msg in check_witness(hypdom, poly, inc, dual,
                                 json.loads(path.read_text())):
            errors.append(f"{path.name}: {msg}")
    return errors


def check_pipeline_output(hypdom, doc_path, out, expected):
    names = {p.name for p in out.iterdir()}
    if "report.json" not in names:
        return ["report.json missing"]
    report = json.loads((out / "report.json").read_text())
    errors = check_report(report, expected)
    if len(names) != report["survivors"] + 1:
        errors.append(f"{len(names)} files for {report['survivors']} survivors")
    return errors + check_candidates(hypdom, doc_path, out, expected["survivors"])


def check_verify_output(out, count):
    paths = sorted(out.glob("verify_*.json"))
    errors = []
    if len(paths) != count:
        errors.append(f"expected {count} verify outputs, found {len(paths)}")
    for path in paths:
        doc = json.loads(path.read_text())
        if doc.get("status") != "CONFIRMED":
            errors.append(f"{path.name}: status {doc.get('status')!r}")
        elif set(doc["generator_types"].values()) != {"loxodromic"}:
            errors.append(f"{path.name}: generators {doc['generator_types']}")
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Pipeline:
    """`hypdom pipeline SOLID.json --out DIR`, one command per pass."""

    def __init__(self, solid):
        self.solid = solid
        self.expected = EXPECTED[solid]

    def prepare(self, hypdom, doc, work):
        self.doc_path = work / f"{self.solid}.json"
        self.doc_path.write_text(json.dumps(doc))
        hypdom.polytope.load_polyhedron(str(self.doc_path))

    def check_setup(self, hypdom):
        return []

    def run_pass(self, cli, out):
        return cli.main(["pipeline", str(self.doc_path), "--out", str(out)])

    def check(self, hypdom, out):
        return check_pipeline_output(hypdom, self.doc_path, out, self.expected)

    def schemes(self, out):
        """(schemes enumerated, schemes that reach the angle stage)."""
        report = json.loads((out / "report.json").read_text())
        rej = report["rejected"]
        return (report["total_schemes"], report["total_schemes"]
                - rej["elliptic"] - rej["class_count"] - rej["class_size"])


class VerifyCube:
    """`hypdom verify cube.json candidate_i.json --out-file F` for each of the
    30 candidates that `hypdom enumerate` writes during set-up; one pass
    verifies all of them."""

    solid = "cube"

    def prepare(self, hypdom, doc, work):
        self.doc_path = work / "cube.json"
        self.doc_path.write_text(json.dumps(doc))
        hypdom.polytope.load_polyhedron(str(self.doc_path))
        cand_dir = work / "candidates"
        shutil.rmtree(cand_dir, ignore_errors=True)
        code = hypdom.cli.main(["enumerate", str(self.doc_path),
                                "--out", str(cand_dir)])
        if code != 0:
            raise RuntimeError(f"hypdom enumerate exited {code}")
        self.cand_dir = cand_dir
        self.candidates = sorted(cand_dir.glob("candidate_*.json"))

    def check_setup(self, hypdom):
        return check_candidates(hypdom, self.doc_path, self.cand_dir,
                                EXPECTED["cube"]["survivors"])

    def run_pass(self, cli, out):
        out.mkdir(parents=True)
        for i, cand in enumerate(self.candidates):
            code = cli.main(["verify", str(self.doc_path), str(cand),
                             "--out-file", str(out / f"verify_{i:03d}.json")])
            if code != 0:
                return code
        return 0

    def check(self, hypdom, out):
        return check_verify_output(out, EXPECTED["cube"]["survivors"])

    def schemes(self, out):
        return len(self.candidates), len(self.candidates)


WORKLOADS = {
    "pipeline_cube": lambda: Pipeline("cube"),
    "pipeline_octahedron": lambda: Pipeline("octahedron"),
    "verify_cube": VerifyCube,
}

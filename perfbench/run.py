"""hypdom benchmark: one workload per run, closed loop, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from anywhere; the program under test is imported from `src/` next to
this directory and nowhere else.  One caller drives `hypdom.cli.main`; each
pass starts only after the previous one has finished, and passes repeat
until S seconds have gone by, and at least twice.  Every pass is checked
(pinned counts, verdicts, witnesses, and an output tree identical to the
first pass); a pass that raises or fails a check counts as failed.  Times
are corrected for the host's speed (speed.py).

With `--trace 0` the last line of standard output holds the end-to-end
metrics declared in BENCHMARK.json; with `--trace 1`, the per-layer metrics
of a traced run (half of S untraced, half traced).  The line before it is a
JSON detail record: pass-time spread, the tail percentile and its sample
count, the failure ratio, the output digest and the host.  See README.md.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedProbe, runqueue_wait
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# set-up is cheap for the pipelines and about one `enumerate` for verify_cube
SETUP_REPEATS = {"pipeline_cube": 7, "pipeline_octahedron": 7, "verify_cube": 5}

# every span whose call count and self time are per-layer metrics
TIMED_SPANS = ("angles.feasible", "angles.solve_exact",
               "polytope.simple_circuits", "pairings.edge_orbits",
               "pairings.validate_scheme", "pairings.detect_elliptic_generator",
               "pairings.canonicalize", "pairings.symmetry_group",
               "geometry.verify_candidate")
COUNTED_SPANS = ("angles.assemble_system", "angles.nonfacial_circuits",
                 "polytope.build_incidence", "pairings.make_pairing")
ATTRIBUTION_FLOOR = 0.90


def import_hypdom():
    """Import hypdom afresh from SRC, so that set-up time includes it."""
    for name in [m for m in sys.modules if m.split(".")[0] == "hypdom"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    hypdom = importlib.import_module("hypdom")
    importlib.import_module("hypdom.cli")
    if SRC not in Path(hypdom.__file__).resolve().parents:
        raise ImportError(f"hypdom was found at {hypdom.__file__}, not in {SRC}")
    return hypdom


def bundled_document(solid):
    return json.loads((SRC / "hypdom" / "data" / f"{solid}.json").read_text())


def set_up(workload, seed, work):
    """Import, load the document, prepare the inputs; returns the seconds
    taken at the reference speed, and the package."""
    with SpeedProbe() as probe:
        t0, q0 = time.perf_counter(), runqueue_wait()
        hypdom = import_hypdom()
        doc = workloads.relabel(bundled_document(workload.solid), seed)
        workload.prepare(hypdom, doc, work)
        t1, q1 = time.perf_counter(), runqueue_wait()
    return probe.corrected(t1 - t0 - (q1 - q0), t0, t1), hypdom


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_passes(workload, hypdom, work, seconds, min_passes, tracer=None):
    """Closed loop of passes for `seconds`, and at least `min_passes`.
    Returns the per-pass wall and CPU times at the reference speed, the
    measured wall times, the failure count, the digest of the first output
    tree and, when traced, the per-layer metrics of each pass."""
    walls, cpus, raw, layers = [], [], [], []
    failed = 0
    reference = reference_errors = None
    out = work / "out"
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        if tracer:
            tracer.reset()
            tracer.enabled = True
        with SpeedProbe() as probe:
            c0, t0, q0 = cpu_seconds(), time.perf_counter(), runqueue_wait()
            try:
                code = workload.run_pass(hypdom.cli, out)
            except Exception:  # a pass that raises is a failed operation
                traceback.print_exc()
                code = "an exception"
            t1, c1, q1 = time.perf_counter(), cpu_seconds(), runqueue_wait()
        if tracer:
            tracer.enabled = False
        walls.append(probe.corrected(t1 - t0 - (q1 - q0), t0, t1))
        cpus.append(probe.corrected(c1 - c0, t0, t1))
        raw.append(t1 - t0)
        if code != 0:
            errors = [f"pass exited with {code}"]
        else:
            digest, files, nbytes = workloads.tree_digest(out)
            if reference is None:
                reference = digest
                reference_errors = workload.check(hypdom, out)
            if digest == reference:
                errors = reference_errors
            else:
                errors = [f"output tree {digest[:12]} differs from the first "
                          f"pass's {reference[:12]}"]
            if tracer and not errors:
                layers.append(layer_metrics(tracer, workload, out, t1 - t0,
                                            probe.slowdown(), files, nbytes))
        if errors:
            failed += 1
            print(f"pass {len(walls)} failed: {errors[:5]}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return walls, cpus, raw, failed, reference, layers


def layer_metrics(tracer, workload, out, wall, slowdown, files, nbytes):
    """Per-layer metrics of one traced pass that took `wall` measured
    seconds; self times are scaled to the reference speed like pass times."""
    calls, seen = tracer.calls, tracer.observed
    self_s = {k: v / slowdown for k, v in tracer.self_s.items()}
    schemes, angle_stage = workload.schemes(out)
    feasible = seen.get("angles.feasible", [])
    m = {}
    for span in TIMED_SPANS:
        m[f"{span}.calls"] = calls.get(span, 0)
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in COUNTED_SPANS:
        m[f"{span}.calls"] = calls.get(span, 0)
    m["angles.feasible.free_dim_max"] = max((d for d, _ in feasible), default=0)
    m["angles.feasible.witness_ratio"] = (
        sum(w for _, w in feasible) / len(feasible) if feasible else 0.0)
    m["enumeration.classify.self_s"] = self_s.get("enumeration.classify", 0.0)
    m["enumeration.orbit_traversals_per_scheme"] = (
        calls.get("pairings.edge_orbits", 0) / schemes)
    m["enumeration.angle_cache_miss_ratio"] = (
        calls.get("angles.feasible", 0) / angle_stage if angle_stage else 0.0)
    m["geometry.face_pairing_maps.self_s"] = self_s.get(
        "geometry.face_pairing_maps", 0.0)
    m["geometry.relator_residual_max"] = max(
        seen.get("geometry.relator_product", []), default=0.0)
    m["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    m["cli.files_written"] = files
    m["cli.bytes_written"] = nbytes
    m["trace.attributed_ratio"] = sum(tracer.self_s.values()) / wall
    return m


def observers(hypdom):
    geometry = hypdom.geometry
    return {
        "angles.feasible": lambda res: (len(res[0].basis), res[1] is not None),
        "geometry.relator_product":
            lambda m: geometry.projective_distance(m, geometry.IDENTITY),
    }


def tail(samples):
    """(value, percentile, samples beyond it): the highest percentile with
    at least ten samples beyond it, or the maximum when there are ten or
    fewer samples."""
    xs = sorted(samples)
    n = len(xs)
    k = n - 10 if n > 10 else n
    return xs[k - 1], 100.0 * k / n, n - k


def spread(samples):
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return {"min": min(samples), "q1": q1, "median": q2, "q3": q3,
            "max": max(samples)}


def provenance():
    prov = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": None, "commit": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                prov["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        prov["commit"] = (head if not head.startswith("ref: ")
                          else (ROOT / ".git" / head[5:]).read_text().strip())
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "hypdom").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    prov["src_sha256"] = h.hexdigest()
    return prov


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def result_metrics(values, units):
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are "
                           "not both computed and declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def measure(args, work):
    end_to_end, per_layer = declared_metrics()
    workload = workloads.WORKLOADS[args.workload]()
    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    setup_times = []
    for _ in range(repeats):
        seconds, hypdom = set_up(workload, args.seed, work)
        setup_times.append(seconds)
    setup_errors = workload.check_setup(hypdom)
    for msg in setup_errors:
        print(f"set-up failed: {msg}", file=sys.stderr)

    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "setup_s_samples": setup_times}
    if args.trace:
        # the two halves' output trees are compared with each other
        walls, _, _, failed, digest, _ = run_passes(
            workload, hypdom, work, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install(hypdom, observers(hypdom))
        traced, _, _, failed_traced, digest_traced, layers = run_passes(
            workload, hypdom, work, args.seconds / 2, 1, tracer)
        tracer.uninstall()
        attempted, failed = len(walls) + len(traced), failed + failed_traced
        if digest_traced != digest:
            failed += len(traced)
            print("traced output differs from untraced output", file=sys.stderr)
        values = {name: statistics.median_low(p[name] for p in layers)
                  for name in (layers[0] if layers else {})}
        values["trace_overhead"] = (statistics.median(traced)
                                    / statistics.median(walls) - 1)
        attributed = values.get("trace.attributed_ratio", 0.0)
        detail.update(untraced_wall_s=walls, traced_wall_s=traced,
                      attribution_ok=attributed >= ATTRIBUTION_FLOOR)
        if not detail["attribution_ok"]:
            print(f"attribution check failed: layers cover {attributed:.3f} "
                  f"of traced wall time, floor {ATTRIBUTION_FLOOR}",
                  file=sys.stderr)
        correct = not failed and not setup_errors and detail["attribution_ok"]
        metrics = result_metrics(values, per_layer)
    else:
        # two passes at least, so that the determinism gate compares two
        # output trees even when one pass outlasts the run
        walls, cpus, raw, failed, digest, _ = run_passes(
            workload, hypdom, work, args.seconds, 2)
        attempted = len(walls)
        tail_value, percentile, beyond = tail(walls)
        values = {
            "wall_s": statistics.median(walls),
            "wall_s_tail": tail_value,
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail.update(pass_wall_s=spread(walls), pass_cpu_s=spread(cpus),
                      measured_pass_wall_s=spread(raw),
                      wall_s_tail={"percentile": percentile,
                                   "samples": attempted, "beyond": beyond})
        correct = not failed and not setup_errors
        metrics = result_metrics(values, end_to_end)
    detail.update(passes=attempted, failed_ratio=failed / attempted,
                  output_sha256=digest, provenance=provenance())
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def selftest(work):
    """Harness checks: a tetrahedron pass, and gates that must reject."""
    hypdom = import_hypdom()
    problems = []
    for solid, count in (("tetrahedron", 12), ("cube", 24), ("octahedron", 24)):
        doc = bundled_document(solid)
        if len(workloads.rotations(doc["faces"])) != count:
            problems.append(f"{solid}: expected {count} rotations")
        faces = {frozenset(f) for f in doc["faces"]}
        if {frozenset(f) for f in workloads.relabel(doc, 7)["faces"]} != faces:
            problems.append(f"{solid}: relabeling changed the face set")

    for solid in ("tetrahedron", "cube"):
        workload = workloads.Pipeline(solid)
        (work / solid).mkdir()
        _, hypdom = set_up(workload, 3, work / solid)
        out = work / solid / "out"
        if workload.run_pass(hypdom.cli, out) != 0:
            problems.append(f"{solid} pipeline exited non-zero")
            continue
        problems += [f"{solid}: {e}" for e in workload.check(hypdom, out)]

    out = work / "cube" / "out"
    wrong = dict(workloads.EXPECTED["cube"], survivors=31)
    if not workloads.check_pipeline_output(hypdom, workload.doc_path, out, wrong):
        problems.append("gate accepted a wrong expected survivor count")
    cand = out / "candidate_000.json"
    doc = json.loads(cand.read_text())
    first = min(doc["witness"], key=int)
    doc["witness"][first] = "1/1000"
    cand.write_text(json.dumps(doc))
    if not workload.check(hypdom, out):
        problems.append("gate accepted a witness that breaks its equations")

    for msg in problems:
        print(f"selftest: {msg}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return selftest(work) if args.selftest else measure(args, work) or 0
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

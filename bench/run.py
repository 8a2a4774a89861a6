"""Benchmark for pirlab: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload kn_pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a separate traced
run.  Lines before it start with "# " and carry the machine facts, every
metric by name with its unit, and per-workload details.  The full record of
a run is also written to bench/results/.  See bench/README.md.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

from spans import FUNCTIONS, Tracer, instrument  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import (AUDIT_GRAPHS, FULL, KNOWN_DEFECTS, SMOKE,  # noqa: E402
                       WORKLOADS, graph_from_spec, lru_caches, no_span,
                       tail_at)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
}

CLI_COMMANDS = ("bounds", "sequences", "build", "extract", "transform",
                "general", "simulate", "audit")


@dataclass(frozen=True)
class Record:
    label: str
    seconds: float
    error: Optional[str]
    parts: dict = field(default_factory=dict)  # seconds per part of the op
    interval: tuple = (0.0, 0.0)  # perf_counter() at its start and end


# ============================================================
# set-up and the measured loop
# ============================================================

def fresh_import():
    """Drop every loaded pirlab module and import the package again."""
    for key in [k for k in sys.modules
                if k == "pirlab" or k.startswith("pirlab.")]:
        del sys.modules[key]
    return importlib.import_module("pirlab")


def set_up(name, sizes, seed, workdir, speed):
    """Import pirlab and build the workload's inputs, several times.

    Returns the last workload, every (raw) set-up time, so the reported
    set-up time is a median and work moved into set-up shows, and the speed
    factor of the set-up phase, sampled before, between and after them.
    """
    times = []
    for _ in range(sizes.setup_repeats):
        speed.tick(force=True)
        t0 = time.perf_counter()
        P = fresh_import()
        workload = WORKLOADS[name](P, sizes, seed, workdir)
        times.append(time.perf_counter() - t0)
    speed.tick(force=True)
    return P, workload, times, speed.factor()


def split_cycle(workload):
    """The workload's cycle, split into timed ops and known-defect probes.

    An op listed in KNOWN_DEFECTS fails on every call today, so it is not
    timed: it runs once per run, after the measurement, and its outcome is
    reported on its own.  Every timed op is expected to pass its check.
    """
    ops = workload.cycle()
    return ([op for op in ops if op.label not in KNOWN_DEFECTS],
            [op for op in ops if op.label in KNOWN_DEFECTS])


def call_checked(op):
    """Run one op; returns its failure message, or None when it passed."""
    try:
        out = op.run()
    except Exception as exc:  # an op that raises is a failed op
        return f"raised {type(exc).__name__}: {exc}"
    return op.check(out)


def measure(ops, seconds, min_ops, speed):
    """Run whole cycles until `seconds` have passed and `min_ops` ran."""
    raw = []
    start = time.perf_counter()
    while True:
        for op in ops:
            speed.tick()
            sampling = speed.spent
            t0 = time.perf_counter()
            parts = {}
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op
                elapsed = time.perf_counter() - t0
                error = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - t0
                error = op.check(out)
                if op.parts is not None:
                    parts = op.parts(out)
                del out
            raw.append(Record(op.label, elapsed - (speed.spent - sampling),
                              error, parts, (t0, t0 + elapsed)))
        if time.perf_counter() - start >= seconds and len(raw) >= min_ops:
            break
    speed.tick(force=True)
    return raw


def measure_traced(workload, ops, seconds, min_ops, speed, tracer):
    """Alternate untraced and traced cycles, so drift hits both alike."""
    plain, traced = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(plain) < min_ops or len(traced) < min_ops):
        plain += measure(ops, 0, 1, speed)
        workload.span = tracer.span
        with instrument(tracer):
            traced += measure(ops, 0, 1, speed)
        workload.span = no_span
    return plain, traced


def negative_control(P, n, theta):
    """A K_n scheme with one desired subfile index moved must be rejected."""
    scheme = P.build_scheme(n, theta)
    lo, _hi = scheme.graph.endpoints(theta)
    rows = list(scheme.queries[lo])
    index = next(i for i, row in enumerate(rows) if theta in row.files)
    rows[index] = P.Summation(tuple(
        (f, s % scheme.L + 1 if f == theta else s, sign)
        for f, s, sign in rows[index].terms))
    tampered = scheme.replace(queries={**scheme.queries, lo: tuple(rows)})
    if P.verify_scheme(tampered).ok:
        return (f"verify_scheme accepted K{n} with a tampered desired "
                f"subfile at server {lo}")
    return None


# ============================================================
# metrics
# ============================================================

def summarize(records):
    times = sorted(r.seconds for r in records)
    tail, rank = tail_at(times)
    return {"op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": tail * 1e3,
            "op_tail_rank_pct": rank,
            "ops": len(times),
            "ops_per_s": len(times) / sum(times)}


def scaled(records, speed):
    """The records with each time scaled by the speed around its op."""
    out = []
    for r in records:
        factor = speed.factor_around(*r.interval)
        out.append(replace(r, seconds=r.seconds * factor,
                           parts={k: v * factor for k, v in r.parts.items()}))
    return out


def end_to_end(records, setup_s):
    summary = summarize(records)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": summary["op_p50_ms"],
        "op_tail_ms": summary["op_tail_ms"],
        "ops_per_s": summary["ops_per_s"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(tracer, plain, traced, probes, defects):
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    timed = [f"{mod}.{fn}" for mod, fn in FUNCTIONS if fn != "privacy_audit"]
    timed += [f"sim.privacy_audit.{mode}"
              for mode in ("statistical", "distributional", "structural")]
    timed += ["scheme.to_json", "scheme.from_json"]
    timed += [f"cli.{cmd}" for cmd in CLI_COMMANDS]
    for name in timed:
        put(f"{name}_s", tracer.total.get(name, 0.0), "s")
        put(f"{name}_calls", tracer.calls.get(name, 0), "count")
    for name in ("builder.L", "builder.rows_per_server",
                 "patterns.side_info_rows"):
        put(name, tracer.sizes.get(name, 0), "count")
    put("scheme.json_bytes", tracer.sizes.get("scheme.json_bytes", 0),
        "bytes")
    for name, mb in probes["heap_peak_mb"].items():
        put(f"{name}_heap_peak_mb", mb, "MB")
    put("general.random_general_scheme_us",
        probes["random_general_scheme_us"], "us")
    a, b = summarize(plain), summarize(traced)
    put("known_defects.failing",
        sum(err is not None for err in defects.values()), "count")
    put("trace.op_p50_ms_overhead", b["op_p50_ms"] - a["op_p50_ms"], "ms")
    put("trace.ops_per_s_overhead", b["ops_per_s"] - a["ops_per_s"], "1/s")
    return out


# ============================================================
# probes of the traced run
# ============================================================

def random_general_scheme_us(P, seed, calls_per_graph):
    """Mean cost of one sampled query over the audit graph mix."""
    rng = random.Random(seed)
    calls = 0
    t0 = time.perf_counter()
    for spec in AUDIT_GRAPHS:
        graph = graph_from_spec(P, spec)
        for i in range(calls_per_graph):
            P.random_general_scheme(graph, i % len(graph.edges), rng)
        calls += calls_per_graph
    return (time.perf_counter() - t0) / calls * 1e6


def size_sweep(P, ns, seed):
    """Sizes and single-shot step times of the K_n pipeline for each n.

    Times are taken first; a second pass under tracemalloc gives the rise
    of the Python heap peak during build, verify and extract.
    """
    rng = random.Random(seed)
    rows = []
    for n in ns:
        theta = rng.randrange(n * (n - 1) // 2)
        times = {}

        def timed(name, fn, *args):
            t0 = time.perf_counter()
            result = fn(*args)
            times[name] = time.perf_counter() - t0
            return result

        for cache in lru_caches():
            cache.cache_clear()
        timed("build_sequences_cold", P.build_sequences, n)
        scheme = timed("build_scheme", P.build_scheme, n, theta)
        timed("verify_scheme", P.verify_scheme, scheme)
        timed("check_independence", P.check_independence, scheme)
        ex = timed("extract_patterns", P.extract_patterns, scheme)
        timed("check_srp", P.check_srp, scheme, ex)
        timed("entropy_proxy_ok", P.entropy_proxy_ok, scheme)
        prob = timed("transform", P.transform, scheme, ex)
        timed("prob_rate", P.prob_rate, prob)
        doc = timed("to_json", scheme.to_json)
        text = timed("canonical_json", P.render.canonical_json, doc)
        timed("meta_header", P.render.meta_header, "extract",
              {"scheme": doc})
        timed("from_json", lambda t: P.DeterministicScheme.from_json(
            json.loads(t)), text)
        storage = timed("random_storage", P.random_storage, scheme.graph, 2,
                        scheme.L, rng)
        timed("run_deterministic_trial", P.run_deterministic_trial, scheme,
              storage)
        heap = {}
        tracemalloc.start()
        try:
            for name, fn in (("builder.build_scheme",
                              lambda: P.build_scheme(n, theta)),
                             ("builder.verify_scheme",
                              lambda: P.verify_scheme(scheme)),
                             ("patterns.extract_patterns",
                              lambda: P.extract_patterns(scheme))):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = fn()
                peak = tracemalloc.get_traced_memory()[1]
                heap[name] = (peak - base) / 2**20
                del result
        finally:
            tracemalloc.stop()
        rows.append({
            "n": n, "theta": theta, "L": scheme.L,
            "rows_per_server": max(len(r) for r in scheme.queries.values()),
            "side_info_rows": len(ex.side_info),
            "json_bytes": len(text.encode("utf-8")),
            "times_s": times, "heap_peak_mb": heap,
        })
        del scheme, ex, prob, doc, text, storage
    return rows


# ============================================================
# one run
# ============================================================

def run_workload(name, seed, seconds, trace, sizes):
    """Set up, measure and check one workload; returns the run record."""
    workdir = RESULTS / f"work-{name}-{os.getpid()}"
    try:
        speed = Speedometer()
        P, workload, setup_times, setup_factor = set_up(name, sizes, seed,
                                                        workdir, speed)
        speed.reset()
        workload.tick = speed.tick
        ops, defect_ops = split_cycle(workload)
        if not trace:
            raw = measure(ops, seconds, sizes.min_ops, speed)
        else:
            tracer = Tracer()
            plain, traced = measure_traced(workload, ops, seconds,
                                           sizes.min_ops, speed, tracer)
        defects = {op.label: call_checked(op) for op in defect_ops}
        control = negative_control(P, *workload.control_case())
        if not trace:
            records = scaled(raw, speed)
            setup_s = statistics.median(setup_times) * setup_factor
            metrics = end_to_end(records, setup_s)
            extra = {}
        else:
            sweep = size_sweep(P, sizes.sweep_ns, seed)
            probes = {
                "heap_peak_mb": sweep[-1]["heap_peak_mb"],
                "random_general_scheme_us": random_general_scheme_us(
                    P, seed, 50 * sizes.min_ops),
            }
            raw = plain + traced
            plain, traced = scaled(plain, speed), scaled(traced, speed)
            records = plain + traced
            metrics = per_layer(tracer, plain, traced, probes, defects)
            extra = {"size_sweep": sweep,
                     "self_time_s": dict(sorted(tracer.self_time.items())),
                     "untraced": summarize(plain),
                     "traced": summarize(traced)}
        details = workload.details(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(r.label, r.error) for r in records if r.error]
    if control:
        failures.append(("negative control", control))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not failures,
        "attempted": len(records) + 1,
        "failed": len(failures),
        "metrics": metrics,
        "details": {k: {"value": v, "unit": u}
                    for k, (v, u) in details.items()},
        "setup_times_s": setup_times,
        "summary": summarize(records),
        "raw_summary": summarize(raw),
        "raw_op_seconds": _by_label(raw),
        "speed_factor": speed.factor(),
        "setup_speed_factor": setup_factor,
        "failures": _failure_counts(failures),
        "known_defects": {label: {"why": KNOWN_DEFECTS[label],
                                  "still_fails": err}
                          for label, err in defects.items()},
        **extra,
    }


def _by_label(records):
    times = {}
    for r in records:
        times.setdefault(r.label, []).append(r.seconds)
    return times


def _failure_counts(failures):
    """Failures by operation label: how many, and the first message."""
    counts = {}
    for label, err in failures:
        entry = counts.setdefault(label, {"count": 0, "first": err})
        entry["count"] += 1
    return counts


# ============================================================
# machine facts and output
# ============================================================

def machine_facts():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ,
                                  "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pirlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "load_1min_start": os.getloadavg()[0],
    }


def report(record, facts):
    print(f"# machine: {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['summary']['ops']} timed ops, "
          f"tail at p{record['summary']['op_tail_rank_pct']:.1f}")
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    raw = record["raw_summary"]
    print(f"# unscaled: op_p50_ms = {raw['op_p50_ms']:.6g} ms, op_tail_ms = "
          f"{raw['op_tail_ms']:.6g} ms, ops_per_s = {raw['ops_per_s']:.6g}"
          f" 1/s; run speed factor {record['speed_factor']:.4f}")
    for name, m in record["details"].items():
        print(f"# detail {name} = {m['value']:.6g} {m['unit']}")
    for row in record.get("size_sweep", ()):
        steps = " ".join(f"{k}={v:.4f}" for k, v in row["times_s"].items())
        print(f"# sweep n={row['n']} L={row['L']} "
              f"rows/server={row['rows_per_server']} "
              f"json_bytes={row['json_bytes']} {steps}")
    for label, entry in record["failures"].items():
        print(f"# failed x{entry['count']}: {label}: {entry['first']}")
    report_defects(record)


def report_defects(record):
    for label, entry in record["known_defects"].items():
        if entry["still_fails"]:
            print(f"# known defect still present: {label}: "
                  f"{entry['still_fails']}")
        else:
            print(f"# known defect did not show in this run: {label}")


def write_record(record, facts):
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / (f"{record['workload']}-seed{record['seed']}"
                      f"-trace{record['trace']}.json")
    path.write_text(json.dumps({"machine": facts, **record}, indent=1,
                               sort_keys=True, default=str))
    return path


def smoke():
    """Every workload once at tiny size, untraced and traced."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(name, seed=1, seconds=0, trace=trace,
                                  sizes=SMOKE)
            print(f"# smoke {name} trace={trace}: correct={record['correct']}"
                  f" attempted={record['attempted']} "
                  f"failed={record['failed']} "
                  f"metrics={len(record['metrics'])}")
            for label, entry in record["failures"].items():
                print(f"#   {label}: {entry['first']}")
            report_defects(record)
            ok = ok and record["correct"]
    print(json.dumps({"smoke_ok": ok}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload once at tiny size")
    args = parser.parse_args(argv)

    if not (SRC / "pirlab" / "__init__.py").is_file():
        print(f"error: no pirlab sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    facts = machine_facts()
    record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          FULL)
    facts["load_1min_end"] = os.getloadavg()[0]
    report(record, facts)
    path = write_record(record, facts)
    print(f"# record written to {path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

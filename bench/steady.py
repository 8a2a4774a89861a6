"""Run the benchmark over many seeds and check it against BENCHMARK.json.

    python3 bench/steady.py --seeds 1-10 --heldout 101-110

For every workload this runs `bench/run.py` once per seed, one process at a
time, and reports for each end-to-end metric its median and its spread (the
distance between the first and third quartile as a share of the median).
A spread must stay within the metric's bound (set-up time excepted).  With
`--heldout`, a second set of seeds is run and each median must not be worse
than the first set's by more than the bound.  `--trace` adds one traced run
per workload and checks that it reports every per-layer metric.  Exits 1
when a check fails; the numbers go to bench/results/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--heldout", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    sets = [("seeds", seed_range(args.seeds))]
    if args.heldout:
        sets.append(("heldout", seed_range(args.heldout)))

    problems = []
    out = {}
    for workload in workloads:
        out[workload] = {}
        for set_name, seeds in sets:
            runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
            for seed, run in zip(seeds, runs):
                if not run["correct"]:
                    problems.append(f"{workload} seed {seed}: incorrect")
                if set(run["metrics"]) != set(metrics):
                    problems.append(f"{workload} seed {seed}: metrics "
                                    f"{sorted(run['metrics'])}")
            values = {name: [r["metrics"][name]["value"] for r in runs]
                      for name in metrics}
            out[workload][set_name] = {"seeds": seeds, "values": values}
            for name, vals in values.items():
                median, share = spread(vals)
                bound = metrics[name]["bound"]
                flag = "ok" if share <= bound / 3 else (
                    "within bound" if share <= bound else "TOO WIDE")
                if share > bound and name != "setup_s":
                    problems.append(f"{workload} {name}: spread {share:.3f}"
                                    f" > bound {bound}")
                print(f"{workload:15s} {set_name:8s} {name:12s} "
                      f"median {median:12.6g} {metrics[name]['unit']:6s} "
                      f"spread {share:6.3f} (bound {bound}) {flag}",
                      flush=True)
        if args.heldout:
            first, second = (out[workload][s]["values"] for s in
                             ("seeds", "heldout"))
            for name, m in metrics.items():
                change = worse_by(statistics.median(first[name]),
                                  statistics.median(second[name]),
                                  m["better"])
                verdict = "ok" if change <= m["bound"] else "WORSE"
                if change > m["bound"]:
                    problems.append(f"{workload} {name}: held-out median "
                                    f"worse by {change:.3f}")
                print(f"{workload:15s} heldout  {name:12s} worse by "
                      f"{change:+.3f} (bound {m['bound']}) {verdict}",
                      flush=True)
        if args.trace:
            run = run_once(workload, sets[0][1][0], seconds, 1)
            missing = layer_names ^ set(run["metrics"])
            if missing or not run["correct"]:
                problems.append(f"{workload} traced run: correct="
                                f"{run['correct']}, mismatched {missing}")
            print(f"{workload:15s} traced   {len(run['metrics'])} per-layer "
                  f"metrics, correct={run['correct']}", flush=True)

    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / "steady.json").write_text(
        json.dumps({"results": out, "problems": problems}, indent=1))
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The three benchmark workloads.

Each workload is set up from a seed and then offers one fixed cycle of
operations.  The harness runs whole cycles in a closed loop with a single
caller, so every operation waits for the previous one.  An operation's
`run` is what gets timed; its `check` looks at the output afterwards and
returns a failure message, or None when the output is right.

Workloads receive the freshly imported ``pirlab`` package as `P` and reach
every function through it at call time, so the traced run can swap in its
timing wrappers.  README.md explains why each workload was chosen.
"""

import contextlib
import io
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass(frozen=True)
class Sizes:
    setup_repeats: int
    min_ops: int          # a run measures at least this many operations
    kn_n: int
    kn_thetas: int        # desired files cycled through by kn_pipeline
    audit_trials: int     # sampled queries per desired file per audit
    prob_draws: int       # draws per sampled probabilistic trial run
    exact_star: int       # leaves of the star in the exact audit
    cli_ns: tuple         # K_n sizes run through build/extract/...
    cli_trials: int       # draws for `simulate --trials`
    bounds_max: int       # `bounds --max`
    sweep_ns: tuple       # sizes of the traced run's size sweep


FULL = Sizes(setup_repeats=5, min_ops=11, kn_n=6, kn_thetas=3,
             audit_trials=300, prob_draws=200, exact_star=6,
             cli_ns=(3, 4, 5), cli_trials=200, bounds_max=100,
             sweep_ns=(3, 4, 5, 6))

SMOKE = Sizes(setup_repeats=1, min_ops=1, kn_n=4, kn_thetas=1,
              audit_trials=30, prob_draws=20, exact_star=3,
              cli_ns=(3,), cli_trials=20, bounds_max=10,
              sweep_ns=(3, 4))

# Graph mix of the statistical audit, as CLI graph specs.
AUDIT_GRAPHS = ("edges:1-2,1-3,2-3,1-4", "complete:5", "star:8", "cycle:6")

# Operations that fail on every call today because of a defect in pirlab.
# The harness does not time them: each runs once per run, after the
# measurement, and its outcome is printed and counted in the per-layer
# metric known_defects.failing, so a fix shows.  A failure of any timed
# operation makes the run incorrect.
KNOWN_DEFECTS = {
    "cli audit general:star:4 distributional":
        "the audit passes the Graph itself where a scheme is expected and "
        "raises AttributeError",
    "statistical audit star:8":
        "the threshold 3*sqrt(log(2k)/trials) ignores the 2^8 combos seen "
        "by the centre, so the audit reports a breach at any trial count",
}


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # Seconds per part of a composite op, read from its output.
    parts: Optional[Callable[[object], dict]] = None


def graph_from_spec(P, spec):
    """A Graph from a CLI graph spec: edges:..., family:params or a path."""
    if spec.endswith(".json"):
        return P.Graph.from_json(json.loads(Path(spec).read_text()))
    if spec.startswith("edges:"):
        edges = tuple(tuple(int(v) for v in token.split("-"))
                      for token in spec[len("edges:"):].split(","))
        return P.Graph(n=max(v for e in edges for v in e), edges=edges)
    family, _, params = spec.partition(":")
    return P.make_graph(family, [int(p) for p in params.split(",")])


def no_span(_name):
    return contextlib.nullcontext()


def lru_caches():
    """The functools caches of every loaded pirlab module, each once."""
    caches = {id(obj): obj for key, mod in list(sys.modules.items())
              if key == "pirlab" or key.startswith("pirlab.")
              for obj in vars(mod).values() if hasattr(obj, "cache_clear")}
    return list(caches.values())


class KnPipeline:
    """The full library pipeline on K_n for a few desired files."""

    name = "kn_pipeline"

    def __init__(self, P, sizes, seed, workdir):
        self.P = P
        self.n = sizes.kn_n
        rng = random.Random(seed)
        files = self.n * (self.n - 1) // 2
        self.thetas = rng.sample(range(files), sizes.kn_thetas)
        self.storage_seeds = [rng.randrange(2 ** 32) for _ in self.thetas]
        self.span = no_span
        self.tick = lambda: None  # the harness's speed sampler

    def control_case(self):
        return self.n, self.thetas[0]

    def cycle(self):
        return [Op(f"pass k{self.n} theta={theta}",
                   lambda theta=theta, s=s: self._pass(theta, s),
                   self._check)
                for theta, s in zip(self.thetas, self.storage_seeds)]

    def _pass(self, theta, storage_seed):
        # A pass takes seconds, so the speed is also sampled between steps.
        P, tick = self.P, self.tick
        scheme = P.build_scheme(self.n, theta)
        tick()
        verdict = P.verify_scheme(scheme)
        tick()
        ex = P.extract_patterns(scheme)
        tick()
        srp = P.check_srp(scheme, ex)
        gf2 = P.entropy_proxy_ok(scheme)
        prob = P.transform(scheme, ex)
        prob_rate = P.prob_rate(prob)
        tick()
        text = P.render.canonical_json(scheme.to_json())
        tick()
        parsed = P.DeterministicScheme.from_json(json.loads(text))
        tick()
        storage = P.random_storage(scheme.graph, 2, scheme.L,
                                   random.Random(storage_seed))
        trial = P.run_deterministic_trial(scheme, storage)
        return dict(scheme=scheme, verdict=verdict, ex=ex, srp=srp, gf2=gf2,
                    prob_rate=prob_rate, parsed=parsed, trial=trial)

    def _check(self, out):
        scheme, ex = out["scheme"], out["ex"]
        if not out["verdict"].ok:
            return f"verify_scheme: {out['verdict'].violations[:3]}"
        if _pattern_set(ex.patterns) != _pattern_set(scheme.patterns):
            return "extracted patterns differ from the built ones"
        if set(ex.side_info) != set(scheme.side_info):
            return "extracted side information differs from the built one"
        if not out["srp"].ok:
            return f"check_srp: uneven split {out['srp'].counts}"
        if not out["gf2"]:
            return "entropy_proxy_ok: dependent rows at some server"
        if out["prob_rate"] != self.P.rate(self.n):
            return f"prob_rate {out['prob_rate']} != rate({self.n})"
        if out["parsed"] != scheme:
            return "from_json(to_json(scheme)) differs from the scheme"
        if not out["trial"].ok:
            return "deterministic trial did not recover the file"
        return None

    def details(self, records):
        times = sorted(r.seconds for r in records)
        return {"pipeline_s": (statistics.median(times), "s"),
                "pipeline_passes": (len(times), "count")}


def _pattern_set(patterns):
    return {(p.target, tuple(sorted(p.selections.items())))
            for p in patterns}


class AuditSampling:
    """Randomized-query audits: statistical, sampled trials, exact.

    One op is a round of every audit in the mix.  Its parts differ in cost
    by a factor of five, so a median over them as separate ops would jump
    between parts from run to run; a median over rounds does not.
    """

    name = "audit_sampling"

    def __init__(self, P, sizes, seed, workdir):
        self.P = P
        rng = random.Random(seed)
        self.trials = sizes.audit_trials
        self.draws = sizes.prob_draws
        self.families = {}
        for spec in AUDIT_GRAPHS:
            graph = graph_from_spec(P, spec)
            self.families[spec] = {t: graph for t in range(len(graph.edges))}
        self.k5_theta = rng.randrange(10)
        self.k5 = P.transform(P.build_scheme(5, self.k5_theta))
        self.contents = [rng.randrange(2) for _ in self.k5.graph.files]
        star = P.make_graph("star", [sizes.exact_star])
        self.star_label = f"star:{sizes.exact_star}"
        self.exact = {t: P.random_general_scheme(star, t, rng)
                      for t in range(len(star.edges))}
        self.rng = random.Random(rng.randrange(2 ** 32))
        self.span = no_span
        self.round_specs = [spec for spec in AUDIT_GRAPHS
                            if _statistical_label(spec) not in KNOWN_DEFECTS]
        self.round_queries = sum(len(self.families[spec]) * self.trials
                                 for spec in self.round_specs)

    def control_case(self):
        return 5, self.k5_theta

    def cycle(self):
        ops = [Op("audit round", self._round, self._check,
                  parts=lambda out: out["seconds"])]
        ops += [Op(_statistical_label(spec),
                   lambda spec=spec: self._statistical(spec), _audit_ok)
                for spec in AUDIT_GRAPHS if spec not in self.round_specs]
        return ops

    def _statistical(self, spec):
        return self.P.privacy_audit(self.families[spec], mode="statistical",
                                    trials=self.trials, rng=self.rng)

    def _round(self):
        P = self.P
        t0 = time.perf_counter()
        stats = {spec: self._statistical(spec) for spec in self.round_specs}
        t1 = time.perf_counter()
        sampled = P.run_probabilistic_trials(self.k5, self.contents,
                                             mode="sample",
                                             trials=self.draws, rng=self.rng)
        t2 = time.perf_counter()
        exact = P.privacy_audit(self.exact, mode="distributional")
        t3 = time.perf_counter()
        return {"statistical": stats, "sampled": sampled, "exact": exact,
                "seconds": {"statistical": t1 - t0, "sampled": t2 - t1,
                            "exact": t3 - t2}}

    def _check(self, out):
        for spec, report in out["statistical"].items():
            error = _audit_ok(report)
            if error:
                return f"{_statistical_label(spec)}: {error}"
        if not out["sampled"].ok:
            return "sampled trials transform:k5: a sampled row did not " \
                   "recover the file"
        error = _exact_ok(out["exact"])
        return error and f"exact audit {self.star_label}: {error}"

    def details(self, records):
        def busy(part):
            return sum(r.parts[part] for r in records)
        rounds = len(records)
        return {
            "audit_queries_per_s": (rounds * self.round_queries
                                    / busy("statistical"), "1/s"),
            "prob_trials_per_s": (rounds * self.draws / busy("sampled"),
                                  "1/s"),
            "exact_audit_s": (statistics.median(r.parts["exact"]
                                                for r in records), "s"),
            "audit_rounds": (rounds, "count"),
        }


def _statistical_label(spec):
    return f"statistical audit {spec}"


def _audit_ok(report):
    if report.ok:
        return None
    return (f"audit reports a breach: deviation {report.max_deviation:.4f}"
            f" >= epsilon {report.epsilon:.4f}")


def _exact_ok(report):
    if report.ok and report.max_deviation == 0:
        return None
    return f"exact audit deviation {report.max_deviation}"


class CliSmall:
    """A fixed mix of in-process `pirlab.cli.main(argv)` calls."""

    name = "cli_small"

    def __init__(self, P, sizes, seed, workdir):
        import pirlab.cli  # part of set-up: the package does not import it

        self.P = P
        self.cli = pirlab.cli
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        # Each real CLI call starts with cold caches; clearing pirlab's
        # lru caches before every call keeps that cost in the numbers.
        self.caches = lru_caches()
        rng = random.Random(seed)
        graph_file = self.dir / "graph.json"
        graph_file.write_text(json.dumps(P.make_graph("star", [5]).to_json()))
        specs = list(AUDIT_GRAPHS) + [str(graph_file)]
        self.mix = []
        for n in sizes.cli_ns:
            graph = P.make_graph("complete", [n])
            for theta, (u, v) in enumerate(graph.edges):
                spelled = f"{u},{v}" if rng.random() < 0.5 else str(theta)
                self._chain(n, theta, spelled, rng.randrange(1000))
        # One sampled simulation per transformed K_n of the largest n.  With
        # a single one, the median call fell in the gap between the K4 and
        # K5 calls and jumped between them from run to run.
        n_trial = max(sizes.cli_ns)
        for theta in range(n_trial * (n_trial - 1) // 2):
            self._add("simulate",
                      ["--scheme", self._path(n_trial, theta, "prob"),
                       "--trials", str(sizes.cli_trials),
                       "--seed", str(rng.randrange(1000))],
                      "trials", _doc_ok)
        self._add("audit", ["--family", "k4", "--mode", "structural"],
                  "k4 structural", _doc_ok)
        self._add("audit", ["--family", "transform:k3",
                            "--mode", "distributional"],
                  "transform:k3 distributional", _doc_ok)
        for n in (6, 8):
            self._add("sequences", ["--n", str(n)], f"n={n}")
        enum_spec, sample_spec = rng.sample(specs, 2)
        self._add("general", ["--graph", enum_spec, "--enumerate"],
                  "enumerate")
        sample_files = len(graph_from_spec(P, sample_spec).edges)
        self._add("general", ["--graph", sample_spec,
                              "--theta", str(rng.randrange(sample_files)),
                              "--seed", str(rng.randrange(1000))], "sample")
        self._add("bounds", ["--min", "3", "--max", str(sizes.bounds_max),
                             "--format", rng.choice(("csv", "markdown"))],
                  f"max={sizes.bounds_max}")
        self._add("audit", ["--family", "general:star:4",
                            "--mode", "distributional"],
                  "general:star:4 distributional", _doc_ok)
        self.span = no_span

    def _path(self, n, theta, kind):
        return str(self.dir / f"k{n}_t{theta}_{kind}.json")

    def _chain(self, n, theta, spelled, sim_seed):
        scheme = self._path(n, theta, "scheme")
        self._add("build", ["--n", str(n), "--theta", spelled],
                  f"k{n}", out=scheme)
        self._add("extract", ["--scheme", scheme], f"k{n}", _srp_ok)
        rate = self.P.render.frac_str(self.P.rate(n))
        self._add("transform", ["--scheme", scheme], f"k{n}",
                  lambda doc: None if doc["rate"] == rate
                  else f"rate {doc['rate']} != {rate}",
                  out=self._path(n, theta, "prob"))
        self._add("simulate", ["--scheme", scheme, "--seed", str(sim_seed)],
                  f"k{n}", _doc_ok)

    def _add(self, command, args, what, doc_check=None, out=None):
        out = out or str(self.dir / f"out_{len(self.mix)}.txt")
        self.mix.append((f"cli {command} {what}",
                         [command, *args, "--out", out], out, doc_check))

    def control_case(self):
        return 4, 0

    def cycle(self):
        return [Op(label, lambda argv=argv: self._call(argv),
                   lambda code, out=out, check=check: _cli_ok(code, out,
                                                              check))
                for label, argv, out, check in self.mix]

    def _call(self, argv):
        for cache in self.caches:
            cache.cache_clear()
        with contextlib.redirect_stderr(io.StringIO()), \
                self.span(f"cli.{argv[0]}"):
            return self.cli.main(argv)

    def details(self, records):
        times = sorted(r.seconds for r in records)
        tail, rank = tail_at(times)
        return {"cli_calls_per_s": (len(times) / sum(times), "1/s"),
                "cli_p50_ms": (statistics.median(times) * 1e3, "ms"),
                "cli_tail_ms": (tail * 1e3, "ms"),
                "cli_tail_rank_pct": (rank, "%")}


def _cli_ok(code, out, doc_check):
    if code != 0:
        return f"exit code {code}, expected 0"
    if doc_check is None:
        return None
    return doc_check(json.loads(Path(out).read_text()))


def _doc_ok(doc):
    return None if doc["ok"] is True else "document reports ok=false"


def _srp_ok(doc):
    return None if doc["srp"]["ok"] is True else "source symmetry fails"


def tail_at(sorted_times):
    """The highest order statistic with at least ten samples beyond it.

    Returns the value and its percentile rank.  With fewer than 21 samples
    no order statistic above the median has ten beyond it, so the tail is
    the median: a lower order statistic is no tail, and its rank would move
    with the number of samples a run happens to take.
    """
    count = len(sorted_times)
    index = max(count - 11, (count - 1) // 2)
    return sorted_times[index], 100.0 * (index + 1) / count


WORKLOADS = {w.name: w for w in (KnPipeline, AuditSampling, CliSmall)}

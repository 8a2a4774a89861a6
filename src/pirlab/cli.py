"""Command line front end.

Every subcommand prints a schema identifier to stderr, writes one JSON or
table document to stdout (or --out), and exits with:

  0  success
  2  bad parameters, a malformed document or an unsupported size
  3  a well-formed input that fails a feasibility or independence check,
     or an audit that finds a privacy breach
  4  an internal self-check failed, which is a bug in pirlab
"""

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import bounds_table, render_table
from .builder import build_scheme
from .errors import InfeasibleError, InternalConsistencyError, ParameterError
from .general import general_rate, random_general_scheme
from .graphs import Graph, make_graph
from .patterns import IndependenceError, check_srp, extract_patterns
from .render import canonical_json, frac_str, meta_header
from .scheme import DeterministicScheme, ProbabilisticScheme
from .sequences import build_sequences, rate
from .sim import (privacy_audit, random_permutations, random_storage,
                  run_deterministic_trial, run_probabilistic_trials)
from .transform import prob_rate, transform

# stderr schema versions; transform is v2 because a row is one distinct
# joint query, not one recovery pattern
SCHEMA_VERSION = {"transform": 2}


def _emit(text, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_doc(doc, out_path):
    _emit(canonical_json(doc) + "\n", out_path)


def _load_doc(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}")


def _parse_graph(spec):
    """Accept edges:U-V,..., family:params, or a path to a graph JSON."""
    if spec.startswith("edges:"):
        edges = []
        for token in spec[len("edges:"):].split(","):
            m = re.fullmatch(r"(\d+)-(\d+)", token.strip())
            if not m:
                raise ParameterError(f"bad edge token {token!r}")
            u, v = sorted((int(m.group(1)), int(m.group(2))))
            edges.append((u, v))
        if not edges:
            raise ParameterError("edge list is empty")
        return Graph(n=max(v for e in edges for v in e), edges=tuple(edges))
    if ":" in spec:
        family, _, params = spec.partition(":")
        try:
            values = [int(p) for p in params.split(",")] if params else []
        except ValueError:
            raise ParameterError(f"bad family parameters {params!r}")
        return make_graph(family, values)
    return Graph.from_json(_load_doc(spec))


def _parse_theta(text, graph):
    """A file id, or an endpoint pair u,v resolved against the graph."""
    if "," in text:
        try:
            u, v = (int(p) for p in text.split(","))
        except ValueError:
            raise ParameterError(f"bad theta {text!r}")
        return graph.file_id(u, v)
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"bad theta {text!r}")


# ============================================================
# subcommand handlers
# ============================================================

def _cmd_bounds(args):
    reports = bounds_table(args.min, args.max)
    _emit(render_table(reports, fmt=args.format), args.out)
    return 0


def _cmd_sequences(args):
    led = build_sequences(args.n)
    n = args.n
    doc = {
        "meta": meta_header("sequences", {"n": n}),
        "n": n,
        "x": [frac_str(led.x[k]) for k in range(1, n)],
        "y": [frac_str(led.y[k]) if k >= 2 else None for k in range(1, n)],
        "z": [frac_str(led.z[k]) if k <= n - 2 else None
              for k in range(1, n)],
        "M": led.m_scale,
        "L": led.subpacketization,
        "rate": frac_str(rate(n)),
    }
    _emit_doc(doc, args.out)
    return 0


def _cmd_build(args):
    graph = make_graph("complete", [args.n])
    theta = _parse_theta(args.theta, graph)
    scheme = build_scheme(args.n, theta)
    doc = scheme.to_json()
    doc["meta"] = meta_header("build", {"n": args.n, "theta": theta})
    _emit_doc(doc, args.out)
    return 0


def _cmd_extract(args):
    source = _load_doc(args.scheme)
    scheme = DeterministicScheme.from_json(source)
    ex = extract_patterns(scheme)
    srp = check_srp(scheme, ex)
    doc = {
        "patterns": [p.to_json() for p in ex.patterns],
        "side_info": [{"server": srv, "index": idx}
                      for srv, idx in ex.side_info],
        "srp": {**{str(srv): cnt for srv, cnt in sorted(srp.counts.items())},
                "ok": srp.ok},
        "meta": meta_header("extract", {"scheme": source}),
    }
    _emit_doc(doc, args.out)
    return 0


def _cmd_transform(args):
    source = _load_doc(args.scheme)
    scheme = DeterministicScheme.from_json(source)
    prob = transform(scheme)
    doc = prob.to_json()
    doc["rate"] = frac_str(prob_rate(prob))
    doc["meta"] = meta_header("transform", {"scheme": source})
    _emit_doc(doc, args.out)
    return 0


def _cmd_general(args):
    graph = _parse_graph(args.graph)
    if args.r < 1:
        raise ParameterError(f"replication factor must be >= 1, got {args.r}")
    if args.r > 1:
        graph = graph.extend(args.r)
    inputs = {"graph": graph.to_json(), "r": args.r, "q": args.q}

    if args.enumerate:
        doc = {
            "rate": frac_str(general_rate(graph)),
            "empty_probabilities": {
                str(v): frac_str(Fraction(1, 2) ** graph.degree(v))
                for v in graph.servers},
            "meta": meta_header("general", {**inputs, "enumerate": True}),
        }
        _emit_doc(doc, args.out)
        return 0

    if args.theta is None or args.seed is None:
        raise ParameterError("sampling a query needs --theta and --seed "
                             "(or pass --enumerate)")
    theta = _parse_theta(args.theta, graph)
    rng = random.Random(args.seed)
    scheme = random_general_scheme(graph, theta, rng, q=args.q)
    doc = scheme.to_json()
    doc["meta"] = meta_header("general", {**inputs, "theta": theta},
                              seed=args.seed)
    _emit_doc(doc, args.out)
    return 0


def _cmd_simulate(args):
    source = _load_doc(args.scheme)
    rng = random.Random(args.seed)
    if "rows" in source:
        prob = ProbabilisticScheme.from_json(source)
        contents = [rng.randrange(args.q) for _ in prob.graph.files]
        if args.trials:
            report = run_probabilistic_trials(prob, contents, mode="sample",
                                              trials=args.trials, rng=rng)
        else:
            report = run_probabilistic_trials(prob, contents, mode="exact")
        doc = {
            "ok": report.ok,
            "rate": frac_str(report.rate),
            "meta": meta_header("simulate",
                                {"scheme": source, "trials": args.trials},
                                seed=args.seed),
        }
    elif "mu" in source:
        raise ParameterError("randomized single-symbol schemes are audited "
                             "with `pirlab audit --family general:...`")
    else:
        scheme = DeterministicScheme.from_json(source)
        storage = random_storage(scheme.graph, q=args.q, L=scheme.L, rng=rng)
        perms = random_permutations(scheme.graph, scheme.L, rng)
        report = run_deterministic_trial(scheme, storage, perms)
        doc = {
            "ok": report.ok,
            "rate": frac_str(report.measured_rate),
            "downloaded_symbols": report.downloaded_symbols,
            "meta": meta_header("simulate", {"scheme": source, "q": args.q},
                                seed=args.seed),
        }
    _emit_doc(doc, args.out)
    return 0


def _family_schemes(token):
    m = re.fullmatch(r"k(\d+)", token)
    if m:
        n = int(m.group(1))
        count = n * (n - 1) // 2
        return {theta: build_scheme(n, theta) for theta in range(count)}
    if token.startswith("transform:"):
        m = re.fullmatch(r"k(\d+)", token[len("transform:"):])
        if not m:
            raise ParameterError(f"transform families look like "
                                 f"transform:k4, got {token!r}")
        n = int(m.group(1))
        count = n * (n - 1) // 2
        return {theta: transform(build_scheme(n, theta))
                for theta in range(count)}
    if token.startswith("general:"):
        graph = _parse_graph(token[len("general:"):])
        return {theta: graph for theta in range(len(graph.edges))}
    raise ParameterError(f"unknown audit family {token!r}; use kN, "
                         f"transform:kN, or general:<graph>")


def _cmd_audit(args):
    schemes = _family_schemes(args.family)
    rng = random.Random(args.seed) if args.seed is not None else None
    report = privacy_audit(schemes, mode=args.mode, trials=args.trials,
                           rng=rng, q=args.q, epsilon=args.epsilon)
    doc = {
        "ok": report.ok,
        "mode": report.mode,
        "max_deviation": None if report.max_deviation is None
        else float(report.max_deviation),
        "epsilon": None if report.epsilon is None else float(report.epsilon),
        "meta": meta_header("audit", {
            "family": args.family, "mode": args.mode,
            "trials": args.trials, "epsilon": args.epsilon},
            seed=args.seed),
    }
    _emit_doc(doc, args.out)
    return 0 if report.ok else 3


# ============================================================
# parser
# ============================================================

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pirlab",
        description="private retrieval toolkit for 2-replicated "
                    "graph storage")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="capacity bound table")
    p.add_argument("--min", type=int, default=3)
    p.add_argument("--max", type=int, default=10)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sequences", help="construction sequences for K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sequences)

    p = sub.add_parser("build", help="explicit scheme on K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", default="0",
                   help="file id, or an endpoint pair like 1,3")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("extract", help="recover patterns from a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("transform", help="deterministic -> probabilistic")
    p.add_argument("--scheme", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("general", help="randomized single-symbol scheme")
    p.add_argument("--graph", required=True,
                   help="edges:1-2,1-3,... or family:params or a JSON path")
    p.add_argument("--theta", default=None)
    p.add_argument("--r", type=int, default=1,
                   help="replication factor (multigraph extension)")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--enumerate", action="store_true",
                   help="report the exact rate and idle probabilities")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_general)

    p = sub.add_parser("simulate", help="run a scheme against random storage")
    p.add_argument("--scheme", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("audit", help="privacy audit across desired files")
    p.add_argument("--family", required=True,
                   help="kN, transform:kN, or general:<graph spec>")
    p.add_argument("--mode", required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    version = SCHEMA_VERSION.get(args.command, 1)
    print(f"schema: pirlab/{args.command}/v{version}", file=sys.stderr)
    try:
        return args.func(args)
    except (InfeasibleError, IndependenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

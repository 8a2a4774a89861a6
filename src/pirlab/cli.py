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
import hashlib
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import bounds_table, render_table
from .builder import build_scheme, check_build_n
from .errors import (InfeasibleError, InternalConsistencyError,
                     ParameterError, UnsupportedSizeError, check_q)
from .general import general_rate, random_general_scheme
from .graphs import Graph, make_graph
from .patterns import (IndependenceError, check_srp, extract_patterns,
                       rows_short_of_l)
from .render import canonical_json, frac_str, meta_header
from .scheme import DeterministicScheme, ProbabilisticScheme, gc_paused
from .sequences import build_sequences, rate
from .sim import (check_audit_member, privacy_audit, random_permutations,
                  random_storage, run_deterministic_trial,
                  run_probabilistic_trials)
from .transform import prob_rate, transform

# `audit --family kN --mode structural` holds all C(n,2) member schemes at
# once: 96 MB peak RSS at K6, while one K7 scheme alone keeps 282 MB
STRUCTURAL_AUDIT_CAP = 6

# stderr schema versions; build is v2 because a scheme document holds flat
# integer columns, and transform is v2 because a row is one distinct joint
# query, not one recovery pattern
SCHEMA_VERSION = {"build": 2, "transform": 2}


def _emit(text, out_path):
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _emit_doc(doc, out_path):
    _emit(canonical_json(doc) + "\n", out_path)


def _read_doc(path):
    """The JSON object in a UTF-8 file, and the sha256 of the file's bytes;
    every pirlab document is one object."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}")
    if type(doc) is not dict:
        raise ParameterError(f"{path} holds a JSON {type(doc).__name__}, "
                             f"not an object")
    return doc, hashlib.sha256(data).hexdigest()


def _load_scheme(path):
    """A deterministic scheme file as the scheme, the patterns its rows
    give, and what stands for it in the input digest: the sha256 of its
    bytes as read, so that nothing is encoded again."""
    doc, sha256 = _read_doc(path)
    scheme = DeterministicScheme.from_json(doc)
    return scheme, extract_patterns(scheme), {"scheme_sha256": sha256}


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
        return Graph(n=max(v for e in edges for v in e), edges=tuple(edges))
    if ":" in spec:
        family, _, params = spec.partition(":")
        try:
            values = [int(p) for p in params.split(",")] if params else []
        except ValueError:
            raise ParameterError(f"bad family parameters {params!r}")
        return make_graph(family, values)
    return Graph.from_json(_read_doc(spec)[0])


def _parse_theta(text, graph):
    """A file id, or an endpoint pair u,v resolved against the graph."""
    try:
        u, v = map(int, text.split(",")) if "," in text else (int(text), None)
    except ValueError:
        raise ParameterError(f"bad theta {text!r}")
    return u if v is None else graph.file_id(u, v)


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
    graph = make_graph("complete", [check_build_n(args.n)])
    theta = _parse_theta(args.theta, graph)
    scheme = build_scheme(args.n, theta)
    doc = scheme.to_json()
    doc["meta"] = meta_header("build", {"n": args.n, "theta": theta})
    _emit_doc(doc, args.out)
    return 0


def _cmd_extract(args):
    scheme, ex, source = _load_scheme(args.scheme)
    srp = check_srp(scheme, ex)
    doc = {
        "patterns": [{"target": target, "selections": chosen}
                     for target, chosen in ex.chosen()],
        "side_info": [{"server": srv, "index": idx}
                      for srv, idx in ex.side_info],
        "srp": {**{str(srv): cnt for srv, cnt in sorted(srp.counts.items())},
                "ok": srp.ok},
        "meta": meta_header("extract", source),
    }
    _emit_doc(doc, args.out)
    return 0


def _cmd_transform(args):
    scheme, ex, source = _load_scheme(args.scheme)
    prob = transform(scheme, ex)
    doc = prob.to_json()
    doc["rate"] = frac_str(prob_rate(prob))
    doc["meta"] = meta_header("transform", source)
    _emit_doc(doc, args.out)
    return 0


def _cmd_general(args):
    graph = _parse_graph(args.graph)
    if args.r != 1:  # extend refuses r < 1
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
    check_q(args.q)
    source, sha256 = _read_doc(args.scheme)
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
        if rows_short_of_l(scheme):
            extract_patterns(scheme)  # exit 3 before storage that long
        storage = random_storage(scheme.graph, q=args.q, L=scheme.L, rng=rng)
        perms = random_permutations(scheme.graph, scheme.L, rng)
        report = run_deterministic_trial(scheme, storage, perms)
        doc = {
            "ok": report.ok,
            "rate": frac_str(report.measured_rate),
            "downloaded_symbols": report.downloaded_symbols,
            "meta": meta_header("simulate", {
                "scheme_sha256": sha256, "q": args.q}, seed=args.seed),
        }
    _emit_doc(doc, args.out)
    return 0


def _family_schemes(token, mode):
    """The audit family's members by desired file; a kN family is refused
    before it is built when `mode` does not read its member kind."""
    if token.startswith("general:"):
        graph = _parse_graph(token[len("general:"):])
        return {theta: graph for theta in range(len(graph.edges))}
    m = re.fullmatch(r"(transform:)?k(\d+)", token)
    if not m:
        raise ParameterError(f"unknown audit family {token!r}; use kN, "
                             f"transform:kN, or general:<graph>")
    n = int(m.group(2))
    files = range(n * (n - 1) // 2)
    if files:  # an empty family is privacy_audit's to refuse
        check_build_n(n)
        check_audit_member(mode, ProbabilisticScheme if m.group(1)
                           else DeterministicScheme)
        if not m.group(1) and n > STRUCTURAL_AUDIT_CAP:
            raise UnsupportedSizeError(
                f"a structural audit keeps all {len(files)} K{n} schemes "
                f"alive and is capped at n = {STRUCTURAL_AUDIT_CAP}")
    member = transform if m.group(1) else (lambda scheme: scheme)
    return {theta: member(build_scheme(n, theta)) for theta in files}


def _cmd_audit(args):
    schemes = _family_schemes(args.family, args.mode)
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

# Each subcommand once: its help, its handler and its flags in order, as
# (flag, add_argument keywords); every subcommand takes --out last.
_COMMANDS = {
    "bounds": ("capacity bound table", _cmd_bounds, (
        ("--min", {"type": int, "default": 3}),
        ("--max", {"type": int, "default": 10}),
        ("--format", {"choices": ("csv", "markdown"), "default": "csv"}),
    )),
    "sequences": ("construction sequences for K_n", _cmd_sequences, (
        ("--n", {"type": int, "required": True}),
    )),
    "build": ("explicit scheme on K_n", _cmd_build, (
        ("--n", {"type": int, "required": True}),
        ("--theta", {"default": "0",
                     "help": "file id, or an endpoint pair like 1,3"}),
    )),
    "extract": ("recover patterns from a scheme", _cmd_extract, (
        ("--scheme", {"required": True}),
    )),
    "transform": ("deterministic -> probabilistic", _cmd_transform, (
        ("--scheme", {"required": True}),
    )),
    "general": ("randomized single-symbol scheme", _cmd_general, (
        ("--graph", {"required": True,
                     "help": "edges:1-2,1-3,... or family:params or a "
                             "JSON path"}),
        ("--theta", {"default": None}),
        ("--r", {"type": int, "default": 1,
                 "help": "replication factor (multigraph extension)"}),
        ("--q", {"type": int, "default": 2}),
        ("--seed", {"type": int, "default": None}),
        ("--enumerate", {"action": "store_true",
                         "help": "report the exact rate and idle "
                                 "probabilities"}),
    )),
    "simulate": ("run a scheme against random storage", _cmd_simulate, (
        ("--scheme", {"required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--trials", {"type": int, "default": None}),
        ("--q", {"type": int, "default": 2}),
    )),
    "audit": ("privacy audit across desired files", _cmd_audit, (
        ("--family", {"required": True,
                      "help": "kN, transform:kN, or general:<graph spec>"}),
        ("--mode", {"required": True}),
        ("--trials", {"type": int, "default": None}),
        ("--seed", {"type": int, "default": None}),
        ("--q", {"type": int, "default": 2}),
        ("--epsilon", {"type": float, "default": None}),
    )),
}


def _build_parser(commands=_COMMANDS, parser_class=argparse.ArgumentParser):
    """The pirlab parser with the subcommands named in `commands`."""
    parser = parser_class(
        prog="pirlab",
        description="private retrieval toolkit for 2-replicated "
                    "graph storage")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        help_text, func, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument("--out")
        p.set_defaults(func=func)
    return parser


class _Unparsed(Exception):
    pass


class _QuietParser(argparse.ArgumentParser):
    """A parser that neither prints nor exits: help and errors raise
    `_Unparsed`, so the full parser can give them their exact text."""

    def print_help(self, file=None):
        raise _Unparsed

    def error(self, message):
        raise _Unparsed


def _parse_args(argv):
    """Parse with the named subcommand's parser alone; help, an error or a
    name that is not a command goes to the full parser, whose usage lists
    every command."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        try:
            args, extras = _build_parser(
                (argv[0],), _QuietParser).parse_known_args(argv)
        except _Unparsed:
            pass
        else:
            if not extras:
                return args
    return _build_parser().parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    version = SCHEMA_VERSION.get(args.command, 1)
    print(f"schema: pirlab/{args.command}/v{version}", file=sys.stderr)
    try:
        # reference counting frees a command's data, which holds no cycles;
        # the collector would only walk it again and again (gc_paused)
        return gc_paused(args.func)(args)
    except (InfeasibleError, IndependenceError) as exc:
        rc, line = 3, f"error: {exc}"
    except ParameterError as exc:
        rc, line = 2, f"error: {exc}"
    except InternalConsistencyError as exc:
        rc, line = 4, f"error: internal self-check failed: {exc}"
    # one line of at most 512 bytes, however many digits its numbers have
    data, mark = line.encode(), " ... (line cut)"
    if len(data) > 512:
        line = data[:512 - len(mark)].decode(errors="ignore") + mark
    print(line, file=sys.stderr)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())

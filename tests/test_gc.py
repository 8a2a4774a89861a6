"""The cyclic collector pause in `cli.main` and what makes it safe.

`cli.main` runs a command with CPython's cyclic collector paused; the
library itself never touches the collector.  Scheme data holds no
reference cycles, so reference counting frees all of it and the pause
cannot leave garbage behind.  The first tests check that invariant over
full library passes and CLI runs; the next check that `main` hands the
caller back the collector state it had, whatever the exit; the last that
a library pass with the collector on makes few collections, since it
allocates no GC-tracked container per row or term.
"""

import gc
import json
import random

import pytest

from pirlab import cli
from pirlab.builder import build_scheme, verify_scheme
from pirlab.patterns import check_srp, extract_patterns
from pirlab.render import canonical_json
from pirlab.scheme import DeterministicScheme, ProbabilisticScheme
from pirlab.sim import (random_storage, run_deterministic_trial,
                        run_probabilistic_trials)
from pirlab.transform import entropy_proxy_ok, prob_rate, transform


def _cyclic_garbage(run):
    """The objects a full collection finds unreachable after `run()`,
    kept by DEBUG_SAVEALL; whatever was garbage before is collected
    first."""
    gc.collect()
    gc.garbage.clear()
    debug = gc.get_debug()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()


def _kn_pass(n, theta):
    """The library's share of a K_n pass: build, verify, analyze,
    transform, the scheme's JSON round trip and a trial."""
    scheme = build_scheme(n, theta)
    assert verify_scheme(scheme).ok
    ex = extract_patterns(scheme)
    assert check_srp(scheme, ex).ok
    assert entropy_proxy_ok(scheme)
    pscheme = transform(scheme, ex)
    prob_rate(pscheme)
    text = canonical_json(scheme.to_json())
    again = DeterministicScheme.from_json(json.loads(text))
    storage = random_storage(again.graph, 2, again.L, random.Random(n))
    assert run_deterministic_trial(again, storage).ok
    return pscheme, storage


def _library_pass(n, theta):
    pscheme, storage = _kn_pass(n, theta)
    ProbabilisticScheme.from_json(json.loads(
        canonical_json(pscheme.to_json())))
    contents = [row[0] for row in storage.contents]
    assert run_probabilistic_trials(pscheme, contents).ok


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_library_pass_leaves_no_cyclic_garbage(n):
    for theta in (0, n * (n - 1) // 2 - 1):
        assert _cyclic_garbage(lambda: _library_pass(n, theta)) == []


def test_cli_runs_leave_no_cyclic_garbage(tmp_path, capsys, monkeypatch):
    # an argparse parser is a web of cycles, so every run shares the one
    # built beforehand for its subcommand and only what the commands make
    # is looked at
    shapes = [((command,), cli._QuietParser)
              for command in ("build", "extract", "transform", "simulate")]
    parsers = {shape: cli._build_parser(*shape) for shape in shapes}
    monkeypatch.setattr(cli, "_build_parser", lambda *shape: parsers[shape])
    scheme, prob = tmp_path / "k4.json", tmp_path / "k4_prob.json"

    def run():
        for argv in (["build", "--n", "4", "--theta", "5", "--out",
                      str(scheme)],
                     ["extract", "--scheme", str(scheme)],
                     ["transform", "--scheme", str(scheme), "--out",
                      str(prob)],
                     ["simulate", "--scheme", str(scheme), "--seed", "1"],
                     ["simulate", "--scheme", str(prob), "--seed", "1",
                      "--trials", "200"]):
            assert cli.main(argv) == 0

    assert _cyclic_garbage(run) == []
    capsys.readouterr()


def test_a_planted_cycle_is_found():
    def run():
        loop = []
        loop.append(loop)
    assert _cyclic_garbage(run) == ["list"]


# ============================================================
# the collector state around a command
# ============================================================

def _argv(outcome, tmp_path):
    """A command that exits 0, 2 or 3, or (for "raise") one whose handler
    raises an error `main` does not catch."""
    if outcome == 3:  # dependent rows: a term's subfile moved to another
        doc = build_scheme(3, 0).to_json()
        doc["queries"]["3"]["subfile"][0] += 1
        path = tmp_path / "dependent.json"
        path.write_text(canonical_json(doc))
        return ["extract", "--scheme", str(path)]
    return {0: ["sequences", "--n", "4"], 2: ["build", "--n", "2"],
            "raise": ["sequences", "--n", "4"]}[outcome]


def _main_seeing_the_collector(argv, monkeypatch, raises=False):
    """`cli.main(argv)`, and whether the collector was on while its handler
    ran; with `raises`, the handler raises KeyError, which `main` lets
    through."""
    seen, parse = [], cli._parse_args

    def parse_with_probe(argv):
        args = parse(argv)
        handler = args.func

        def probe(args):
            seen.append(gc.isenabled())
            if raises:
                raise KeyError("not caught by main")
            return handler(args)
        args.func = probe
        return args

    monkeypatch.setattr(cli, "_parse_args", parse_with_probe)
    if raises:
        with pytest.raises(KeyError):
            cli.main(argv)
        return None, seen
    return cli.main(argv), seen


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", [0, 2, 3, "raise"])
def test_main_gives_the_caller_its_collector_back(outcome, enabled, tmp_path,
                                                  monkeypatch, capsys):
    # paused while the handler runs; then a caller's enabled collector
    # comes back on, and a disabled one stays off
    argv = _argv(outcome, tmp_path)
    if not enabled:
        gc.disable()
    try:
        rc, seen = _main_seeing_the_collector(argv, monkeypatch,
                                              raises=outcome == "raise")
        assert (rc, seen) == (None if outcome == "raise" else outcome,
                              [False])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()


# ============================================================
# the library with the collector on
# ============================================================

def test_kn_pass_collects_rarely(monkeypatch):
    # the library never pauses the collector, so turning it off fails here.
    # A collection starts once 700 more GC-tracked objects are alive than
    # at the last one, and a K6 pass keeps few: no tuple or list per row or
    # term.  It makes about 4; the probabilistic document's round trip,
    # left out, makes about 12 for its lists and tuples per row and combo.
    def refuse():
        raise AssertionError("the library turned the collector off")

    monkeypatch.setattr(gc, "disable", refuse)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        _kn_pass(6, 0)
    finally:
        gc.callbacks.remove(count)
    assert gc.isenabled()
    assert len(starts) <= 10, starts

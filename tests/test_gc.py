"""The cyclic collector pause (`scheme.gc_paused`) and what makes it safe.

Scheme data holds no reference cycles, so reference counting frees all of
it and the pause cannot leave garbage behind.  The first tests check that
invariant over full library passes and CLI runs; the rest check that the
pause hands the caller back the collector state it had.
"""

import gc
import json
import random

import pytest

from pirlab import cli, patterns
from pirlab.builder import build_scheme, verify_scheme
from pirlab.errors import ParameterError
from pirlab.patterns import analyze, check_srp, extract_patterns
from pirlab.render import canonical_json
from pirlab.scheme import DeterministicScheme, ProbabilisticScheme, gc_paused
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


def _library_pass(n, theta):
    scheme = build_scheme(n, theta)
    assert verify_scheme(scheme).ok
    ex = extract_patterns(scheme)
    assert check_srp(scheme, ex).ok
    assert entropy_proxy_ok(scheme)
    pscheme = transform(scheme, ex)
    prob_rate(pscheme)
    text = canonical_json(scheme.to_json())
    again = DeterministicScheme.from_json(json.loads(text))
    ProbabilisticScheme.from_json(json.loads(
        canonical_json(pscheme.to_json())))
    storage = random_storage(again.graph, 2, again.L, random.Random(n))
    assert run_deterministic_trial(again, storage).ok
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
# the collector state around a paused call
# ============================================================

@gc_paused
def _state():
    return gc.isenabled()


def test_pause_turns_an_enabled_collector_back_on():
    assert gc.isenabled()
    assert _state() is False
    assert gc.isenabled()


def test_pause_keeps_a_callers_disabled_collector_off():
    gc.disable()
    try:
        assert _state() is False
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_calls_leave_the_collector_paused(monkeypatch):
    seen = []

    def probe(scheme):
        result = analyze(scheme)
        seen.append(gc.isenabled())  # after the inner call returned
        return result

    monkeypatch.setattr(patterns, "analyze", probe)
    assert verify_scheme(build_scheme(4, 1)).ok
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_pause_restores_the_state_after_a_raise(enabled):
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(ParameterError):
            build_scheme(2)
        assert gc.isenabled() is enabled
        with pytest.raises(ParameterError, match="malformed"):
            DeterministicScheme.from_json({"graph": {}})
        assert gc.isenabled() is enabled
    finally:
        gc.enable()

"""Slow tier: K7 at theta = 0, the smallest K_n with side information.

Deselected by default; run with `python -m pytest -m slow`.  One build is
shared by the module: it takes about 10 s and most of a 1 GB peak RSS.
The relabeling check holds at most one more K7 scheme at a time, and the
refusal of a dependent K7 document and the walk's memory guard run in
child processes.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import pirlab
from pirlab.builder import build_scheme, verify_scheme
from pirlab.sequences import rate
from pirlab.sim import run_probabilistic_trials
from pirlab.transform import entropy_proxy_ok, prob_rate, transform

from relabel import relabel

pytestmark = pytest.mark.slow

# sha256 of `_digest`'s text: the rows, each pattern's target and sorted
# selections, and the side information.  Recorded with the builder that
# stored its patterns, whose stored copy gives the same text as the
# analysis of the rows, and while a row block's repr was the tuple of its
# Summations, the text `_rows_text` gives.
K7_THETA0_SHA256 = \
    "70baa91d55acd697741afbc9be563e82a7563542936e3e4a9f99f4d6b1856734"


@pytest.fixture(scope="module")
def k7():
    return build_scheme(7, 0)


@pytest.fixture(scope="module")
def k7_prob(k7):
    return transform(k7)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rows_text(scheme):
    """The repr of the list of (server, its rows as a tuple of Summations)
    in server order, made one server at a time."""
    return "[" + ", ".join(f"({srv}, {tuple(rows)!r})" for srv, rows
                           in sorted(scheme.queries.items())) + "]"


def _digest(scheme):
    patterns = [(p.target, sorted(p.selections.items()))
                for p in scheme.patterns]
    return _sha256(f"({_rows_text(scheme)}, {patterns!r}, "
                   f"{scheme.side_info!r})")


def test_k7_build_pinned(k7):
    assert k7.L == 135_792
    assert len(k7.side_info) == 480
    assert _digest(k7) == K7_THETA0_SHA256


def test_k7_theta_is_theta_zero_relabeled(k7):
    # theta = 11 is edge (3, 4); the digest covers each server's rows in
    # order, which give the patterns and the side information, so neither
    # scheme is analyzed.  Each scheme is dropped once digested, so at most
    # two K7 schemes are alive.
    relabeled = _sha256(_rows_text(relabel(k7, 11)))
    built = build_scheme(7, 11)
    assert built.graph.endpoints(11) == (3, 4)
    assert _sha256(_rows_text(built)) == relabeled


def test_k7_verifies(k7):
    assert verify_scheme(k7).ok


def test_k7_entropy_proxy(k7):
    assert entropy_proxy_ok(k7)


def test_k7_transform_rows(k7_prob):
    assert len(k7_prob.rows) == 415


def test_k7_transform_rate(k7_prob):
    assert prob_rate(k7_prob) == rate(7)


def test_k7_exact_probabilistic_trial(k7_prob):
    contents = [1 - f % 2 for f in k7_prob.graph.files]
    assert run_probabilistic_trials(k7_prob, contents, mode="exact").ok


# the K7 document with every subfile at server 2 set to 1, written and
# then read by `extract` in one process
_K7_DEPENDENT = """
import sys
from pirlab.builder import build_scheme
from pirlab.cli import main
from pirlab.render import canonical_json

doc = build_scheme(7, 0).to_json()
doc["queries"]["2"]["subfile"] = [1] * len(doc["queries"]["2"]["subfile"])
with open(sys.argv[1], "w") as fh:
    fh.write(canonical_json(doc))
del doc
sys.exit(main(["extract", "--scheme", sys.argv[1]]))
"""


def test_k7_dependent_line_stays_short(tmp_path):
    # the K6 edit of test_cli.py at K7: one short line names the first
    # violation and a count per condition.  It runs in a child process, so
    # that the module's K7 scheme is not alive beside a second one.
    src = pathlib.Path(pirlab.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _K7_DEPENDENT, str(tmp_path / "k7.json")],
        capture_output=True, text=True, env={**os.environ,
                                             "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[0] == "schema: pirlab/extract/v1"
    assert len(lines) == 2 and len(lines[1].encode()) <= 512, lines
    assert lines[1] == (
        "error: scheme rows are not independent: [2] subfile symbols "
        "[(0, 1), (6, 1), (7, 1), (8, 1), (9, 1), (10, 1)] repeat at server "
        "2; ... 31167 in all: 1 of condition 2, 1 of condition 3, 31165 of "
        "condition 4")


# a K7 build, then its analysis under tracemalloc; prints the traced peak
_K7_WALK = """
import tracemalloc
from pirlab.builder import build_scheme
from pirlab.patterns import analyze

scheme = build_scheme(7, 0)
tracemalloc.start()
assert analyze(scheme)[0].ok
print(tracemalloc.get_traced_memory()[1])
"""


def test_k7_walk_memory():
    # the walk's traced peak was 215 MiB on a 2-vCPU VM (Python 3.11); a
    # child process measures it, so that nothing the module holds counts
    src = pathlib.Path(pirlab.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _K7_WALK], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 250 * 2 ** 20

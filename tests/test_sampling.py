"""Cheap sampling and exact distributions: identity with the direct forms.

`answer_distribution` multiplies per-file marginals, sampled trials bisect
the cumulative row probabilities, and the statistical audit counts combos
from the drawn bits.  Each is checked against the direct form it replaced
(`reference_general`): same values, same dict order, same RNG state.  The
digests pin CLI stdout as produced by the direct forms (re-rendered with
json.dumps(indent=2), the form it was recorded in); the K4 `simulate` pins
of that time read a per-pattern transform document (`reference_transform`),
and SIMULATE_K4_MERGED_SHA256 pins the same runs on today's merged one.
"""

import hashlib
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pirlab import cli
from pirlab.builder import build_scheme
from pirlab.general import answer_distribution
from pirlab.graphs import Graph, make_graph
from pirlab.scheme import ProbabilisticScheme, ProbRow
from pirlab.sim import privacy_audit, run_probabilistic_trials
from pirlab.transform import transform

from conftest import indented_sha256
from reference_general import (
    reference_distribution,
    reference_sample_trials,
    reference_statistical_audit,
)
from reference_transform import reference_transform

# the graph mix of the benchmark's statistical audits
AUDIT_GRAPHS = ("edges:1-2,1-3,2-3,1-4", "complete:5", "star:8", "cycle:6")


# ============================================================
# exact distributions
# ============================================================

@st.composite
def graphs_max_degree_6(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    simple = draw(st.booleans())
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10,
                          unique=simple))
    graph = Graph(n, tuple(edges), multigraph=not simple)
    assume(graph.max_degree() <= 6)
    return graph


@pytest.mark.parametrize("q", [2, 3, 257])
@settings(max_examples=25, deadline=None)
@given(graph=graphs_max_degree_6())
@example(graph=make_graph("star", [6]))
@example(graph=make_graph("complete", [4]).extend(2))
def test_factored_distribution_matches_enumeration(q, graph):
    for theta in graph.files:
        for srv in graph.servers:
            got = answer_distribution(graph, theta, srv, q=q)
            want = reference_distribution(graph, theta, srv, q=q)
            assert got == want
            assert list(got) == list(want)


# ============================================================
# statistical audit
# ============================================================

def _family(spec):
    graph = cli._parse_graph(spec)
    return {theta: graph for theta in graph.files}


def _assert_same_audit(schemes, trials, seed, q=2):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = privacy_audit(schemes, mode="statistical", trials=trials, rng=rng,
                        q=q)
    want = reference_statistical_audit(schemes, trials, ref_rng, q=q)
    assert got == want
    assert type(got.max_deviation) is float
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("q", [2, 3, 257])
@pytest.mark.parametrize("spec", AUDIT_GRAPHS)
def test_statistical_audit_matches_reference(spec, q):
    for seed in (1, 2, 3):
        _assert_same_audit(_family(spec), 300, seed, q=q)


def test_statistical_audit_matches_reference_on_wrong_family(
        pendant_triangle):
    other = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    schemes = {0: other, 1: pendant_triangle,
               2: pendant_triangle, 3: pendant_triangle}
    _assert_same_audit(schemes, 4000, 5)
    _assert_same_audit(schemes, 257, 11, q=257)


def test_statistical_audit_matches_reference_across_blocks(
        pendant_triangle):
    # more queries than one block of the sampler holds in memory
    schemes = {theta: pendant_triangle for theta in pendant_triangle.files}
    _assert_same_audit(schemes, 9000, 4)


# ============================================================
# sampled probabilistic trials
# ============================================================

@pytest.mark.parametrize("n,theta", [(3, 0), (3, 2), (4, 1), (5, 7)])
def test_sampled_trials_match_reference(n, theta):
    pscheme = transform(build_scheme(n, theta))
    for seed in (0, 1, 2):
        contents = [random.Random(seed).randrange(2)
                    for _ in pscheme.graph.files]
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = run_probabilistic_trials(pscheme, contents, mode="sample",
                                       trials=500, rng=rng)
        want = reference_sample_trials(pscheme, contents, 500, ref_rng)
        assert got == want
        assert rng.getstate() == ref_rng.getstate()


def test_sampled_trials_skip_zero_probability_rows(k3_scheme):
    # a zero-mass row shares its edge with the row before it; neither the
    # scan nor the bisection may ever pick it
    pscheme = transform(k3_scheme)
    rows = pscheme.rows
    dead = ProbRow(p=0, q={srv: None for srv in pscheme.graph.servers})
    padded = ProbabilisticScheme(graph=pscheme.graph, theta=pscheme.theta,
                                 rows=(dead,) + rows[:2] + (dead,) + rows[2:])
    contents = [1, 0, 1]
    got = run_probabilistic_trials(padded, contents, mode="sample",
                                   trials=2000, rng=random.Random(8))
    want = reference_sample_trials(padded, contents, 2000, random.Random(8))
    assert got == want
    assert got.ok


# ============================================================
# CLI bytes
# ============================================================

# sha256 of stdout, recorded before the factored distribution, the
# bisected draw and the counting audit replaced the direct forms, when
# documents were written with json.dumps(indent=2); stdout is re-rendered
# in that form before it is hashed
AUDIT_SHA256 = {
    ("general:edges:1-2,1-3,2-3,1-4", "statistical", "2000", "7", "2"):
        "c4646bbc9ca9ee61f880d7ea9bb2284787f425bfb9e2df643d954ada44fbd17d",
    ("general:complete:5", "statistical", "300", "3", "3"):
        "221a0ce76e3009f7b1acf506a3485cd6aa29e1cda548df2ccfc43d3820b6c2ec",
}
DISTRIBUTIONAL_STAR6_Q257_SHA256 = \
    "9467639ed14fb483d095157df2e963769592b04a0c1be23f4ce53c13031c8d96"
SIMULATE_K4_SHA256 = {
    (0, "0"):
        "ae7bb44b64d98bd0881527f9378c1b856eadcb63493de2180da6392a013ad0e6",
    (4, "9"):
        "c173118070627b2138a9a822c2705c72590fe7faee61026352b04f23911c73d9",
}

# the same runs on the merged transform document, as written
SIMULATE_K4_MERGED_SHA256 = {
    (0, "0"):
        "39041c1c556482d3650b7b2b6c225b5d2dcde90854244e0d96110d4bfa486e8e",
    (4, "9"):
        "a5645b99c5789c7549dd2d8d79cfa1794373eac15bbe3782cee96ac18012945e",
}


def _stdout_sha256(capsys, argv):
    capsys.readouterr()
    assert cli.main(argv) == 0
    return indented_sha256(capsys.readouterr().out)


@pytest.mark.parametrize("family,mode,trials,seed,q", sorted(AUDIT_SHA256))
def test_statistical_audit_bytes_unchanged(capsys, family, mode, trials,
                                           seed, q):
    argv = ["audit", "--family", family, "--mode", mode, "--trials", trials,
            "--seed", seed, "--q", q]
    assert _stdout_sha256(capsys, argv) == \
        AUDIT_SHA256[(family, mode, trials, seed, q)]


def test_distributional_audit_bytes_unchanged(capsys):
    argv = ["audit", "--family", "general:star:6", "--mode",
            "distributional", "--q", "257"]
    assert _stdout_sha256(capsys, argv) == DISTRIBUTIONAL_STAR6_Q257_SHA256


def _simulate_k4(capsys, tmp_path, theta, seed):
    det, prob = tmp_path / "k4.json", tmp_path / "k4_prob.json"
    assert cli.main(["build", "--n", "4", "--theta", str(theta),
                     "--out", str(det)]) == 0
    assert cli.main(["transform", "--scheme", str(det),
                     "--out", str(prob)]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", "--scheme", str(prob), "--trials", "200",
                     "--seed", seed]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("theta,seed", sorted(SIMULATE_K4_SHA256))
def test_sampled_simulate_bytes_unchanged(capsys, tmp_path, monkeypatch,
                                          theta, seed):
    # recorded when transform wrote one row per pattern: the document comes
    # from that reference, which simulate still reads
    monkeypatch.setattr(cli, "transform", reference_transform)
    out = _simulate_k4(capsys, tmp_path, theta, seed)
    assert indented_sha256(out) == SIMULATE_K4_SHA256[(theta, seed)]


@pytest.mark.parametrize("theta,seed", sorted(SIMULATE_K4_MERGED_SHA256))
def test_sampled_simulate_merged_bytes(capsys, tmp_path, theta, seed):
    out = _simulate_k4(capsys, tmp_path, theta, seed)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        SIMULATE_K4_MERGED_SHA256[(theta, seed)]

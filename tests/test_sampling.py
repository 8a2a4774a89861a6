"""Cheap sampling and exact distributions: identity with the direct forms.

`answer_distribution` multiplies per-file marginals, the distributional
audit compares integer weights, sampled trials bisect integer row edges,
and the statistical audit counts packed patterns of bits that
`random_bits` draws in bulk.  Each is checked against the direct form it
replaced (`reference_general`): same values, same dict order, same RNG
state.  The digests pin CLI stdout as produced by the direct forms
(re-rendered with json.dumps(indent=2), the form it was recorded in); the
K4 `simulate` pins of that time read a per-pattern transform document
(`reference_transform`), and SIMULATE_K4_MERGED_SHA256 pins the same runs
on today's merged one.  Both K4 `simulate` pins were first recorded on
transforms of v1 build documents; the transform document carries the
scheme document's digest, so they were recorded again on transforms of
the rows-only `build` output, before the v1 reader was removed.
"""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pirlab import cli
from pirlab.builder import build_scheme
from pirlab.general import (answer_distribution, random_bits,
                            random_general_scheme, sample_combo_counts)
from pirlab.graphs import Graph, make_graph
from pirlab.scheme import ProbabilisticScheme, ProbRow
from pirlab.sim import privacy_audit, run_probabilistic_trials
from pirlab.transform import transform

from conftest import indented_sha256
from reference_general import (
    reference_combo_counts,
    reference_distribution,
    reference_distributional_audit,
    reference_queries,
    reference_sample_trials,
    reference_statistical_audit,
)
from reference_transform import reference_transform

# the graph mix of the benchmark's statistical audits
AUDIT_GRAPHS = ("edges:1-2,1-3,2-3,1-4", "complete:5", "star:8", "cycle:6")
# the same mix with a smaller star, which the 4^degree reference can afford
DISTRIBUTIONAL_GRAPHS = ("edges:1-2,1-3,2-3,1-4", "complete:5", "star:5",
                         "cycle:6")


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

@pytest.mark.parametrize("count", [0, 1, 2, 31, 33, 9001])
def test_random_bits_match_per_call_draws(count):
    for seed in (0, 1, 2, 3, 4):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert random_bits(rng, count) == \
            bytes([ref_rng.randrange(2) for _ in range(count)])
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("spec", AUDIT_GRAPHS)
def test_random_general_scheme_matches_per_call_draws(spec):
    graph = cli._parse_graph(spec)
    m = len(graph.edges)
    rng, ref_rng = random.Random(9), random.Random(9)
    for theta in graph.files:
        scheme = random_general_scheme(graph, theta, rng, q=3)
        mu = tuple(ref_rng.randrange(2) for _ in range(m))
        lam = tuple(ref_rng.randrange(2) for _ in range(m))
        assert (scheme.mu, scheme.lam) == (mu, lam)
        assert scheme.queries == reference_queries(graph, theta, mu, lam,
                                                   q=3)
        assert rng.getstate() == ref_rng.getstate()


def _assert_same_counts(graph, theta, trials, seed, q):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = sample_combo_counts(graph, theta, trials, rng, q=q)
    want = reference_combo_counts(graph, theta, trials, ref_rng, q=q)
    assert got == want
    assert list(got) == list(want)
    assert [list(c) for c in got.values()] == \
        [list(c) for c in want.values()]
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("q", [2, 3, 257])
def test_combo_counts_match_reference(q):
    # server 4 stores one file (the pendant edge) and server 5 none
    graph = Graph(5, ((1, 2), (1, 3), (2, 3), (1, 4)))
    for theta in graph.files:
        for trials in (300, 4500) if theta == 3 else (300,):
            _assert_same_counts(graph, theta, trials, theta, q)


@pytest.mark.parametrize("spec,q,trials", [
    ("star:7", 2, 300), ("star:8", 2, 300), ("star:9", 2, 300),
    ("star:16", 2, 300), ("star:17", 2, 4500), ("star:8", 3, 300),
    ("star:9", 3, 4500), ("star:12", 3, 300)])
def test_combo_counts_match_reference_at_pattern_widths(spec, q, trials):
    # the centre of star:k reads k bits at q = 2 and 2k at q = 3, packed
    # 8 to a byte: 7, 8, 9, 16, 17, 18 and 24 bits, over one block of
    # queries or past it
    graph = cli._parse_graph(spec)
    for theta in (0, len(graph.edges) - 1):
        _assert_same_counts(graph, theta, trials, 7 + theta, q)


@pytest.mark.parametrize("spec,q", [("star:40", 2), ("star:33", 3)])
def test_combo_counts_match_reference_past_one_key_word(spec, q):
    # 40 bits make a tuple key of 5 group bytes per query; 66 bits make 9
    graph = cli._parse_graph(spec)
    for theta in (0, len(graph.edges) - 1):
        _assert_same_counts(graph, theta, 300, theta, q)


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
# distributional audit
# ============================================================

def _assert_same_distributional(schemes, q=2):
    got = privacy_audit(schemes, mode="distributional", q=q)
    want = reference_distributional_audit(schemes, q=q)
    assert got == want
    assert type(got.max_deviation) is Fraction
    return got


@pytest.mark.parametrize("n", [3, 4, 5])
def test_distributional_audit_matches_reference_on_transforms(n):
    family = cli._family_schemes(f"transform:k{n}", "distributional")
    assert _assert_same_distributional(family).ok


@pytest.mark.parametrize("q", [2, 3, 257])
@pytest.mark.parametrize("spec", DISTRIBUTIONAL_GRAPHS)
def test_distributional_audit_matches_reference_on_graphs(spec, q):
    assert _assert_same_distributional(_family(spec), q=q).ok
    graph = cli._parse_graph(spec)
    rng = random.Random(q)
    members = {theta: random_general_scheme(graph, theta, rng, q=q)
               for theta in graph.files}
    assert _assert_same_distributional(members).ok
    # each member brings its own q, so one other alphabet breaches
    members[0] = random_general_scheme(graph, 0, rng, q=3 if q == 2 else 2)
    assert not _assert_same_distributional(members, q=q).ok


def _move_mass(pscheme, moved):
    """`pscheme` with `moved` of row 0's probability put on row 1, through
    the document's "p" strings."""
    doc = pscheme.to_json()
    first, second = doc["rows"][:2]
    first["p"] = str(Fraction(first["p"]) - moved)
    second["p"] = str(Fraction(second["p"]) + moved)
    return ProbabilisticScheme.from_json(doc)


def test_distributional_audit_matches_reference_on_planted_breaches():
    star, cycle = cli._parse_graph("star:4"), cli._parse_graph("cycle:4")
    report = _assert_same_distributional({0: star, 1: cycle})
    assert report.max_deviation == Fraction(3, 4)
    family = cli._family_schemes("transform:k3", "distributional")
    family[1] = _move_mass(family[1], family[1].p(family[1].rows[0]) / 2)
    assert not _assert_same_distributional(family).ok


def test_distributional_audit_matches_reference_across_denominators():
    family = cli._family_schemes("transform:k4", "distributional")
    # member 2's first row split in thirds: the same distribution, with
    # other denominators
    member = family[2]
    first, *rest = member.rows
    family[2] = ProbabilisticScheme(member.graph, member.theta, (
        first, dataclasses.replace(first, mass=2 * first.mass),
        *(dataclasses.replace(row, mass=3 * row.mass) for row in rest)),
        3 * member.denominator)
    assert len({member.denominator for member in family.values()}) == 2
    assert len({member.p(row).denominator for member in family.values()
                for row in member.rows}) > 2
    assert _assert_same_distributional(family).ok
    family[4] = _move_mass(family[4], Fraction(1, 1009))
    report = _assert_same_distributional(family)
    assert not report.ok and report.max_deviation.denominator % 1009 == 0


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
    dead = ProbRow(mass=0, q={srv: None for srv in pscheme.graph.servers})
    padded = ProbabilisticScheme(graph=pscheme.graph, theta=pscheme.theta,
                                 rows=(dead,) + rows[:2] + (dead,) + rows[2:],
                                 denominator=pscheme.denominator)
    contents = [1, 0, 1]
    got = run_probabilistic_trials(padded, contents, mode="sample",
                                   trials=2000, rng=random.Random(8))
    want = reference_sample_trials(padded, contents, 2000, random.Random(8))
    assert got == want
    assert got.ok


class _OffGridRandom(random.Random):
    """A Random whose draws lie below 1/2, most of them off the 2^-53
    grid: a third of a plain draw, then in turn each of `near` (set after
    construction)."""

    near = ()
    calls = 0

    def random(self):
        self.calls += 1
        if self.calls % 2:
            return super().random() / 3
        return self.near[self.calls // 2 % len(self.near)]


@pytest.mark.parametrize("n,theta", [(3, 0), (4, 1)])
def test_sampled_trials_match_reference_off_the_grid(n, theta):
    pscheme = transform(build_scheme(n, theta))
    contents = [1] * len(pscheme.graph.files)
    # the floats at and either side of each row edge below 1/2
    edges = [e for e in accumulate(map(pscheme.p, pscheme.rows))
             if e < Fraction(1, 2)]
    near = [x for e in edges for x in (math.nextafter(float(e), 0),
                                       float(e), math.nextafter(float(e), 1))]
    rng, ref_rng, probe = (_OffGridRandom(5) for _ in range(3))
    rng.near = ref_rng.near = probe.near = near
    got = run_probabilistic_trials(pscheme, contents, mode="sample",
                                   trials=600, rng=rng)
    want = reference_sample_trials(pscheme, contents, 600, ref_rng)
    assert got == want
    assert rng.getstate() == ref_rng.getstate()
    draws = [probe.random() for _ in range(600)]
    assert sum(not (x * 2 ** 53).is_integer() for x in draws) > 300


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
        "1734387b1c85f44b800f2707c88dbca2289c44a74d0283ca2859c4a9d6c01570",
    (4, "9"):
        "8e03ebd4933b8bb0b2b4ae71c4100abfb4f7836f5a513f3f995af2bf0989113a",
}

# the same runs on the merged transform document, as written
SIMULATE_K4_MERGED_SHA256 = {
    (0, "0"):
        "3607aac70a97ff6d91dfd435b3e1780e033c29c0db6058dca4ae7dd3f93aa80f",
    (4, "9"):
        "0023df17d773fbe645889318465d557e865f065556ef33c25116ff0361b62740",
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

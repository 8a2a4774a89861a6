"""End-to-end simulation and privacy audits."""

import random
from fractions import Fraction as F

import pytest

from pirlab.builder import build_scheme
from pirlab.errors import ParameterError
from pirlab.general import build_general_query
from pirlab.graphs import Graph, make_graph
from pirlab.patterns import IndependenceError
from pirlab.scheme import Summation
from pirlab.sequences import rate
from pirlab.sim import (
    Storage,
    privacy_audit,
    random_permutations,
    random_storage,
    run_deterministic_trial,
    run_probabilistic_trials,
)
from pirlab.transform import transform

from conftest import row_at


# ============================================================
# deterministic trials
# ============================================================

def test_k3_deterministic_trial():
    s = build_scheme(3)
    rng = random.Random(11)
    storage = random_storage(s.graph, q=2, L=s.L, rng=rng)
    report = run_deterministic_trial(s, storage)
    assert report.ok
    assert report.downloaded_symbols == 12
    assert report.measured_rate == F(1, 2)
    assert report.recovered == storage.contents[s.theta]


@pytest.mark.parametrize("theta", range(6))
def test_k4_trials_with_permutations(theta):
    s = build_scheme(4, theta)
    rng = random.Random(100 + theta)
    storage = random_storage(s.graph, q=5, L=s.L, rng=rng)
    perms = random_permutations(s.graph, s.L, rng)
    assert any(p != tuple(range(1, s.L + 1)) for p in perms.values())
    report = run_deterministic_trial(s, storage, perms)
    assert report.ok
    assert report.downloaded_symbols == 240
    assert report.measured_rate == F(7, 20)
    assert report.recovered == storage.contents[theta]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_trial_recovers_through_the_rows_alone(n):
    # a copy of the scheme, analyzed afresh, gives the same report for the
    # same storage and permutations
    for theta in range(n * (n - 1) // 2):
        s = build_scheme(n, theta)
        rng = random.Random(theta)
        storage = random_storage(s.graph, q=3, L=s.L, rng=rng)
        perms = random_permutations(s.graph, s.L, rng)
        report = run_deterministic_trial(s, storage, perms)
        assert report.ok
        assert run_deterministic_trial(s.replace(), storage, perms) == report


def test_trial_detects_corruption():
    s = build_scheme(3)
    rng = random.Random(3)
    storage = random_storage(s.graph, q=251, L=s.L, rng=rng)
    bad = dict(s.queries)
    rows = list(bad[3])
    rows[0] = Summation(((1, 2, 1),))  # wrong subfile at server 3
    bad[3] = tuple(rows)
    with pytest.raises(IndependenceError):
        run_deterministic_trial(s.replace(queries=bad), storage)


@pytest.mark.parametrize("symbol,shown", [
    (1.0, "1.0"), (True, "True"), (5, "5"), (-1, "-1")],
    ids=["float", "bool", "q", "negative"])
def test_storage_symbols_are_ints_below_q(symbol, shown):
    graph = make_graph("complete", [3])
    contents = [[0, 1, 2], [4, 3, 2], [1, 1, 1]]
    assert Storage(graph, q=5, L=3, contents=contents).contents == \
        ((0, 1, 2), (4, 3, 2), (1, 1, 1))
    contents[1][2] = symbol
    with pytest.raises(ParameterError) as exc:
        Storage(graph, q=5, L=3, contents=contents)
    assert str(exc.value) == \
        f"file 1 holds symbol {shown}; symbols must be ints in 0..4"


@pytest.mark.parametrize("contents,L,message", [
    ([[0], [0]], 1, "storage must hold one row per file"),
    ([[0], [0, 1], [0]], 1, "every file must split into exactly 1 subfiles"),
], ids=["row-count", "row-length"])
def test_storage_shape(contents, L, message):
    with pytest.raises(ParameterError) as exc:
        Storage(make_graph("complete", [3]), q=2, L=L, contents=contents)
    assert str(exc.value) == message


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("L", [0, 1, 7, 33, 336])
def test_random_storage_matches_per_symbol_draws(q, L):
    graph = make_graph("complete", [4])
    for seed in (0, 1, 2):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        storage = random_storage(graph, q, L, rng)
        assert storage.contents == tuple(
            tuple(ref_rng.randrange(q) for _ in range(L))
            for _ in graph.files)
        assert rng.getstate() == ref_rng.getstate()
        assert rng.random() == ref_rng.random()


def _with_row(scheme, row):
    """`scheme` with server 1's first row replaced by `row`."""
    rows = list(scheme.queries[1])
    rows[0] = Summation(row)
    return scheme.replace(queries={**scheme.queries, 1: tuple(rows)})


@pytest.mark.parametrize("case,message", [
    ("subfile", "a row asks for subfile 7 of file 0, which storage does "
                "not hold"),
    ("short-storage", "a row asks for subfile 4 of file 0, which storage "
                      "does not hold"),
    ("file", "a row asks for subfile 1 of file 99, which storage does not "
             "hold"),
    ("perms", "a row asks for subfile 1 of file 0, which storage does not "
              "hold"),
])
def test_trial_refuses_a_symbol_storage_lacks(case, message):
    s = build_scheme(3)  # L = 6; server 1 stores files 0 and 1
    rng = random.Random(5)
    L = 3 if case == "short-storage" else s.L
    storage = random_storage(s.graph, 2, L, rng)
    perms = random_permutations(s.graph, L, rng)
    assert all(p != tuple(range(1, L + 1)) for p in perms.values())
    if case == "subfile":
        s = _with_row(s, ((0, 7, 1),))
    elif case == "short-storage":
        s = _with_row(s, ((0, 4, 1),))
    elif case == "file":
        s = _with_row(s, ((1, 1, 1), (99, 1, 1)))
    else:
        del perms[0]
        s = _with_row(s, ((0, 1, 1),))
    with pytest.raises(ParameterError) as exc:
        run_deterministic_trial(s, storage, perms)
    assert str(exc.value) == message


_NOT_A_PERMUTATION = ("^the subfile permutation of file 1 is not a "
                      "permutation of 1..6$")


@pytest.mark.parametrize("L,entries,message", [
    (3, None, "which storage does not hold$"),
    (9, None, "^storage splits each file into 9 subfiles, the scheme "
              "into 6$"),
    (6, (1, 2, 3, 4, 5, 7), _NOT_A_PERMUTATION),
    (6, (0, 1, 2, 3, 4, 5), _NOT_A_PERMUTATION),
    (6, (1, 1, 2, 3, 4, 5), _NOT_A_PERMUTATION),
    (6, (1, 2, 3, 4, 5), _NOT_A_PERMUTATION),
    (6, (1.0, 2, 3, 4, 5, 6), _NOT_A_PERMUTATION),
    (6, (True, 2, 3, 4, 5, 6), _NOT_A_PERMUTATION),
], ids=["short-storage", "long-storage", "past-L", "zero", "repeat",
        "short-permutation", "float", "bool"])
def test_trial_refuses_storage_or_permutations_off_the_scheme(L, entries,
                                                              message):
    s = build_scheme(3)  # L = 6
    rng = random.Random(4)
    storage = random_storage(s.graph, 2, L, rng)
    perms = None
    if entries is not None:
        perms = random_permutations(s.graph, L, rng)
        perms[1] = entries
    with pytest.raises(ParameterError, match=message) as exc:
        run_deterministic_trial(s, storage, perms)
    assert "\n" not in str(exc.value)


# ============================================================
# probabilistic trials
# ============================================================

def test_exact_probabilistic_rates(k3_scheme, star4_scheme):
    rng = random.Random(0)
    for det, expected in ((k3_scheme, F(1, 2)), (star4_scheme, F(5, 12))):
        p = transform(det)
        contents = [rng.randrange(2) for _ in det.graph.edges]
        report = run_probabilistic_trials(p, contents, mode="exact")
        assert report.ok
        assert report.rate == expected


@pytest.mark.parametrize("n", [3, 4])
def test_exact_rate_matches_deterministic(n):
    p = transform(build_scheme(n))
    contents = [1] * len(p.graph.edges)
    report = run_probabilistic_trials(p, contents, mode="exact")
    assert report.ok
    assert report.rate == rate(n)


@pytest.mark.parametrize("contents,shown", [
    ([0.9, 1.7, True], "0.9"), (["1", 0, 0], "'1'"), ([-1, 0, 0], "-1"),
    ([True, 0, 0], "True")], ids=["float", "str", "negative", "bool"])
def test_probabilistic_contents_are_ints(contents, shown):
    # int() would truncate these to symbols the rows recover
    with pytest.raises(ParameterError) as exc:
        run_probabilistic_trials(transform(build_scheme(3)), contents)
    assert str(exc.value) == \
        f"contents holds symbol {shown}; symbols must be ints in 0..inf"


@pytest.mark.parametrize("contents,mode,message", [
    ([1, 0], "exact", "contents must hold one symbol per file"),
    ([1, 0, 1], "fast", "unknown trial mode 'fast'"),
], ids=["contents-length", "mode"])
def test_probabilistic_trial_arguments(k3_scheme, contents, mode, message):
    with pytest.raises(ParameterError) as exc:
        run_probabilistic_trials(transform(k3_scheme), contents, mode=mode)
    assert str(exc.value) == message


def test_sampled_probabilistic_trials(k3_scheme):
    p = transform(k3_scheme)
    contents = [1, 0, 1]
    r1 = run_probabilistic_trials(p, contents, mode="sample", trials=2000,
                                  rng=random.Random(42))
    r2 = run_probabilistic_trials(p, contents, mode="sample", trials=2000,
                                  rng=random.Random(42))
    assert r1.ok
    assert r1 == r2
    assert abs(float(r1.rate) - 0.5) < 0.05


def test_probabilistic_scheme_rejects_bad_mass(k3_scheme):
    p = transform(k3_scheme)
    rows = p.rows
    with pytest.raises(ParameterError, match="sum to 5/6, not 1"):
        p._replace(rows=rows[:-1])
    with pytest.raises(ParameterError, match="sum to 0, not 1"):
        p._replace(rows=())
    flipped = (rows[0]._replace(mass=-rows[0].mass),
               rows[1]._replace(mass=rows[1].mass + 2 * rows[0].mass))
    with pytest.raises(ParameterError, match="row 0 has negative"):
        p._replace(rows=flipped + rows[2:])


@pytest.mark.parametrize("trials", [-3, 2.5, True])
def test_sampling_needs_positive_trials(k3_scheme, pendant_triangle,
                                        trials):
    p = transform(k3_scheme)
    with pytest.raises(ParameterError, match="positive integer"):
        run_probabilistic_trials(p, [1, 0, 1], mode="sample", trials=trials,
                                 rng=random.Random(1))
    family = {theta: pendant_triangle for theta in range(4)}
    with pytest.raises(ParameterError, match="positive integer"):
        privacy_audit(family, mode="statistical", trials=trials,
                      rng=random.Random(1))
    with pytest.raises(ParameterError, match="needs trials and rng"):
        privacy_audit(family, mode="statistical", trials=0,
                      rng=random.Random(1))


# ============================================================
# privacy audits
# ============================================================

def test_structural_audit_passes_for_builder_family():
    schemes = {theta: build_scheme(4, theta) for theta in range(6)}
    report = privacy_audit(schemes, mode="structural")
    assert report.ok


def test_structural_audit_catches_missing_row():
    schemes = {theta: build_scheme(3, theta) for theta in range(3)}
    s = schemes[0]
    bad = dict(s.queries)
    bad[1] = tuple(bad[1])[:-1]
    schemes[0] = s.replace(queries=bad)
    report = privacy_audit(schemes, mode="structural")
    assert not report.ok


def test_structural_audit_counts_a_repeated_file():
    # a row summing two subfiles of file 0 differs from one summing one
    schemes = {theta: build_scheme(3, theta) for theta in range(3)}
    s = schemes[0]
    row = row_at(s.queries[1], 0)
    assert row.files == (0,)
    other = row.terms[0][1] % s.L + 1
    schemes[0] = _with_row(s, row.terms + ((0, other, 1),))
    assert not privacy_audit(schemes, mode="structural").ok


def test_distributional_audit_on_transforms():
    schemes = {theta: transform(build_scheme(3, theta)) for theta in range(3)}
    report = privacy_audit(schemes, mode="distributional")
    assert report.ok
    # move the last row's mass onto the first: still a distribution, but
    # no longer the same one at every server
    rows = schemes[0].rows
    heavier = rows[0]._replace(mass=rows[0].mass + rows[-1].mass)
    schemes[0] = schemes[0]._replace(rows=(heavier,) + rows[1:-1])
    assert not privacy_audit(schemes, mode="distributional").ok


def test_distributional_audit_on_general(pendant_triangle):
    zeros = (0,) * 4
    schemes = {theta: build_general_query(pendant_triangle, theta, zeros, zeros)
               for theta in range(4)}
    report = privacy_audit(schemes, mode="distributional")
    assert report.ok


def test_distributional_audit_reads_each_member_s_own_q(pendant_triangle):
    zeros = (0,) * 4
    schemes = {theta: build_general_query(pendant_triangle, theta, zeros,
                                          zeros, q=3 if theta else 2)
               for theta in range(4)}
    report = privacy_audit(schemes, mode="distributional", q=3)
    assert not report.ok and report.max_deviation > 0


@pytest.mark.parametrize("epsilon", [0, -1, float("nan"), float("inf")])
def test_statistical_audit_needs_a_finite_positive_epsilon(pendant_triangle,
                                                           epsilon):
    schemes = {theta: pendant_triangle for theta in range(4)}
    with pytest.raises(ParameterError, match="^epsilon must be a finite "
                                             "number > 0, got "):
        privacy_audit(schemes, mode="statistical", trials=10,
                      rng=random.Random(1), epsilon=epsilon)


def test_statistical_audit(pendant_triangle):
    schemes = {theta: pendant_triangle for theta in range(4)}
    report = privacy_audit(schemes, mode="statistical", trials=20000,
                           rng=random.Random(9))
    assert report.ok
    assert report.max_deviation < report.epsilon
    assert report.max_deviation < 0.05


def test_statistical_audit_catches_wrong_family(pendant_triangle):
    other = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    schemes = {0: other, 1: pendant_triangle,
               2: pendant_triangle, 3: pendant_triangle}
    report = privacy_audit(schemes, mode="statistical", trials=4000,
                           rng=random.Random(5))
    assert not report.ok


def test_audit_mode_validation(k3_scheme):
    with pytest.raises(Exception):
        privacy_audit({0: k3_scheme}, mode="nope")

"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run `pytest -v tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from pirlab.bounds import (
    bounds_table,
    render_table,
    upper_bound_balanced_bipartite,
    upper_bound_complete,
)
from pirlab.builder import build_scheme, verify_scheme
from pirlab.cli import main
from pirlab.general import (
    answer_distribution,
    answers,
    build_general_query,
    general_rate,
)
from pirlab.graphs import Graph, make_graph
from pirlab.patterns import IndependenceError, check_independence, extract_patterns
from pirlab.scheme import Summation
from pirlab.sequences import build_sequences, rate
from pirlab.sim import (
    privacy_audit,
    random_permutations,
    random_storage,
    run_deterministic_trial,
    run_probabilistic_trials,
)
from pirlab.transform import prob_rate, transform

from conftest import FIXTURES, load_json, load_scheme, row_at
from reference_scheme import class_counts
from reference_sequences import closed_form_x


def _report(num, name, ok):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")


# ------------------------------------------------------------
# 1. bounds table for complete graphs, n = 3..10
# ------------------------------------------------------------

def test_criterion_01_bounds_table():
    ok = False
    t0 = time.monotonic()
    try:
        uppers = ["0.50000", "0.35294", "0.27907", "0.23211",
                  "0.19890", "0.17403", "0.15469", "0.13922"]
        lowers = ["0.50000", "0.35000", "0.27541", "0.22868",
                  "0.19583", "0.17111", "0.15198", "0.13657"]
        table = bounds_table(3, 10)
        assert [row.upper_str for row in table] == uppers
        assert [row.lower_str for row in table] == lowers
        csv = render_table(table, "csv")
        for u, l in zip(uppers, lowers):
            assert f",{u},{l}," in csv
        assert time.monotonic() - t0 < 1.0
        ok = True
    finally:
        _report(1, "bounds table n=3..10", ok)


# ------------------------------------------------------------
# 2. asymptotic coefficients
# ------------------------------------------------------------

def test_criterion_02_asymptotics():
    ok = False
    t0 = time.monotonic()
    try:
        assert abs(float(60 * upper_bound_complete(60)) - 1.3922) < 1e-3
        assert abs(float(60 * upper_bound_balanced_bipartite(60)) - 1.5415) < 1e-3
        for n in range(3, 41):
            assert n * rate(n) >= F(13, 10)
        assert time.monotonic() - t0 < 30.0
        ok = True
    finally:
        _report(2, "asymptotic coefficients", ok)


# ------------------------------------------------------------
# 3. four-server complete-graph scheme
# ------------------------------------------------------------

def test_criterion_03_k4_scheme():
    ok = False
    try:
        s = build_scheme(4)
        assert s.L == 84
        assert all(len(qs) == 60 for qs in s.queries.values())
        assert F(s.L, sum(len(qs) for qs in s.queries.values())) == F(7, 20)
        steps = {step: sum(v.values()) for step, v in class_counts(s).items()}
        assert steps == {1: 8, 2: 40, 3: 36}
        assert class_counts(s)[3] == {"alpha": 16, "beta": 2, "gamma": 18}
        assert verify_scheme(s).ok
        for theta in range(6):
            st = build_scheme(4, theta)
            assert verify_scheme(st).ok
            rng = random.Random(1000 + theta)
            for _ in range(100):
                storage = random_storage(st.graph, q=2, L=st.L, rng=rng)
                perms = random_permutations(st.graph, st.L, rng)
                rep = run_deterministic_trial(st, storage, perms)
                assert rep.ok and rep.recovered == storage.contents[theta]
        ok = True
    finally:
        _report(3, "K4 deterministic scheme", ok)


# ------------------------------------------------------------
# 4. closed form equals recurrence
# ------------------------------------------------------------

def test_criterion_04_closed_form():
    ok = False
    try:
        for n in range(3, 13):
            led = build_sequences(n)
            for k in range(1, n):
                assert closed_form_x(n, k) == led.x[k]
        ok = True
    finally:
        _report(4, "closed form x_k", ok)


# ------------------------------------------------------------
# 5. pattern extraction and independence checking
# ------------------------------------------------------------

def _mutated(scheme, server, index, new_terms):
    rows = list(scheme.queries[server])
    rows[index] = Summation(new_terms)
    return scheme.replace(queries={**scheme.queries, server: rows})


def test_criterion_05_patterns():
    ok = False
    try:
        k3 = load_scheme("k3_scheme.json")
        ex = extract_patterns(k3)
        assert len(ex.patterns) == 6 and ex.side_info == ()
        grouping = {p.target: {srv: row_at(k3.queries[srv], i).terms
                               for srv, i in p.selections.items()}
                    for p in ex.patterns}
        assert grouping[5] == {1: ((0, 5, 1), (1, 2, 1)),
                               2: ((2, 2, 1),),
                               3: ((1, 2, 1), (2, 2, 1))}
        star = load_scheme("star4_scheme.json")
        exs = extract_patterns(star)
        assert len(exs.patterns) == 5
        srv, idx = exs.side_info[0]
        assert row_at(star.queries[srv], idx).terms == \
            ((1, 3, 1), (2, 3, 1), (3, 3, 1))
        assert check_independence(k3).ok and check_independence(star).ok

        cases = [
            (_mutated(k3, 3, 2, [[1, 1, 1], [2, 2, 1]]), 2),
            (_mutated(k3, 1, 3, [[0, 3, 1], [1, 2, 1]]), 3),
            (load_scheme("two_per_server.json"), 4),
            (_mutated(star, 1, 3, [[1, 3, 1], [1, 4, 1], [3, 3, 1]]), 1),
        ]
        for bad, condition in cases:
            rep = check_independence(bad)
            assert not rep.ok
            assert condition in {v.condition for v in rep.violations}
        ok = True
    finally:
        _report(5, "extraction and independence", ok)


# ------------------------------------------------------------
# 6. probabilistic transform
# ------------------------------------------------------------

def test_criterion_06_transform():
    ok = False
    try:
        k3 = transform(load_scheme("k3_scheme.json"))
        assert len(k3.rows) == 6
        assert all(k3.p(row) == F(1, 6) for row in k3.rows)
        star = transform(load_scheme("star4_scheme.json"))
        assert prob_rate(star) == F(5, 12)
        rc = main(["transform", "--scheme",
                   str(FIXTURES / "star_center_heavy.json")])
        assert rc == 3
        for n in (3, 4, 5):
            assert prob_rate(transform(build_scheme(n))) == rate(n)
        ok = True
    finally:
        _report(6, "probabilistic transform", ok)


# ------------------------------------------------------------
# 7. randomized general scheme on K3
# ------------------------------------------------------------

def test_criterion_07_general_k3():
    ok = False
    try:
        g = make_graph("complete", [3])
        contents = [5, 99, 250]
        for theta in range(3):
            for mu in itertools.product((0, 1), repeat=3):
                for lam in itertools.product((0, 1), repeat=3):
                    s = build_general_query(g, theta, mu, lam, q=257)
                    from pirlab.general import reconstruct
                    assert reconstruct(s, answers(s, contents)) == contents[theta]
        for srv in (1, 2, 3):
            base = answer_distribution(g, 0, srv, q=257)
            assert all(answer_distribution(g, t, srv, q=257) == base
                       for t in (1, 2))
        assert general_rate(g) == F(4, 9)

        pend = Graph.from_json(load_json("pendant_triangle.json"))
        s = build_general_query(pend, 0, (1, 0, 1, 0), (0, 1, 0, 1), q=257)
        assert s.queries == {1: ((0, 1),), 2: ((2, 1),), 3: ((2, -1),), 4: ()}
        s = build_general_query(pend, 2, (1, 1, 0, 1), (0, 0, 0, 1), q=257)
        assert s.queries == {1: ((0, 1), (1, 1), (3, -1)), 2: ((0, -1),),
                             3: ((1, -1), (2, -1)), 4: ((3, 1),)}
        s = build_general_query(pend, 0, (0,) * 4, (0,) * 4, q=257)
        assert s.queries == {1: (), 2: ((0, -1),), 3: (), 4: ()}
        ok = True
    finally:
        _report(7, "general randomized scheme", ok)


# ------------------------------------------------------------
# 8. multigraph replication rates
# ------------------------------------------------------------

def test_criterion_08_multigraph():
    ok = False
    try:
        k3 = make_graph("complete", [3])
        assert general_rate(k3.extend(2)) == F(16, 45) > F(1, 3)
        for n in range(3, 9):
            g = make_graph("complete", [n])
            for r in (1, 2, 3):
                gr = g.extend(r) if r > 1 else g
                assert F(8, 9) / n <= F(1, n) <= general_rate(gr)
        ok = True
    finally:
        _report(8, "multigraph replication", ok)


# ------------------------------------------------------------
# 9. full round trip
# ------------------------------------------------------------

def test_criterion_09_round_trip():
    ok = False
    t0 = time.monotonic()
    try:
        for n in (3, 4, 5):
            s = build_scheme(n)
            ex = extract_patterns(s)
            builder_sets = {frozenset((srv, row_at(s.queries[srv], i).terms)
                                      for srv, i in p.selections.items())
                            for p in s.patterns}
            extract_sets = {frozenset((srv, row_at(s.queries[srv], i).terms)
                                      for srv, i in p.selections.items())
                            for p in ex.patterns}
            assert builder_sets == extract_sets
            assert sorted(ex.side_info) == sorted(s.side_info)
            p = transform(s)
            assert prob_rate(p) == rate(n)
            contents = [kk % 2 for kk in range(len(s.graph.edges))]
            rep = run_probabilistic_trials(p, contents, mode="exact")
            assert rep.ok and rep.rate == rate(n)
            family = {theta: build_scheme(n, theta)
                      for theta in range(len(s.graph.edges))}
            assert privacy_audit(family, mode="structural").ok
        assert time.monotonic() - t0 < 120.0
        ok = True
    finally:
        _report(9, "round trip build/extract/transform/simulate", ok)


# ------------------------------------------------------------
# 10. statistical privacy audit
# ------------------------------------------------------------

def test_criterion_10_statistical_audit():
    ok = False
    try:
        pend = Graph.from_json(load_json("pendant_triangle.json"))
        schemes = {theta: pend for theta in range(4)}
        report = privacy_audit(schemes, mode="statistical", trials=100_000,
                               rng=random.Random(20260814))
        assert report.ok
        assert report.max_deviation < 0.02
        ok = True
    finally:
        _report(10, "statistical privacy audit", ok)

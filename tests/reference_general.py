"""Reference randomized-query code for the differential tests.

These are the direct forms that `pirlab.general` and `pirlab.sim` replace:
the 4^degree enumeration of one server's answer distribution, the
distributional audit that sums and compares those distributions as
`Fraction`s, the linear scan that picks a probabilistic row for each draw
by its `Fraction` probability and checks it on every storage that holds a
single 1, and the statistical audit that draws each (mu, lam) bit with its
own randrange(2), builds every server's query for it and sums `Fraction`
frequencies.  Tests compare the package against them on the same inputs
and seeds, down to the RNG state afterwards.
"""

import math
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product

from pirlab.errors import ParameterError
from pirlab.graphs import Graph
from pirlab.scheme import ProbabilisticScheme
from pirlab.sim import AuditReport, ProbTrialReport


def _sign(at_lower, lam_bit, q):
    if q == 2:
        return 1
    return (-1) ** lam_bit if at_lower else (-1) ** (lam_bit + 1)


def _include(fid, theta, at_lower, mu_bit):
    if fid == theta:
        return mu_bit == 1 if at_lower else mu_bit == 0
    return mu_bit == 1


def reference_queries(graph, theta, mu, lam, q=2):
    """Per-server query combos for explicit bits, as the package built them."""
    queries = {v: [] for v in graph.servers}
    for fid in graph.files:
        lo, hi = graph.endpoints(fid)
        for v, at_lower in ((lo, True), (hi, False)):
            if _include(fid, theta, at_lower, mu[fid]):
                queries[v].append((fid, _sign(at_lower, lam[fid], q)))
    return {v: tuple(sorted(combo)) for v, combo in queries.items()}


def reference_distribution(graph, theta, server, q=2):
    """Enumerate the 4^degree joint values of the incident bits."""
    incident = graph.incident(server)
    dist = {}
    weight = Fraction(1, 4) ** len(incident)
    for assignment in product(range(4), repeat=len(incident)):
        combo = []
        for fid, code in zip(incident, assignment):
            mu_bit, lam_bit = code >> 1, code & 1
            lo, _hi = graph.endpoints(fid)
            at_lower = server == lo
            if _include(fid, theta, at_lower, mu_bit):
                combo.append((fid, _sign(at_lower, lam_bit, q)))
        key = tuple(sorted(combo))
        dist[key] = dist.get(key, Fraction(0)) + weight
    return dist


def _xor(values):
    out = 0
    for v in values:
        out ^= v
    return out


def reference_sample_trials(pscheme, contents, trials, rng):
    """Sample mode of `run_probabilistic_trials`, one linear scan per draw.
    The verdict does not read `contents`: XOR is linear, so a row that
    recovers from each storage holding a single 1 recovers from all."""
    files = pscheme.graph.files

    def recovers(row):
        for one in files:
            unit = [int(f == one) for f in files]
            value = _xor(_xor(unit[f] for f, _sign in row.q[srv])
                         for srv in row.pattern_servers)
            if value != unit[pscheme.theta]:
                return False
        return True

    cumulative = []
    acc = Fraction(0)
    for row in pscheme.rows:
        acc += pscheme.p(row)
        cumulative.append((acc, row))
    ok = True
    answered = 0
    for _ in range(trials):
        draw = rng.random()
        row = next(r for edge, r in cumulative if draw < edge)
        ok = ok and recovers(row)
        answered += sum(1 for combo in row.q.values() if combo is not None)
    return ProbTrialReport(ok=ok, mode="sample",
                           rate=Fraction(trials, answered), trials=trials)


def _tv(d1, d2):
    keys = set(d1) | set(d2)
    return sum(abs(d1.get(k, 0) - d2.get(k, 0)) for k in keys) / 2


def reference_distributional_audit(schemes, q=2):
    """Distributional mode of `privacy_audit`: each member's per-server
    distribution in Fractions, compared with the first member's."""
    thetas = sorted(schemes)
    dists = {}
    for theta in thetas:
        s = schemes[theta]
        if isinstance(s, ProbabilisticScheme):
            per = {}
            for srv in s.graph.servers:
                d = defaultdict(Fraction)
                for row in s.rows:
                    combo = row.q.get(srv)
                    d[() if combo is None else combo] += s.p(row)
                per[srv] = dict(d)
        else:
            graph, desired, size = (s, theta, q) if isinstance(s, Graph) \
                else (s.graph, s.theta, s.q)
            per = {srv: reference_distribution(graph, desired, srv, q=size)
                   for srv in graph.servers}
        dists[theta] = per
    worst = Fraction(0)
    for t in thetas[1:]:
        for srv in dists[thetas[0]]:
            worst = max(worst, _tv(dists[t].get(srv, {}),
                                   dists[thetas[0]][srv]))
    return AuditReport(ok=worst == 0, mode="distributional",
                       max_deviation=worst)


def reference_combo_counts(graph, theta, trials, rng, q=2):
    """Each server's Counter of query combos over `trials` queries, each
    drawn with 2m per-call randrange(2) (mu, then lam) and built whole."""
    m = len(graph.edges)
    per = defaultdict(Counter)
    for _ in range(trials):
        mu = tuple(rng.randrange(2) for _ in range(m))
        lam = tuple(rng.randrange(2) for _ in range(m))
        queries = reference_queries(graph, theta, mu, lam, q=q)
        for srv, combo in queries.items():
            per[srv][combo] += 1
    return dict(per)


def reference_statistical_audit(schemes, trials, rng, q=2, epsilon=None):
    """Statistical mode of `privacy_audit`, one full query per sample."""
    if not trials or rng is None:
        raise ParameterError("statistical mode needs trials and rng")
    thetas = sorted(schemes)
    empirical = {}
    support = defaultdict(set)
    for theta in thetas:
        per = reference_combo_counts(schemes[theta], theta, trials, rng, q=q)
        empirical[theta] = {
            srv: {combo: Fraction(cnt, trials)
                  for combo, cnt in counter.items()}
            for srv, counter in per.items()}
        for srv, counter in per.items():
            support[srv] |= set(counter)
    if epsilon is None:
        widest = max(len(combos) for combos in support.values())
        epsilon = 3 * math.sqrt(math.log(2 * widest) / trials)
    worst = 0.0
    for i, t1 in enumerate(thetas):
        for t2 in thetas[i + 1:]:
            servers = set(empirical[t1]) | set(empirical[t2])
            for srv in servers:
                worst = max(worst, float(_tv(
                    empirical[t1].get(srv, {}),
                    empirical[t2].get(srv, {}))))
    return AuditReport(ok=worst < epsilon, mode="statistical",
                       max_deviation=worst, epsilon=epsilon)

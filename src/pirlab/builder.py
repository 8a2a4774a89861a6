"""Deterministic scheme construction on complete graphs.

The build walks steps k = 1..n-1.  Step 1 emits direct requests; step k
emits four pattern classes per desired endpoint i and helper set T:

  alpha  the desired server extends a fresh (k-1)-residual chain,
  beta   both endpoints participate and helpers pair up via a matching,
  gamma  both endpoints participate and every helper answers a fresh k-sum,
  zeta   one non-endpoint server contributes an all-overlap summation.

Bookkeeping invariant: after step k, every k-subset of the non-desired
files stored at a server accounts for exactly x_k * M summations of that
shape — some already materialized inside step-k patterns, the rest pooled
for later consumption (or, once the late-regime cap binds, left over as
side information).  Subfile subscripts come from global per-file pattern
counters: a pattern bumps the counter of every file it touches, and all
terms of that file inside the pattern share the new value.
"""

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InternalConsistencyError, ParameterError,
                     UnsupportedSizeError)
from .graphs import make_graph
from .scheme import DeterministicScheme, RecoveryPattern, Summation
from .sequences import BUILDER_CAP, build_sequences, step_ledger


def _as_int(value, what):
    if value.denominator != 1:
        raise InternalConsistencyError(f"non-integer {what}: {value}")
    return int(value)


def perfect_matchings(items):
    """All perfect matchings of an even-size tuple, deterministically ordered.

    Each matching is returned as a dict mapping every element to its partner.
    """
    items = tuple(sorted(items))
    if not items:
        return [{}]
    first, rest = items[0], items[1:]
    out = []
    for i, partner in enumerate(rest):
        remainder = rest[:i] + rest[i + 1:]
        for sub in perfect_matchings(remainder):
            m = {first: partner, partner: first}
            m.update(sub)
            out.append(m)
    return out


# ============================================================
# the builder
# ============================================================

def build_scheme(n, theta=0):
    if not isinstance(n, int) or n < 3:
        raise ParameterError(f"construction needs an integer n >= 3, got {n}")
    if n > BUILDER_CAP:
        raise UnsupportedSizeError(
            f"explicit construction is capped at n = {BUILDER_CAP}, got {n}")
    graph = make_graph("complete", [n])
    if not 0 <= theta < len(graph.edges):
        raise ParameterError(f"theta {theta} is not a file id of K_{n}")

    led = build_sequences(n)
    m = led.m_scale
    big_l = led.subpacketization
    t1, t2 = graph.endpoints(theta)
    helpers = tuple(v for v in graph.servers if v not in (t1, t2))
    eid = graph.file_id

    queries = {v: [] for v in graph.servers}
    patterns = []
    sub = defaultdict(int)          # per-file pattern counter
    pool = defaultdict(int)         # (server, frozenset(files)) -> copies
    created = defaultdict(int)      # fresh non-desired rows, current step

    def materialize(server, files, psub):
        terms = tuple((f, psub[f], 1) for f in sorted(files))
        queries[server].append(Summation(terms))
        return len(queries[server]) - 1

    def emit(step, cls, new_rows, old_rows):
        files = set()
        for rows in (new_rows, old_rows):
            for fileset in rows.values():
                files |= set(fileset)
        psub = {}
        for f in sorted(files):
            sub[f] += 1
            psub[f] = sub[f]
        selections = {}
        for server, fileset in new_rows.items():
            selections[server] = materialize(server, fileset, psub)
            if theta not in fileset:
                created[(server, frozenset(fileset))] += 1
        for server, fileset in old_rows.items():
            key = (server, frozenset(fileset))
            if pool[key] <= 0:
                raise InternalConsistencyError(
                    f"consumed missing type {sorted(fileset)} at server "
                    f"{server} in step {step} ({cls})")
            pool[key] -= 1
            selections[server] = materialize(server, fileset, psub)
        patterns.append(RecoveryPattern(target=psub[theta],
                                        selections=selections,
                                        step=step, pattern_class=cls))

    def settle_inventory(k):
        """After step k: pool the uncreated share of every size-k type."""
        quota = _as_int(led.x[k] * m, f"x_{k} M")
        for v in graph.servers:
            stored = [f for f in graph.incident(v) if f != theta]
            for combo in itertools.combinations(stored, k):
                key = (v, frozenset(combo))
                fresh = created.pop(key, 0)
                if fresh > quota:
                    raise InternalConsistencyError(
                        f"over-created type {sorted(combo)} at server {v}")
                pool[key] += quota - fresh
        if created:
            raise InternalConsistencyError(
                f"created rows outside the type inventory: {dict(created)}")

    # ---- step 1: direct requests -------------------------------------
    for copy in range(_as_int(led.x[1] * m, "x_1 M")):
        emit(1, "direct", {t1: {theta}}, {})
    for copy in range(_as_int(led.x[1] * m, "x_1 M")):
        emit(1, "direct", {t2: {theta}}, {})
    settle_inventory(1)

    # ---- steps 2..n-1 --------------------------------------------------
    by_k = {st.k: st for st in step_ledger(n)}
    for k in range(2, n):
        st = by_k[k]
        alpha_copies = _as_int(st.alpha_per * m, "alpha count")
        beta_copies = _as_int(st.beta_per * m, "beta count")
        gamma_copies = _as_int(st.gamma_per * m, "gamma count")
        zeta_copies = _as_int(st.zeta_per * m, "zeta count")

        # alpha: desired endpoint + helper chains
        for i, other in ((t1, t2), (t2, t1)):
            for tset in itertools.combinations(helpers, k - 1):
                for copy in range(alpha_copies):
                    new_rows = {i: {theta, *(eid(i, j) for j in tset)}}
                    old_rows = {
                        j: {eid(i, j), *(eid(j, s) for s in tset if s != j)}
                        for j in tset}
                    emit(k, "alpha", new_rows, old_rows)

        # beta: both endpoints + matched helpers
        if k >= 3 and beta_copies:
            for i, other in ((t1, t2), (t2, t1)):
                for tset in itertools.combinations(helpers, k - 1):
                    blues_other = {eid(other, j) for j in tset}
                    if k % 2:
                        for match in perfect_matchings(tset):
                            for copy in range(beta_copies):
                                new_rows = {
                                    i: {theta, *(eid(i, j) for j in tset)}}
                                old_rows = {other: set(blues_other)}
                                for j in tset:
                                    reds = {eid(j, s) for s in tset
                                            if s not in (j, match[j])}
                                    old_rows[j] = {eid(i, j), eid(other, j),
                                                   *reds}
                                emit(k, "beta", new_rows, old_rows)
                    else:
                        for j_star in tset:
                            others = tuple(j for j in tset if j != j_star)
                            for match in perfect_matchings(others):
                                for copy in range(beta_copies):
                                    new_rows = {
                                        i: {theta,
                                            *(eid(i, j) for j in tset)},
                                        j_star: {eid(i, j_star),
                                                 eid(other, j_star),
                                                 *(eid(j_star, s)
                                                   for s in others)}}
                                    old_rows = {other: set(blues_other)}
                                    for j in others:
                                        reds = {eid(j, s) for s in tset
                                                if s not in (j, match[j])}
                                        old_rows[j] = {eid(i, j),
                                                       eid(other, j), *reds}
                                    emit(k, "beta", new_rows, old_rows)

        # gamma: both endpoints + fresh helper k-sums
        for i, other in ((t1, t2), (t2, t1)):
            for tset in itertools.combinations(helpers, k - 1):
                for copy in range(gamma_copies):
                    new_rows = {i: {theta, *(eid(i, j) for j in tset)}}
                    for j in tset:
                        new_rows[j] = {eid(i, j), eid(other, j),
                                       *(eid(j, s) for s in tset if s != j)}
                    old_rows = {other: {eid(other, j) for j in tset}}
                    emit(k, "gamma", new_rows, old_rows)

        # zeta: one overlap server outside the pattern's helper set
        if zeta_copies:
            for i, other in ((t1, t2), (t2, t1)):
                for tset in itertools.combinations(helpers, k - 1):
                    for j0 in (v for v in helpers if v not in tset):
                        for copy in range(zeta_copies):
                            new_rows = {i: {theta,
                                            *(eid(i, j) for j in tset)}}
                            for j in tset:
                                reds = {eid(j, s)
                                        for s in (j0, *tset) if s != j}
                                new_rows[j] = {eid(i, j), *reds}
                            old_rows = {j0: {eid(j0, j) for j in tset}}
                            emit(k, "zeta", new_rows, old_rows)

        if k <= n - 2:
            settle_inventory(k)
        elif created:
            created.clear()  # last step: nothing consumes size-(n-1) types

    # ---- leftovers become side information -----------------------------
    side_info = []
    next_sub = {}
    for v in graph.servers:
        per_file = defaultdict(int)
        for row in queries[v]:
            for f, s, _ in row.terms:
                per_file[f] = max(per_file[f], s)
        for f, top in per_file.items():
            next_sub[(v, f)] = top
    for (v, fileset), count in sorted(pool.items(),
                                      key=lambda kv: (kv[0][0],
                                                      sorted(kv[0][1]))):
        for copy in range(count):
            terms = []
            for f in sorted(fileset):
                next_sub[(v, f)] = next_sub.get((v, f), 0) + 1
                terms.append((f, next_sub[(v, f)], 1))
            queries[v].append(Summation(tuple(terms)))
            side_info.append((v, len(queries[v]) - 1))

    # ---- final shape checks ---------------------------------------------
    if len(patterns) != big_l or sub[theta] != big_l:
        raise InternalConsistencyError(
            f"expected {big_l} patterns, emitted {len(patterns)}")

    return DeterministicScheme(
        graph=graph, theta=theta, L=big_l,
        queries={v: tuple(rows) for v, rows in queries.items()},
        patterns=tuple(patterns), side_info=tuple(side_info))


# ============================================================
# reporting and verification
# ============================================================

def class_counts(scheme):
    """Pattern tallies as {step: {class: count}}."""
    out = {}
    for p in scheme.patterns or ():
        out.setdefault(p.step, Counter())[p.pattern_class] += 1
    return {step: dict(counter) for step, counter in sorted(out.items())}


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple


def verify_scheme(scheme):
    """Structural verification of a built scheme.

    Checks the independence conditions, that extraction recovers a full
    pattern partition, the per-type multiplicity invariant, and the even
    split of desired rows across the two endpoints.
    """
    from .patterns import analyze

    problems = []
    n = scheme.graph.n
    led = build_sequences(n) if n <= BUILDER_CAP else None

    if not scheme.patterns:
        problems.append("scheme carries no recovery patterns")
    else:
        targets = sorted(p.target for p in scheme.patterns)
        if targets != list(range(1, scheme.L + 1)):
            problems.append("pattern targets do not cover 1..L exactly once")

    rep = analyze(scheme)[0]
    problems += [f"condition {v.condition}: {v.detail}"
                 for v in rep.violations]

    theta = scheme.theta
    t1, t2 = scheme.graph.endpoints(theta)
    desired = {t1: 0, t2: 0}
    type_counts = defaultdict(int)
    for v, rows in scheme.queries.items():
        for row in rows:
            files = row.files
            if theta in files:
                if v in desired:
                    desired[v] += 1
                else:
                    problems.append(f"desired term at non-endpoint server {v}")
            else:
                type_counts[(v, frozenset(files))] += 1
    if desired[t1] * 2 != scheme.L or desired[t2] * 2 != scheme.L:
        problems.append(f"desired rows split {desired}, expected "
                        f"{scheme.L // 2} per endpoint")

    if led is not None:
        m = led.m_scale
        for v in scheme.graph.servers:
            stored = [f for f in scheme.graph.incident(v) if f != theta]
            for k in range(1, n - 1):
                quota = int(led.x[k] * m)
                for combo in itertools.combinations(stored, k):
                    got = type_counts[(v, frozenset(combo))]
                    if got != quota:
                        problems.append(
                            f"type {sorted(combo)} at server {v} has {got} "
                            f"rows, expected {quota}")
        from .sequences import answer_count
        expected_rows = answer_count(n)
        for v in scheme.graph.servers:
            if len(scheme.queries[v]) != expected_rows:
                problems.append(
                    f"server {v} holds {len(scheme.queries[v])} rows, "
                    f"expected {expected_rows}")

    return VerifyReport(ok=not problems, violations=tuple(problems))

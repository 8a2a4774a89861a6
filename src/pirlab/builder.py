"""Deterministic scheme construction on complete graphs.

The build walks steps k = 1..n-1.  Step 1 emits direct requests; step k
emits four pattern classes per desired endpoint i and helper set T:

  alpha  the desired server extends a fresh (k-1)-residual chain,
  beta   both endpoints participate and helpers pair up via a matching,
  gamma  both endpoints participate and every helper answers a fresh k-sum,
  zeta   one non-endpoint server contributes an all-overlap summation.

One table drives steps 2..n-1: each class lists its variants for a helper
set T (beta: the helper left out of the matching and the matching; zeta:
the overlap server) and gives the rows one variant creates and consumes.
The loop builds those rows once per variant and emits them the ledger's
number of times, in class order alpha, beta, gamma, zeta.

Bookkeeping invariant: after step k, every k-subset of the non-desired
files stored at a server accounts for exactly x_k * M summations of that
shape — some already materialized inside step-k patterns, the rest pooled
for later consumption (or, once the late-regime cap binds, left over as
side information).  `_types` enumerates those (server, k-subset) types
once, for both the build's inventory and `verify_scheme`'s quota check.
Subfile subscripts come from global per-file pattern counters, in
emission order: a pattern bumps the counter of every file it touches, and
all terms of that file inside the pattern share the new value.
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
    """All perfect matchings of a tuple, deterministically ordered.

    Each matching is returned as a dict mapping every element to its partner.
    An odd-size tuple has none, so the list is empty.
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


def _types(graph, theta, k):
    """Each (server, size-k set of the non-desired files it stores)."""
    for v in graph.servers:
        stored = [f for f in graph.incident(v) if f != theta]
        for combo in itertools.combinations(stored, k):
            yield v, frozenset(combo)


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
        for key in _types(graph, theta, k):
            fresh = created.pop(key, 0)
            if fresh > quota:
                raise InternalConsistencyError(
                    f"over-created type {sorted(key[1])} at server {key[0]}")
            pool[key] += quota - fresh
        if created:
            raise InternalConsistencyError(
                f"created rows outside the type inventory: {dict(created)}")

    # ---- step 1: direct requests -------------------------------------
    for i in (t1, t2):
        for copy in range(_as_int(led.x[1] * m, "x_1 M")):
            emit(1, "direct", {i: {theta}}, {})
    settle_inventory(1)

    # ---- steps 2..n-1: one table of pattern classes --------------------
    # Every row is one server's sum over its edges to a set of servers; the
    # desired endpoint i's row holds theta, the edge (i, other).  A class
    # maps (i, other, T, variant) to the rows it creates fresh and the
    # pooled rows it consumes.
    def star(v, ends):
        return {eid(v, s) for s in ends if s != v}

    def alpha(i, other, tset, _):
        return ({i: star(i, (other, *tset))},
                {j: star(j, (i, *tset)) for j in tset})

    def beta(i, other, tset, variant):
        j_star, match = variant
        new_rows = {i: star(i, (other, *tset))}
        if j_star is not None:
            new_rows[j_star] = star(j_star, (i, other, *tset))
        old_rows = {other: star(other, tset)}
        for j in tset:
            if j != j_star:  # matched helpers drop the edge to their partner
                old_rows[j] = star(j, (i, other, *tset)) - {eid(j, match[j])}
        return new_rows, old_rows

    def beta_variants(tset):
        # (j*, matching): j* answers a fresh k-sum and the other helpers
        # pair up.  Odd-size sets have no perfect matching, so an even T
        # yields j* = None only and an odd T yields each j* in T.
        return [(j_star, match) for j_star in (None, *tset)
                for match in perfect_matchings(
                    tuple(j for j in tset if j != j_star))]

    def gamma(i, other, tset, _):
        return ({i: star(i, (other, *tset)),
                 **{j: star(j, (i, other, *tset)) for j in tset}},
                {other: star(other, tset)})

    def zeta(i, other, tset, j0):
        return ({i: star(i, (other, *tset)),
                 **{j: star(j, (i, j0, *tset)) for j in tset}},
                {j0: star(j0, tset)})

    classes = (
        ("alpha", alpha, lambda tset: (None,)),
        ("beta", beta, beta_variants),
        ("gamma", gamma, lambda tset: (None,)),
        ("zeta", zeta, lambda tset: [v for v in helpers if v not in tset]),
    )

    for st in step_ledger(n):
        k = st.k
        for cls, rows, variants in classes:
            copies = _as_int(getattr(st, f"{cls}_per") * m, f"{cls} count")
            if not copies:
                continue
            for i, other in ((t1, t2), (t2, t1)):
                for tset in itertools.combinations(helpers, k - 1):
                    for variant in variants(tset):
                        new_rows, old_rows = rows(i, other, tset, variant)
                        for copy in range(copies):
                            emit(k, cls, new_rows, old_rows)

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
    shapes = {v: Counter(frozenset(row.files) for row in rows)
              for v, rows in scheme.queries.items()}
    desired = {v: sum(c for files, c in shapes[v].items() if theta in files)
               for v in scheme.graph.endpoints(theta)}
    if any(count * 2 != scheme.L for count in desired.values()):
        problems.append(f"desired rows split {desired}, expected "
                        f"{scheme.L // 2} per endpoint")

    if led is not None:
        m = led.m_scale
        for k in range(1, n - 1):
            quota = int(led.x[k] * m)
            for v, files in _types(scheme.graph, theta, k):
                got = shapes[v][files]
                if got != quota:
                    problems.append(
                        f"type {sorted(files)} at server {v} has {got} "
                        f"rows, expected {quota}")
        from .sequences import answer_count
        expected_rows = answer_count(n)
        for v in scheme.graph.servers:
            if len(scheme.queries[v]) != expected_rows:
                problems.append(
                    f"server {v} holds {len(scheme.queries[v])} rows, "
                    f"expected {expected_rows}")

    return VerifyReport(ok=not problems, violations=tuple(problems))

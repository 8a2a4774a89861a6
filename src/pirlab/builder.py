"""Deterministic scheme construction on complete graphs.

The build walks steps k = 1..n-1.  Step 1 emits direct requests; step k
emits four pattern classes per desired endpoint i and helper set T:

  alpha  the desired server extends a fresh (k-1)-residual chain,
  beta   both endpoints participate and helpers pair up via a matching,
  gamma  both endpoints participate and every helper answers a fresh k-sum,
  zeta   one non-endpoint server contributes an all-overlap summation.

`class_plan` is the bookkeeping.  One table drives steps 2..n-1: each
class lists its variants for a helper set T (beta: the helper left out of
the matching and the matching; zeta: the overlap server) and gives the
rows one variant creates and consumes.  The plan returns the variants
`(step, cls, copies, new_rows, old_rows)` in emission order (class order
alpha, beta, gamma, zeta) with the ledger's copy count, and the pool of
rows no pattern consumed.  `build_scheme` only writes rows: those of
every copy, then the pool, which is left over as side information.

Bookkeeping invariant: after step k, every k-subset of the non-desired
files stored at a server accounts for exactly x_k * M summations of that
shape — some already materialized inside step-k patterns, the rest pooled
for later consumption (or, once the late-regime cap binds, left over as
side information).  `_types` enumerates those (server, k-subset) types
once and `_quota` gives x_k * M, for both the plan's inventory and
`verify_scheme`'s quota check.
Subfile subscripts come from global per-file pattern counters, in
emission order: a pattern bumps the counter of every file it touches, and
all terms of that file inside the pattern share the new value.  The top
subscript of each (server, file) is tracked as rows are written, and the
leftover side information continues from it.
"""

import itertools
from collections import defaultdict, namedtuple

from .errors import (InternalConsistencyError, ParameterError,
                     UnsupportedSizeError, check_theta)
from .graphs import make_graph
from .rows import Rows, row_shapes
from .scheme import DeterministicScheme
from .sequences import BUILDER_CAP, build_sequences, check_n, step_ledger


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
    """Each (server, sorted size-k tuple of the non-desired files it
    stores): the row shape `row_shapes` counts."""
    for v in graph.servers:
        stored = [f for f in graph.incident(v) if f != theta]
        for combo in itertools.combinations(stored, k):
            yield v, combo


def _quota(led, k):
    """x_k * M: the rows every size-k type holds once step k is done."""
    return _as_int(led.x[k] * led.m_scale, f"x_{k} M")


# ============================================================
# the builder
# ============================================================

def check_build_n(n):
    """`n` when the explicit construction reaches K_n, 3 <= n <= BUILDER_CAP;
    callers check it before they make anything of size n."""
    if check_n(n) > BUILDER_CAP:
        raise UnsupportedSizeError(
            f"explicit construction is capped at n = {BUILDER_CAP}, got {n}")
    return n


def class_plan(graph, theta, led):
    """The construction's class variants and its leftover rows.

    Returns `(variants, pool)`: every `(step, cls, copies, new_rows,
    old_rows)` in emission order, where the row dicts map a server to the
    sorted tuple of its files, and the pool mapping each (server, fileset)
    type to the copies no pattern consumed.  The inventory is checked as it is
    booked; a ledger that does not balance raises InternalConsistencyError.
    """
    m = led.m_scale
    t1, t2 = graph.endpoints(theta)
    helpers = tuple(v for v in graph.servers if v not in (t1, t2))
    # (server, server) -> file id; star() reads it ~400k times at n = 10
    eid = {}
    for f, (u, v) in enumerate(graph.edges):
        eid[u, v] = eid[v, u] = f
    variants = []
    pool = defaultdict(int)         # (server, fileset) -> copies
    created = defaultdict(int)      # fresh non-desired rows, current step

    def book(step, cls, copies, new_rows, old_rows):
        for server, fileset in new_rows.items():
            if theta not in fileset:
                created[(server, fileset)] += copies
        for server, fileset in old_rows.items():
            if pool[(server, fileset)] < copies:
                raise InternalConsistencyError(
                    f"consumed missing type {list(fileset)} at server "
                    f"{server} in step {step} ({cls})")
            pool[(server, fileset)] -= copies
        variants.append((step, cls, copies, new_rows, old_rows))

    def settle_inventory(k):
        """After step k: pool the uncreated share of every size-k type."""
        quota = _quota(led, k)
        for key in _types(graph, theta, k):
            fresh = created.pop(key, 0)
            if fresh > quota:
                raise InternalConsistencyError(
                    f"over-created type {list(key[1])} at server {key[0]}")
            pool[key] += quota - fresh
        if created:
            raise InternalConsistencyError(
                f"created rows outside the type inventory: {dict(created)}")

    # ---- step 1: direct requests -------------------------------------
    for i in (t1, t2):
        book(1, "direct", _quota(led, 1), {i: (theta,)}, {})
    settle_inventory(1)

    # ---- steps 2..n-1: one table of pattern classes --------------------
    # Every row is one server's sum over its edges to a set of servers; the
    # desired endpoint i's row holds theta, the edge (i, other).  A class
    # maps (i, other, T, variant) to the rows it creates fresh and the
    # pooled rows it consumes.
    def star(v, ends):
        return tuple(sorted(eid[v, s] for s in ends if s != v))

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
                old_rows[j] = star(j, (i, other,
                                       *(t for t in tset if t != match[j])))
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

    for st in step_ledger(graph.n):
        k = st.k
        for cls, rows, class_variants in classes:
            copies = _as_int(getattr(st, f"{cls}_per") * m, f"{cls} count")
            if not copies:
                continue
            for i, other in ((t1, t2), (t2, t1)):
                for tset in itertools.combinations(helpers, k - 1):
                    for variant in class_variants(tset):
                        book(k, cls, copies, *rows(i, other, tset, variant))

        if k <= graph.n - 2:
            settle_inventory(k)
        elif created:
            created.clear()  # last step: nothing consumes size-(n-1) types

    return variants, pool


def build_scheme(n, theta=0):
    check_build_n(n)
    graph = make_graph("complete", [n])
    check_theta(theta, graph)
    led = build_sequences(n)
    big_l = led.subpacketization
    variants, pool = class_plan(graph, theta, led)

    # each server's file and subfile columns and row ends; every sign is +1
    files = {v: [] for v in graph.servers}
    subs = {v: [] for v in graph.servers}
    ends = {v: [] for v in graph.servers}
    emitted = 0                     # pattern copies written
    sub = defaultdict(int)          # per-file pattern counter
    top = defaultdict(int)          # (server, file) -> last subscript written
    for _step, _cls, copies, new_rows, old_rows in variants:
        touched = set().union(*new_rows.values(), *old_rows.values())
        rows = [(server, fileset, files[server], subs[server], ends[server])
                for server, fileset in (*new_rows.items(), *old_rows.items())]
        for copy in range(copies):
            # the pattern's subscript of each file, shared by all its rows
            for f in touched:
                sub[f] += 1
            for server, fileset, fcol, scol, ecol in rows:
                fcol += fileset
                scol += map(sub.__getitem__, fileset)
                ecol.append(len(fcol))
        emitted += copies
        # counters only grow, so the last copy wrote the top subscripts
        for server, fileset, *_ in rows:
            for f in fileset:
                top[server, f] = sub[f]

    # ---- leftovers become side information -----------------------------
    for (v, fileset), count in sorted(pool.items()):
        for copy in range(count):
            for f in fileset:
                top[v, f] += 1
                files[v].append(f)
                subs[v].append(top[v, f])
            ends[v].append(len(files[v]))

    # ---- final shape checks ---------------------------------------------
    if emitted != big_l or sub[theta] != big_l:
        raise InternalConsistencyError(
            f"expected {big_l} patterns, emitted {emitted}")

    return DeterministicScheme(
        graph=graph, theta=theta, L=big_l,
        queries={v: Rows(tuple(files[v]), tuple(subs[v]),
                         (1,) * len(files[v]), tuple(ends[v]))
                 for v in graph.servers})


# ============================================================
# reporting and verification
# ============================================================

VerifyReport = namedtuple("VerifyReport", "ok violations")


def verify_scheme(scheme):
    """Structural verification of a built scheme.

    Checks the independence conditions, the per-type multiplicity
    invariant, and the even split of desired rows across the
    two endpoints.  The last two are K_n ledgers, so a graph that is not
    complete raises ParameterError.
    """
    from .patterns import check_independence

    n = scheme.graph.n
    edges = scheme.graph.edges
    if not len(set(edges)) == len(edges) == n * (n - 1) // 2:
        raise ParameterError(f"verify_scheme checks schemes on complete "
                             f"graphs; this graph has {len(edges)} files on "
                             f"{n} servers, K{n} has {n * (n - 1) // 2}")
    led = build_sequences(n) if n <= BUILDER_CAP else None

    problems = [f"condition {v.condition}: {v.detail}"
                for v in check_independence(scheme).violations]

    theta = scheme.theta
    shapes = {v: row_shapes(rows) for v, rows in scheme.queries.items()}
    desired = {v: sum(c for files, c in shapes[v].items() if theta in files)
               for v in scheme.graph.endpoints(theta)}
    if any(count * 2 != scheme.L for count in desired.values()):
        problems.append(f"desired rows split {desired}, expected "
                        f"{scheme.L // 2} per endpoint")

    if led is not None:
        for k in range(1, n - 1):
            quota = _quota(led, k)
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

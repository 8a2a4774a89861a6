"""Trial harness: run schemes against concrete storage and audit privacy.

Deterministic and probabilistic trials evaluate summations by XOR-ing
stored symbols, which cancels pairs regardless of the alphabet; a trial
passes when the reconstructed desired file matches storage exactly.

Sampling is exact and cheap, and runs in integers.  A sampled
probabilistic trial scales each float draw by 2^53, which is exact, and
bisects the prefix sums of the row masses scaled to that grid and rounded
up, so it picks the first row whose edge exceeds the draw in O(log rows)
integer comparisons; a draw off the grid (from a `random` that is not
`random.Random`'s) times the denominator is compared exactly instead.  The
statistical audit counts each server's combo straight from the sampled
(mu, lam) bits and builds no scheme per query.  It draws those bits in
bulk through `general.random_bits`, as `random_general_scheme` does, so it
consumes the same random stream as drawing one `random_general_scheme` per
query, and the bits equal per-call `randrange(2)` draws for a
`random.Random` whose `getrandbits` is not overridden.  The distributional
audit compares integer weights (a row's mass) by cross-multiplication.

Privacy audits come in three strengths:

  structural      per-server multisets of summation shapes must coincide
                  across all desired files (deterministic schemes),
  distributional  exact per-server answer distributions must coincide
                  (probabilistic or randomized single-symbol schemes),
  statistical     empirical distributions from sampled queries must agree
                  within a concentration bound (graph families).
"""

import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from operator import getitem, xor

from .errors import ParameterError, check_q
from .general import (GeneralScheme, answer_counts, random_bits,
                      sample_combo_counts)
from .graphs import Graph
from .patterns import extract_patterns
from .rows import row_shapes
from .scheme import DeterministicScheme, ProbabilisticScheme, gc_paused
from .transform import prob_rate

# sampled trials compare draws with row edges on this grid: random()
# returns multiples of 1/_GRID
_GRID = 2 ** 53

# ============================================================
# storage
# ============================================================


@dataclass(frozen=True)
class Storage:
    graph: Graph
    q: int
    L: int
    contents: tuple  # one tuple of L symbols per file

    def __post_init__(self):
        check_q(self.q)
        contents = tuple(map(tuple, self.contents))
        object.__setattr__(self, "contents", contents)
        if len(contents) != len(self.graph.edges):
            raise ParameterError("storage must hold one row per file")
        for fid, row in enumerate(contents):
            if len(row) != self.L:
                raise ParameterError(f"every file must split into exactly "
                                     f"{self.L} subfiles")
            _check_symbols(f"file {fid}", row, self.q - 1)


def _check_symbols(where, row, top=math.inf):
    """Refuse a symbol that is not an int in 0..top."""
    # whole-row checks; a bool or float symbol fails the type set
    if row and not (set(map(type, row)) == {int}
                    and min(row) >= 0 and max(row) <= top):
        bad = next(x for x in row
                   if type(x) is not int or not 0 <= x <= top)
        raise ParameterError(f"{where} holds symbol {bad!r}; symbols must "
                             f"be ints in 0..{top}")


@gc_paused
def random_storage(graph, q, L, rng):
    """Uniform symbols in 0..q-1, file by file: the draws of one
    `rng.randrange(q)` call per symbol, made in bulk when q = 2."""
    check_q(q)
    if q == 2:
        bits = random_bits(rng, len(graph.files) * L)
        contents = tuple(tuple(bits[i * L:(i + 1) * L])
                         for i in range(len(graph.files)))
    else:
        contents = tuple(tuple(rng.randrange(q) for _ in range(L))
                         for _ in graph.files)
    return Storage(graph=graph, q=q, L=L, contents=contents)


def random_permutations(graph, L, rng):
    """Independent uniform subfile permutation per file, as 1-based tuples."""
    perms = {}
    for fid in graph.files:
        order = list(range(1, L + 1))
        rng.shuffle(order)
        perms[fid] = tuple(order)
    return perms


# ============================================================
# deterministic trials
# ============================================================


@dataclass(frozen=True)
class TrialReport:
    ok: bool
    recovered: tuple
    downloaded_symbols: int
    measured_rate: Fraction


@gc_paused
def run_deterministic_trial(scheme, storage, perms=None):
    """Answer every query row and reconstruct the desired file.

    Subscripts address subfiles through the (optional) per-file
    permutations of 1..storage.L, mirroring the privacy mechanism; recovery
    must return the desired file's full contents for the trial to pass.
    Storage must split each file into the scheme's L subfiles.  Recovery
    goes through `extract_patterns`: dependent rows raise IndependenceError.
    """
    # file -> its symbols in subscript order, read once; index 0 pads, so
    # a 1-based subscript indexes it directly
    symbols = {f: (None, *row) for f, row in enumerate(storage.contents)}
    if perms is not None:
        every = set(range(1, storage.L + 1))
        for f, perm in perms.items():
            if not (len(perm) == storage.L and set(perm) == every
                    and set(map(type, perm)) <= {int}):
                raise ParameterError(f"the subfile permutation of file {f} "
                                     f"is not a permutation of "
                                     f"1..{storage.L}")
        symbols = {f: (None, *map(symbols[f].__getitem__, perm))
                   for f, perm in perms.items() if f in symbols}

    answered = {}
    for srv, rows in scheme.queries.items():
        try:
            values = list(map(getitem, map(symbols.__getitem__, rows.file),
                              rows.subfile))
        except (KeyError, IndexError):
            f, s = next((f, s) for f, s in zip(rows.file, rows.subfile)
                        if f not in symbols or s >= len(symbols[f]))
            raise ParameterError(f"a row asks for subfile {s} of file {f}, "
                                 f"which storage does not hold") from None
        # a row's answer is the XOR of two prefix XORs of its values; the
        # trailing 0 is what a selection of -1 (no row) reads
        prefix = list(accumulate(values, xor, initial=0))
        answered[srv] = [*map(xor, map(prefix.__getitem__, rows.starts),
                              map(prefix.__getitem__, rows.ends)), 0]
    # storage shorter than the scheme's L is named above, by the first row
    # that reads past it; recovery places L subfiles, so storage of any
    # other length is refused here
    if storage.L != scheme.L:
        raise ParameterError(f"storage splits each file into {storage.L} "
                             f"subfiles, the scheme into {scheme.L}")

    # target t's value, the XOR of the answers its pattern selects, is
    # subfile place[t - 1]
    values = [0] * scheme.L
    for srv, column in extract_patterns(scheme).selections.items():
        values = list(map(xor, values, map(answered[srv].__getitem__, column)))
    place = range(1, scheme.L + 1) if perms is None else perms[scheme.theta]
    recovered = tuple(value for _at, value in sorted(zip(place, values)))

    downloaded = sum(len(rows) for rows in scheme.queries.values())
    return TrialReport(ok=recovered == storage.contents[scheme.theta],
                       recovered=recovered,
                       downloaded_symbols=downloaded,
                       measured_rate=Fraction(scheme.L, downloaded))


# ============================================================
# probabilistic trials
# ============================================================


@dataclass(frozen=True)
class ProbTrialReport:
    ok: bool
    mode: str
    rate: Fraction
    trials: int = None


def run_probabilistic_trials(pscheme, contents, mode="exact", trials=None,
                             rng=None):
    """Check recovery of a probabilistic scheme, one symbol per file.

    exact   walks every row once and scores the idle-server mass exactly;
    sample  draws rows with their probabilities and measures the rate as
            trials over total non-idle answers.

    A row recovers when its answers XOR to the desired file for every
    storage, so `contents` are checked but do not sway the verdict.
    """
    contents = tuple(contents)
    if len(contents) != len(pscheme.graph.edges):
        raise ParameterError("contents must hold one symbol per file")
    _check_symbols("contents", contents)

    def recovers(row):
        # XOR is linear, so that holds exactly when the files asked of the
        # pattern servers, counted mod 2, are the desired file alone
        odd = 0
        for srv in row.pattern_servers:
            for f, _sign in row.q[srv]:
                odd ^= 1 << f
        return odd == 1 << pscheme.theta

    if mode == "exact":
        ok = all(recovers(row) for row in pscheme.rows)
        return ProbTrialReport(ok=ok, mode="exact", rate=prob_rate(pscheme))

    if mode == "sample":
        _check_trials(trials, rng, mode)
        rows, den = pscheme.rows, pscheme.denominator
        edges = list(accumulate(row.mass for row in rows))
        # a draw x on the 2^-53 grid lies below edge e / den exactly when
        # x * 2^53 < ceil(e * 2^53 / den), so integers pick the same row
        grid = [-(-e * _GRID // den) for e in edges]
        picks = Counter()
        for _ in range(trials):
            # the first row whose cumulative edge exceeds the draw
            draw = rng.random()
            scaled = draw * _GRID  # exact: a power-of-two scale
            if scaled.is_integer():
                picks[bisect_right(grid, int(scaled))] += 1
            else:  # off the grid: compare the draw exactly
                picks[bisect_right(edges, Fraction(draw) * den)] += 1
        # recovers is pure, so checking each drawn row once, in first-drawn
        # order, gives the verdict of checking every draw
        ok = all(recovers(rows[i]) for i in picks)
        answered = sum(count * sum(1 for combo in rows[i].q.values()
                                   if combo is not None)
                       for i, count in picks.items())
        if not answered:
            raise ParameterError(f"none of the {trials} drawn rows queries "
                                 f"any server, so the rate is undefined")
        return ProbTrialReport(ok=ok, mode="sample",
                               rate=Fraction(trials, answered),
                               trials=trials)

    raise ParameterError(f"unknown trial mode {mode!r}")


# ============================================================
# privacy audits
# ============================================================


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    mode: str
    max_deviation: object = None
    epsilon: object = None


def _answer_weights(member, theta, q):
    """Each server's combo distribution under one distributional-audit
    member, as integer weights: {server: {combo: weight}}."""
    if isinstance(member, ProbabilisticScheme):
        per = {}
        for srv in member.graph.servers:
            weights = defaultdict(int)
            for row in member.rows:
                combo = row.q.get(srv)
                weights[() if combo is None else combo] += row.mass
            per[srv] = weights
        return per
    graph, desired, size = (member, theta, q) if isinstance(member, Graph) \
        else (member.graph, member.theta, member.q)
    return {srv: answer_counts(graph, desired, srv, q=size)
            for srv in graph.servers}


def _tv(w1, w2):
    """Total variation distance between two integer-weighted distributions,
    by cross-multiplication; no weights at all read as zero mass."""
    t1, t2 = sum(w1.values()) or 1, sum(w2.values()) or 1
    gap = sum(abs(w1.get(k, 0) * t2 - w2.get(k, 0) * t1)
              for k in w1.keys() | w2.keys())
    return Fraction(gap, 2 * t1 * t2)


# the member kinds each audit mode reads
AUDIT_MEMBERS = {
    "structural": (DeterministicScheme,),
    "distributional": (ProbabilisticScheme, GeneralScheme, Graph),
    "statistical": (Graph,),
}


def check_audit_member(mode, kind):
    """Refuse an unknown audit mode, or members of a kind it does not read."""
    if mode not in AUDIT_MEMBERS:
        raise ParameterError(f"unknown audit mode {mode!r}")
    if not issubclass(kind, AUDIT_MEMBERS[mode]):
        kinds = " or ".join(k.__name__ for k in AUDIT_MEMBERS[mode])
        raise ParameterError(f"a {mode} audit reads {kinds} members, "
                             f"got a {kind.__name__}")


def privacy_audit(schemes, mode, trials=None, rng=None, q=2, epsilon=None):
    """Compare what each server observes across all desired files.

    `schemes` maps each desired file to the object queried under it, of a
    kind AUDIT_MEMBERS lists for the mode.  A Graph is randomized over with
    alphabet size `q`; a GeneralScheme brings its own graph, desired file
    and q.
    """
    if not schemes:
        raise ParameterError("the audit family has no desired files")
    for member in schemes.values():
        check_audit_member(mode, type(member))
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
        raise ParameterError(f"epsilon must be a finite number > 0, "
                             f"got {epsilon}")
    thetas = sorted(schemes)
    if mode == "structural":
        shapes = {}
        for theta in thetas:
            s = schemes[theta]
            shapes[theta] = {srv: row_shapes(rows)
                             for srv, rows in s.queries.items()}
        ok = all(shapes[t] == shapes[thetas[0]] for t in thetas[1:])
        return AuditReport(ok=ok, mode=mode)

    if mode == "distributional":
        dists = {theta: _answer_weights(schemes[theta], theta, q)
                 for theta in thetas}
        worst = Fraction(0)
        for t in thetas[1:]:
            for srv in dists[thetas[0]]:
                worst = max(worst, _tv(dists[t].get(srv, {}),
                                       dists[thetas[0]][srv]))
        return AuditReport(ok=worst == 0, mode=mode, max_deviation=worst)

    if mode == "statistical":
        _check_trials(trials, rng, mode)
        empirical = {}
        support = defaultdict(set)
        for theta in thetas:
            empirical[theta] = sample_combo_counts(schemes[theta], theta,
                                                   trials, rng, q=q)
            for srv, counter in empirical[theta].items():
                support[srv] |= counter.keys()
        if epsilon is None:
            widest = max(len(combos) for combos in support.values())
            epsilon = 3 * math.sqrt(math.log(2 * widest) / trials)
        # TV distance in units of 1/(2 trials): sum |c1 - c2| over combos,
        # which is c1 + c2 - 2 min(c1, c2) summed.  Rounding a rational to
        # a float is monotone, so the float of the largest numerator is the
        # largest float TV distance.  Each theta's counts at a server are
        # laid out once over that server's support (all 0 where the member
        # has no such server), so a pair's overlap is one map over two lists.
        widest_gap = 0
        for srv, combos in support.items():
            vectors = [[counts[k] for k in combos] for counts in
                       (empirical[t].get(srv, Counter()) for t in thetas)]
            for (v1, n1), (v2, n2) in combinations(
                    zip(vectors, map(sum, vectors)), 2):
                overlap = sum(map(min, v1, v2))
                widest_gap = max(widest_gap, n1 + n2 - 2 * overlap)
        worst = float(Fraction(widest_gap, 2 * trials))
        return AuditReport(ok=worst < epsilon, mode=mode,
                           max_deviation=worst, epsilon=epsilon)


def _check_trials(trials, rng, mode):
    if not trials or rng is None:
        raise ParameterError(f"{mode} mode needs trials and rng")
    if type(trials) is not int or trials < 1:  # check_int's rule: no bool
        raise ParameterError(f"trials must be a positive integer, "
                             f"got {trials}")

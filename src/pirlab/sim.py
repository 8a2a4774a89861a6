"""Trial harness: run schemes against concrete storage and audit privacy.

Deterministic and probabilistic trials evaluate summations by XOR-ing
stored symbols, which cancels pairs regardless of the alphabet; a trial
passes when the reconstructed desired file matches storage exactly.

Sampling is exact and cheap.  A sampled probabilistic trial converts each
float draw to a Fraction (exactly) and bisects the cumulative row
probabilities, so it picks the first row whose edge exceeds the draw in
O(log rows) comparisons.  The statistical audit counts each server's
combo straight from the sampled (mu, lam) bits, in integers, and builds
no scheme per query.  It draws those bits in bulk through
`general.random_bits`, as `random_general_scheme` does, so it consumes
the same random stream as drawing one `random_general_scheme` per query,
and the bits equal per-call `randrange(2)` draws for a `random.Random`
whose `getrandbits` is not overridden.

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
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import ParameterError, check_q
from .general import (GeneralScheme, answer_distribution, random_bits,
                      sample_combo_counts)
from .graphs import Graph
from .patterns import extract_patterns
from .scheme import DeterministicScheme, ProbabilisticScheme, row_shapes
from .transform import prob_rate

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


def run_deterministic_trial(scheme, storage, perms=None):
    """Answer every query row and reconstruct the desired file.

    Subscripts address subfiles through the (optional) per-file
    permutations, mirroring the privacy mechanism; recovery must return
    the desired file's full contents for the trial to pass.
    """
    if perms is None:
        identity = tuple(range(1, scheme.L + 1))
        perms = {fid: identity for fid in scheme.graph.files}

    # file -> its symbols in subscript order, read once; index 0 pads, so
    # a 1-based subscript indexes it directly
    held = len(storage.contents)
    symbols = {}
    for f, perm in perms.items():
        if f in range(held):
            padded = (None, *storage.contents[f])
            symbols[f] = (None, *map(padded.__getitem__, perm))

    answered = {}
    try:
        for srv, rows in scheme.queries.items():
            answers = []
            for row in rows:
                value = 0
                for f, s, _sign in row.terms:
                    value ^= symbols[f][s]
                answers.append(value)
            answered[srv] = answers
    except (KeyError, IndexError):
        raise ParameterError(f"a row asks for subfile {s} of file {f}, "
                             f"which storage does not hold") from None

    patterns = scheme.patterns
    if patterns is None:
        patterns = extract_patterns(scheme).patterns
    recovered = [None] * scheme.L
    for p in patterns:
        value = _xor(answered[srv][idx] for srv, idx in p.selections.items())
        recovered[perms[scheme.theta][p.target - 1] - 1] = value
    recovered = tuple(recovered)

    downloaded = sum(len(rows) for rows in scheme.queries.values())
    return TrialReport(ok=recovered == storage.contents[scheme.theta],
                       recovered=recovered,
                       downloaded_symbols=downloaded,
                       measured_rate=Fraction(scheme.L, downloaded))


def _xor(values):
    out = 0
    for v in values:
        out ^= v
    return out


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
    """Check recovery of a probabilistic scheme against flat contents.

    exact   walks every row once and scores the idle-server mass exactly;
    sample  draws rows with their probabilities and measures the rate as
            trials over total non-idle answers.
    """
    contents = tuple(contents)
    if len(contents) != len(pscheme.graph.edges):
        raise ParameterError("contents must hold one symbol per file")
    _check_symbols("contents", contents)
    want = contents[pscheme.theta]

    def recovers(row):
        value = _xor(_xor(contents[f] for f, _sign in row.q[srv])
                     for srv in row.pattern_servers)
        return value == want

    if mode == "exact":
        ok = all(recovers(row) for row in pscheme.rows)
        return ProbTrialReport(ok=ok, mode="exact", rate=prob_rate(pscheme))

    if mode == "sample":
        _check_trials(trials, rng, mode)
        rows = pscheme.rows
        edges = list(accumulate(row.p for row in rows))
        ok = True
        answered = 0
        for _ in range(trials):
            # the first row whose cumulative edge exceeds the draw;
            # Fraction(float) is exact, so rounding never moves a draw
            # across an edge
            row = rows[bisect_right(edges, Fraction(rng.random()))]
            ok = ok and recovers(row)
            answered += sum(1 for combo in row.q.values()
                            if combo is not None)
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


def _tv(d1, d2):
    keys = set(d1) | set(d2)
    return sum(abs(d1.get(k, 0) - d2.get(k, 0)) for k in keys) / 2


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
        dists = {}
        for theta in thetas:
            s = schemes[theta]
            if isinstance(s, ProbabilisticScheme):
                per = {}
                for srv in s.graph.servers:
                    d = defaultdict(Fraction)
                    for row in s.rows:
                        combo = row.q.get(srv)
                        d[() if combo is None else combo] += row.p
                    per[srv] = dict(d)
            else:
                graph, desired, size = (s, theta, q) if isinstance(s, Graph) \
                    else (s.graph, s.theta, s.q)
                per = {srv: answer_distribution(graph, desired, srv, q=size)
                       for srv in graph.servers}
            dists[theta] = per
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
        # largest float TV distance.
        widest_gap = 0
        for i, t1 in enumerate(thetas):
            for t2 in thetas[i + 1:]:
                for srv in empirical[t1].keys() | empirical[t2].keys():
                    c1 = empirical[t1].get(srv, {})
                    c2 = empirical[t2].get(srv, {})
                    overlap = sum(min(c1[k], c2[k])
                                  for k in c1.keys() & c2.keys())
                    gap = sum(c1.values()) + sum(c2.values()) - 2 * overlap
                    widest_gap = max(widest_gap, gap)
        worst = float(Fraction(widest_gap, 2 * trials))
        return AuditReport(ok=worst < epsilon, mode=mode,
                           max_deviation=worst, epsilon=epsilon)


def _check_trials(trials, rng, mode):
    if not trials or rng is None:
        raise ParameterError(f"{mode} mode needs trials and rng")
    if not isinstance(trials, int) or trials < 1:
        raise ParameterError(f"trials must be a positive integer, "
                             f"got {trials}")

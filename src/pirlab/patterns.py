"""Recovery-pattern extraction and the independence conditions.

A scheme's query rows decompose into connected components: two rows are
linked when they share a non-desired subfile symbol.  A component is a
recovery pattern when XOR-ing all of its rows cancels everything except a
single desired subfile, and no server contributes more than one row.
Components that never touch the desired file are side information.

The independence conditions checked here:

  1. a summation repeats a file,
  2. a subfile symbol repeats at one server, or a server is asked for a
     file it does not store,
  3. the desired subfiles across all rows are not exactly 1..L,
  4. a component is neither a valid pattern nor pure side information.

`analyze` produces the report and the extraction from one walk over the
rows.  Rows get integer ids in (server, index) order, and union-find runs
over a flat parent list.  Symbols are keyed by one integer each.  The walk
checks conditions 1 and 2 against each server's set of stored files, and
collects the desired subfiles for condition 3.  Afterwards each component
is classified once, without reading its terms again: all occurrences of a
non-desired symbol lie in one component, so the symbol's total count gives
its parity there, and desired terms are bucketed by component.
`check_independence` and `extract_patterns` are views of that one result.

A scheme object is walked once: `analyze` keeps its result on the
instance, outside the dataclass fields, and serves it again only while
`scheme.queries` still maps every server to the very row tuple it walked.
`replace()` gives a new object with no result kept.
"""

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass

from .scheme import RecoveryPattern, gc_paused


@dataclass(frozen=True)
class Violation:
    condition: int
    detail: str


@dataclass(frozen=True)
class IndependenceReport:
    ok: bool
    violations: tuple


@dataclass(frozen=True)
class Extraction:
    patterns: tuple
    side_info: tuple


class IndependenceError(RuntimeError):
    """Raised when extraction is attempted on a dependent scheme."""

    def __init__(self, report):
        lines = [f"[{v.condition}] {v.detail}" for v in report.violations]
        super().__init__("scheme rows are not independent: " +
                         "; ".join(lines))
        self.report = report


# ============================================================
# the single row walk
# ============================================================

@gc_paused
def analyze(scheme):
    """Check independence and extract patterns in one walk over the rows.

    Returns (IndependenceReport, Extraction); the extraction is None when
    the report lists any violation.  Repeated calls on one scheme object
    return the same result without walking again, unless a server's row
    tuple in `scheme.queries` was swapped since.
    """
    queries = scheme.queries
    # kept in the instance __dict__ like Graph._file_ids, so equality,
    # hashing, repr and to_json do not see it
    memo = vars(scheme).get("_analysis")
    if memo is not None:
        walked, result = memo
        if len(walked) == len(queries) and all(
                queries.get(srv) is rows for srv, rows in walked.items()):
            return result
    result = _walk(scheme)
    vars(scheme)["_analysis"] = (dict(queries), result)
    return result


def _walk(scheme):
    graph, theta = scheme.graph, scheme.theta
    nfiles = len(graph.edges)
    violations = []
    refs = []           # row id -> (server, index)
    parent = []         # union-find over row ids; a root is its set's min
    first = {}          # non-desired symbol key -> first row holding it
    linked = []         # every non-desired symbol key, once per occurrence
    desired = []        # (row id, subfile) for every desired term

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for srv, rows in sorted(scheme.queries.items()):
        stored = set(graph.incident(srv))
        keys_here = []
        for idx, row in enumerate(rows):
            rid = len(parent)
            parent.append(rid)
            refs.append((srv, idx))
            mark = len(violations)
            prev = None
            repeats_file = False
            for f, s, _sign in row.terms:
                repeats_file = repeats_file or f == prev  # terms are sorted
                prev = f
                if f not in stored:
                    graph.endpoints(f)  # ParameterError for an unknown id
                    violations.append(Violation(
                        2, f"server {srv} asked for file {f} it does not "
                           f"store (row {idx})"))
                key = s * nfiles + f
                keys_here.append(key)
                if f == theta:
                    desired.append((rid, s))
                    continue
                linked.append(key)
                other = first.setdefault(key, rid)
                if other != rid:
                    ra, rb = find(other), find(rid)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
            if repeats_file:
                files = Counter(f for f, _s, _sign in row.terms)
                violations.insert(mark, Violation(
                    1, f"row {idx} at server {srv} repeats files "
                       f"{sorted(f for f, c in files.items() if c > 1)}"))
        if len(set(keys_here)) != len(keys_here):
            dups = sorted((key % nfiles, key // nfiles)
                          for key, c in Counter(keys_here).items() if c > 1)
            violations.append(Violation(
                2, f"subfile symbols {dups} repeat at server {srv}"))

    theta_subs = Counter(s for _rid, s in desired)
    expected = set(range(1, scheme.L + 1))
    missing = sorted(expected - set(theta_subs))
    extra = sorted(s for s, c in theta_subs.items()
                   if c > 1 or s not in expected)
    if missing or extra:
        violations.append(Violation(
            3, f"desired subfiles must appear exactly once each: "
               f"missing {missing}, repeated or out of range {extra}"))

    components = {}
    for rid in range(len(parent)):
        components.setdefault(find(rid), []).append(refs[rid])
    desired_in = defaultdict(list)
    for rid, s in desired:
        desired_in[find(rid)].append(s)
    odd_in = defaultdict(list)
    for key, c in Counter(linked).items():
        if c % 2:
            odd_in[find(first[key])].append((key % nfiles, key // nfiles))

    patterns = []
    side_info = []
    for root, component in components.items():
        verdict = _classify(component, desired_in.get(root),
                            odd_in.get(root, []), theta, scheme.L)
        if verdict[0] == "pattern":
            patterns.append(RecoveryPattern(target=verdict[1],
                                            selections=dict(component)))
        elif verdict[0] == "side":
            side_info.extend(component)
        else:
            violations.append(Violation(4, verdict[1]))

    report = IndependenceReport(ok=not violations,
                                violations=tuple(violations))
    if not report.ok:
        return report, None
    patterns.sort(key=lambda p: p.target)
    return report, Extraction(patterns=tuple(patterns),
                              side_info=tuple(sorted(side_info)))


def _classify(component, desired, odd_other, theta, L):
    """Return ("pattern", target) / ("side",) / ("bad", detail).

    `component` is the sorted list of (server, index) rows, `desired` the
    desired subfiles in those rows, and `odd_other` the non-desired
    symbols left over an odd number of times.
    """
    if not desired:
        return ("side",)
    servers = [srv for srv, _idx in component]
    if len(set(servers)) != len(servers):
        crowded = sorted(srv for srv, c in Counter(servers).items() if c > 1)
        return ("bad", f"servers {crowded} each contribute several rows "
                       f"to one component")
    if len(desired) > 1:
        desired = [s for s, c in Counter(desired).items() if c % 2]
    if len(desired) == 1 and not odd_other:
        return ("pattern", desired[0])
    leftover = sorted(odd_other + [(theta, s) for s in desired
                                   if not 1 <= s <= L])
    return ("bad", f"rows {component} leave uncancelled symbols {leftover}")


# ============================================================
# public checks
# ============================================================

def check_independence(scheme):
    """Evaluate all four independence conditions, collecting every breach."""
    return analyze(scheme)[0]


def extract_patterns(scheme):
    """Recover the pattern partition from the query rows alone.

    Raises IndependenceError (carrying the full report) when any
    independence condition fails.
    """
    report, extraction = analyze(scheme)
    if not report.ok:
        raise IndependenceError(report)
    return extraction


@gc_paused
def carried_mismatches(scheme, extraction):
    """How the patterns and side information `scheme` stores differ from
    those of `extraction`, which its rows give, as problem texts.  The
    comparison ignores order.  A scheme that stores no patterns has
    nothing to compare."""
    if scheme.patterns is None:
        return []
    problems = []
    carried = sorted(scheme.patterns, key=lambda p: p.target)
    if ([(p.target, p.selections) for p in carried]
            != [(p.target, p.selections) for p in extraction.patterns]):
        problems.append("carried patterns differ from the ones the rows give")
    if sorted(scheme.side_info) != list(extraction.side_info):
        problems.append("carried side information differs from the one the "
                        "rows give")
    return problems


@dataclass(frozen=True)
class SrpReport:
    counts: dict
    ok: bool


def check_srp(scheme, extraction):
    """Count patterns by which endpoint serves the desired term.

    The source-symmetry property asks for an even split between the two
    servers storing the desired file.  Only those two servers can hold a
    desired term, so only their selections are read.
    """
    theta = scheme.theta
    t1, t2 = scheme.graph.endpoints(theta)
    counts = {}
    for srv in (t1, t2):
        rows = scheme.queries[srv]
        count = 0
        for p in extraction.patterns:
            idx = p.selections.get(srv)
            if idx is not None:
                # terms are sorted, so a bisection finds file theta
                terms = rows[idx].terms
                i = bisect_left(terms, (theta,))
                count += i < len(terms) and terms[i][0] == theta
        counts[srv] = count
    return SrpReport(counts=counts, ok=counts[t1] == counts[t2])

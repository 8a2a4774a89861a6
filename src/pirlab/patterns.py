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
rows' columns (`rows.Rows`); it makes no object per row or term.  Rows
get integer ids in (server, index) order, and union-find runs over a flat
parent list.  Symbols are keyed by one integer each.  Each server's columns
are checked in bulk for conditions 1 and 2 against its set of stored
files, and only a server that breaks one is read row by row for the
report; the desired subfiles are collected for condition 3.  One table
maps each non-desired symbol to the first row holding it, which each
later row holding it joins as it is read, and the entry's sign flips at
each read, so it gives the symbol's parity in that row's component.
Each component is then classified once, without reading its terms again.
`check_independence` and `extract_patterns` are views of that one result.

The extraction is integer columns too (`Extraction`), and a
`RecoveryPattern` is made only for `Extraction.patterns`.

A scheme object is walked once: `analyze` keeps its result on the
instance, outside the tuple's fields, and serves it again only while
`scheme.queries` still maps every server to the very row block it walked.
`replace()` gives a new object with no result kept.

Every list a violation names is cut short by `_listed`, and past as many
violations, or _CHARS characters, `IndependenceError` names the first and
a count per condition, so a refusal's line does not grow with the scheme;
the full report stays on the error and on `check_independence`.
"""

from array import array
from bisect import bisect_right
from collections import Counter, defaultdict, namedtuple
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import add, eq, not_, sub

from .rows import in_row

# a message cuts a list of more than _MOST items short (`_listed`); the
# command line's "error: scheme rows are not independent: " and _CHARS
# more characters fit in 512 bytes
_MOST = 12
_CHARS = 470


Violation = namedtuple("Violation", "condition detail")

IndependenceReport = namedtuple("IndependenceReport", "ok violations")

# selections: server -> row index
RecoveryPattern = namedtuple("RecoveryPattern", "target selections")


class Extraction(namedtuple("Extraction", "selections side_info")):
    """`selections[srv][t - 1]` is the row server srv gives in the pattern
    of target t, or -1; an accepted scheme has one pattern per target 1..L
    (condition 3).  `side_info` is the (server, index) of each other row;
    `selections` maps a server to an array('q') of length L."""

    @cached_property
    def patterns(self):
        """A RecoveryPattern per target, made on the first read."""
        return tuple(RecoveryPattern(*pair) for pair in self.chosen())

    def chosen(self):
        """Each target and its {server: row index}, servers in order."""
        for target, picks in enumerate(zip(*self.selections.values()), 1):
            yield target, {srv: idx for srv, idx
                           in zip(self.selections, picks) if idx >= 0}


class IndependenceError(RuntimeError):
    """Raised when extraction is attempted on a dependent scheme."""

    def __init__(self, report):
        lines = [f"[{v.condition}] {v.detail}" for v in report.violations]
        text = "; ".join(lines)
        if len(lines) > _MOST or len(lines) > 1 and len(text) > _CHARS:
            counts = Counter(v.condition for v in report.violations)
            text = f"{lines[0]}; ... {len(lines)} in all: " + ", ".join(
                f"{c} of condition {k}" for k, c in sorted(counts.items()))
        super().__init__("scheme rows are not independent: " + text)
        self.report = report


# ============================================================
# the single row walk
# ============================================================

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
    graph, theta, L = scheme.graph, scheme.theta, scheme.L
    nfiles = len(graph.edges)
    violations = []
    blocks = []         # (server, its first row id, its number of rows)
    # the row id and the subfile of every desired term
    desired_rows, desired_subs = [], []
    # union-find over row ids: `seen` maps a non-desired symbol key to the
    # first row holding it, which later rows join, as ~row while it has been
    # read an even number of times.  A root is its set's min, so parent[x]
    # <= x, and a last pass in increasing order points rows at their roots.
    seen, parent = {}, []

    for srv, rows in sorted(scheme.queries.items()):
        files, subs, ends = rows.file, rows.subfile, rows.ends
        base = len(parent)
        blocks.append((srv, base, len(ends)))
        parent += range(base, base + len(ends))
        stored = set(graph.incident(srv))
        # terms are sorted, so a file twice in a row is there side by side
        if not stored.issuperset(files) or any(in_row(eq, files, ends)):
            violations += _row_violations(srv, rows, stored, graph)
        here = list(map(add, map(nfiles.__mul__, subs), files))
        if len(set(here)) != len(here):
            dups = sorted((key % nfiles, key // nfiles)
                          for key, c in Counter(here).items() if c > 1)
            violations.append(Violation(
                2, f"subfile symbols {_listed(dups)} repeat at server {srv}"))
        # the row id of each term
        rids = [*chain.from_iterable(map(repeat, count(base),
                                         map(sub, ends, rows.starts)))]
        if theta in stored or theta in files:
            is_desired = list(map(theta.__eq__, files))
            desired_rows += compress(rids, is_desired)
            desired_subs += compress(subs, is_desired)
            linked = list(map(not_, is_desired))
            here, rids = compress(here, linked), compress(rids, linked)
        for key, b in zip(here, rids):
            a = seen.get(key)
            seen[key] = b if a is None else ~a
            if a is not None:
                a = a if a >= 0 else ~a
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]  # path halving
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b

    for x, up in enumerate(parent):
        parent[x] = parent[up]

    short = rows_short_of_l(scheme)
    theta_subs = Counter(desired_subs)
    expected = set() if short else set(range(1, L + 1))
    missing = sorted(expected - set(theta_subs))
    extra = sorted(s for s, c in theta_subs.items()
                   if c > 1 or s not in expected)
    if short or missing or extra:
        violations.append(short or Violation(
            3, f"desired subfiles must appear exactly once each: missing "
               f"{_listed(missing)}, repeated or out of range "
               f"{_listed(extra)}"))

    # a component with no desired term is side information; one with one
    # desired subfile left over, no other symbol left over and one row per
    # server is that subfile's pattern; any other breaks condition 4.  Each
    # root keeps the subfile of its first desired term, and a list of the
    # others only when it holds several.
    first, more = {}, defaultdict(list)
    for root, s in zip(map(parent.__getitem__, desired_rows), desired_subs):
        if root in first:
            more[root].append(s)
        else:
            first[root] = s
    odd_in = defaultdict(list)
    for key, row in seen.items():
        if row >= 0:
            odd_in[parent[row]].append((key % nfiles, key // nfiles))
    target_of = {root: s for root, s in first.items()
                 if root not in more and root not in odd_in}
    for root, subs in more.items():
        subs = [s for s, c in Counter([first[root], *subs]).items() if c % 2]
        if len(subs) == 1 and root not in odd_in:
            target_of[root] = subs[0]
    bad = first.keys() - target_of.keys()
    for _srv, start, size in blocks:  # a server twice in one component
        bad.update(root for root, c in Counter(parent[start:start + size])
                   .items() if c > 1 and root in first)
    components = defaultdict(list)  # a bad one's rows, for its message
    for srv, start, size in blocks if bad else ():
        for idx, root in enumerate(parent[start:start + size]):
            if root in bad:
                components[root].append((srv, idx))
    violations += [Violation(4, _why_bad(
        components[root], [first[root], *more.get(root, ())],
        odd_in.get(root, []), theta, L)) for root in sorted(bad)]

    report = IndependenceReport(ok=not violations,
                                violations=tuple(violations))
    if not report.ok:
        return report, None
    selections, side_info = {}, []  # a pattern per target (condition 3)
    for srv, start, size in blocks:
        column = selections[srv] = array("q", [-1]) * L
        for idx, root in enumerate(parent[start:start + size]):
            if root in target_of:
                column[target_of[root] - 1] = idx
            else:
                side_info.append((srv, idx))
    return report, Extraction(selections, tuple(side_info))


def _listed(items, most=_MOST, head=3):
    """A list of up to `most` items as it is, a longer one as its first
    `head` items and its length, so that a message stays one short line."""
    if len(items) <= most:
        return str(items)
    return f"[{', '.join(map(str, items[:head]))}, ... {len(items)} in all]"


def rows_short_of_l(scheme):
    """Condition 3 for an L above the rows' term count, found without
    building 1..L; None when L is not above it."""
    terms = sum(len(rows.file) for rows in scheme.queries.values())
    if scheme.L > terms:
        return Violation(3, f"L = {scheme.L} exceeds the rows' {terms} terms")


def _row_violations(srv, rows, stored, graph):
    """Conditions 1 and 2 row by row: a row that repeats a file, then each
    of its terms asking for a file the server does not store."""
    out = []
    for idx, (start, end) in enumerate(zip(rows.starts, rows.ends)):
        files = rows.file[start:end]
        mark = len(out)
        for f in files:
            if f not in stored:
                graph.endpoints(f)  # ParameterError for an unknown id
                out.append(Violation(
                    2, f"server {srv} asked for file {f} it does not "
                       f"store (row {idx})"))
        repeated = sorted(f for f, c in Counter(files).items() if c > 1)
        if repeated:
            out.insert(mark, Violation(
                1, f"row {idx} at server {srv} repeats files "
                   f"{_listed(repeated)}"))
    return out


def _why_bad(component, desired, odd_other, theta, L):
    """Condition 4's detail for a component that holds desired terms but
    is no pattern: `component` is its sorted (server, index) rows,
    `desired` the desired subfiles in them, and `odd_other` the
    non-desired symbols left over an odd number of times."""
    servers = [srv for srv, _idx in component]
    if len(set(servers)) != len(servers):
        crowded = sorted(srv for srv, c in Counter(servers).items() if c > 1)
        return (f"servers {_listed(crowded)} each contribute several rows "
                f"to one component")
    leftover = sorted(odd_other + [(theta, s) for s, c in Counter(
        desired).items() if c % 2 and not 1 <= s <= L])
    return (f"rows {_listed(component)} leave uncancelled symbols "
            f"{_listed(leftover)}")


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


SrpReport = namedtuple("SrpReport", "counts ok")


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
        # the rows holding file theta, from the term indices where it is
        holding = {bisect_right(rows.ends, i) for i in compress(
            count(), map(theta.__eq__, rows.file))}
        counts[srv] = sum(map(holding.__contains__, extraction.selections[srv]))
    return SrpReport(counts=counts, ok=counts[t1] == counts[t2])

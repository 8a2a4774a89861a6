"""Reference analysis for the differential tests: one walk per question.

This is the straightforward form of the independence check and the
pattern extraction that `pirlab.patterns.analyze` replaces.  It walks the
rows once for conditions 1-3, once more to build components, and once
per component to classify it.  Tests compare `analyze` against it on
mutated schemes, violation text included.
"""

from collections import Counter, defaultdict

from pirlab.patterns import IndependenceReport, RecoveryPattern, Violation

from conftest import row_at


def _components(scheme):
    """Union rows sharing a non-desired symbol; return component lists."""
    nodes = [(srv, idx)
             for srv, rows in sorted(scheme.queries.items())
             for idx in range(len(rows))]
    parent = {node: node for node in nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    occurrences = defaultdict(list)
    for srv, idx in nodes:
        for f, s, _sign in row_at(scheme.queries[srv], idx).terms:
            if f != scheme.theta:
                occurrences[(f, s)].append((srv, idx))
    for places in occurrences.values():
        for other in places[1:]:
            union(places[0], other)

    groups = defaultdict(list)
    for node in nodes:
        groups[find(node)].append(node)
    return [sorted(group) for root, group in sorted(groups.items())]


def _classify(scheme, component):
    """Return ("pattern", target, selections) / ("side",) / ("bad", detail)."""
    residue = Counter()
    per_server = Counter()
    theta_hits = 0
    for srv, idx in component:
        per_server[srv] += 1
        for f, s, _sign in row_at(scheme.queries[srv], idx).terms:
            residue[(f, s)] += 1
            if f == scheme.theta:
                theta_hits += 1
    odd = {sym for sym, cnt in residue.items() if cnt % 2}
    if theta_hits == 0:
        return ("side",)
    crowded = sorted(srv for srv, cnt in per_server.items() if cnt > 1)
    if crowded:
        return ("bad", f"servers {crowded} each contribute several rows "
                       f"to one component")
    if len(odd) == 1:
        (f, s) = next(iter(odd))
        if f == scheme.theta:
            selections = {srv: idx for srv, idx in component}
            return ("pattern", s, selections)
    leftover = sorted(odd - {(scheme.theta, s) for s in range(1, scheme.L + 1)})
    return ("bad", f"rows {component} leave uncancelled symbols {leftover}")


def reference_check(scheme):
    """Evaluate all four independence conditions, collecting every breach."""
    violations = []
    theta = scheme.theta

    theta_subs = Counter()
    for srv, rows in sorted(scheme.queries.items()):
        seen_here = Counter()
        for idx, row in enumerate(rows):
            files = [f for f, s, _sign in row.terms]
            dup_files = sorted(f for f, c in Counter(files).items() if c > 1)
            if dup_files:
                violations.append(Violation(
                    1, f"row {idx} at server {srv} repeats files {dup_files}"))
            for f, s, _sign in row.terms:
                if srv not in scheme.graph.endpoints(f):
                    violations.append(Violation(
                        2, f"server {srv} asked for file {f} it does not "
                           f"store (row {idx})"))
                seen_here[(f, s)] += 1
                if f == theta:
                    theta_subs[s] += 1
        dups = sorted(sym for sym, c in seen_here.items() if c > 1)
        if dups:
            violations.append(Violation(
                2, f"subfile symbols {dups} repeat at server {srv}"))

    expected = set(range(1, scheme.L + 1))
    missing = sorted(expected - set(theta_subs))
    extra = sorted(s for s, c in theta_subs.items()
                   if c > 1 or s not in expected)
    if missing or extra:
        violations.append(Violation(
            3, f"desired subfiles must appear exactly once each: "
               f"missing {missing}, repeated or out of range {extra}"))

    for component in _components(scheme):
        verdict = _classify(scheme, component)
        if verdict[0] == "bad":
            violations.append(Violation(4, verdict[1]))

    return IndependenceReport(ok=not violations, violations=tuple(violations))


def reference_extract(scheme):
    """The pattern partition of a scheme that passes reference_check: its
    patterns in target order and its side-information rows."""
    patterns = []
    side_info = []
    for component in _components(scheme):
        verdict = _classify(scheme, component)
        if verdict[0] == "pattern":
            patterns.append(RecoveryPattern(target=verdict[1],
                                            selections=verdict[2]))
        else:
            side_info.extend(component)
    patterns.sort(key=lambda p: p.target)
    return tuple(patterns), tuple(sorted(side_info))

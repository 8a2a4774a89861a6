"""Reference transform for the differential tests: one row per pattern.

This is the per-pattern form that `pirlab.transform.transform` replaces.
It writes one row of mass 1 over the denominator L for every slot, so rows
with the same joint query repeat.  Tests group its rows by (q,
pattern_servers) and compare the result with the merged transform, and the
pinned document digests recorded before the merge are checked against
documents written from it.
"""

from pirlab.errors import InfeasibleError, InternalConsistencyError
from pirlab.patterns import extract_patterns
from pirlab.scheme import ProbabilisticScheme, ProbRow

from conftest import row_at


def _combo(summation):
    return tuple(sorted((f, sign) for f, _s, sign in summation.terms))


def reference_transform(scheme, extraction=None):
    """The parent transform: L rows of mass 1 over L, one per slot.

    Requires every server to answer at most L summations; otherwise the
    rows cannot host them all and InfeasibleError names the first
    offender.
    """
    for srv in scheme.graph.servers:
        if len(scheme.queries[srv]) > scheme.L:
            raise InfeasibleError(
                f"server {srv} answers {len(scheme.queries[srv])} "
                f"summations but only {scheme.L} rows exist", server=srv)

    ex = extraction if extraction is not None else extract_patterns(scheme)

    slots = [{srv: None for srv in scheme.graph.servers}
             for _ in range(scheme.L)]
    servers_of = [()] * scheme.L
    for pattern in ex.patterns:
        row = slots[pattern.target - 1]
        for srv, idx in pattern.selections.items():
            row[srv] = _combo(row_at(scheme.queries[srv], idx))
        servers_of[pattern.target - 1] = tuple(sorted(pattern.selections))

    # Slots only ever fill, so each server's search for an idle row can
    # resume where its previous one stopped.
    cursor = dict.fromkeys(scheme.graph.servers, 0)
    for srv, idx in ex.side_info:
        combo = _combo(row_at(scheme.queries[srv], idx))
        at = cursor[srv]
        while at < scheme.L and slots[at][srv] is not None:
            at += 1
        if at == scheme.L:
            raise InternalConsistencyError(
                f"no idle row left at server {srv} for side information")
        slots[at][srv] = combo
        cursor[srv] = at + 1

    rows = tuple(ProbRow(mass=1, q=row, pattern_servers=servers)
                 for row, servers in zip(slots, servers_of))
    return ProbabilisticScheme(graph=scheme.graph, theta=scheme.theta,
                               rows=rows, denominator=scheme.L)

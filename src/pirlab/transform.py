"""Turning a deterministic scheme into a single-round probabilistic one.

Each recovery pattern becomes one joint query drawn with probability 1/L;
a server not involved in the drawn pattern receives no request.  Rows keep
the file/sign structure of the source summations but drop subscripts: all
subpacketization lives in the random row choice.  Side-information
summations are folded into rows where their server would otherwise idle,
which preserves every per-server marginal and hence privacy.
"""

from fractions import Fraction

from .errors import InfeasibleError, InternalConsistencyError
from .patterns import extract_patterns
from .scheme import ProbabilisticScheme, ProbRow


def _combo(summation):
    return tuple(sorted((f, sign) for f, _s, sign in summation.terms))


def transform(scheme, extraction=None):
    """Build the probabilistic scheme induced by a deterministic one.

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
            row[srv] = _combo(scheme.queries[srv][idx])
        servers_of[pattern.target - 1] = tuple(sorted(pattern.selections))

    # Slots only ever fill, so each server's search for an idle row can
    # resume where its previous one stopped.
    cursor = dict.fromkeys(scheme.graph.servers, 0)
    for srv, idx in ex.side_info:
        combo = _combo(scheme.queries[srv][idx])
        at = cursor[srv]
        while at < scheme.L and slots[at][srv] is not None:
            at += 1
        if at == scheme.L:
            raise InternalConsistencyError(
                f"no idle row left at server {srv} for side information")
        slots[at][srv] = combo
        cursor[srv] = at + 1

    p = Fraction(1, scheme.L)
    rows = tuple(ProbRow(p=p, q=row, pattern_servers=servers)
                 for row, servers in zip(slots, servers_of))
    return ProbabilisticScheme(graph=scheme.graph, theta=scheme.theta,
                               rows=rows)


def prob_rate(pscheme):
    """1 over the expected number of non-idle answers per retrieval."""
    total = Fraction(0)
    for srv in pscheme.graph.servers:
        total += sum((row.p for row in pscheme.rows
                      if row.q.get(srv) is not None), Fraction(0))
    return 1 / total


def entropy_proxy_ok(scheme):
    """Check each server's summations are linearly independent over GF(2).

    When they are, every answer symbol carries a full symbol of entropy,
    so counting summations equals counting downloaded information.

    Rows in which no (file, subfile) symbol repeats at the server have
    disjoint supports, so they are independent exactly when none is empty.
    Only a server where some symbol repeats needs Gaussian elimination,
    with bit positions local to that server.
    """
    for srv in scheme.graph.servers:
        rows = scheme.queries[srv]
        symbols = [(f, s) for row in rows for f, s, _sign in row.terms]
        if len(set(symbols)) == len(symbols):
            if not all(row.terms for row in rows):
                return False
        elif not _gf2_independent(rows):
            return False
    return True


def _gf2_independent(rows):
    bit_of = {}
    basis = {}  # leading bit -> reduced vector
    for row in rows:
        vec = 0
        for f, s, _sign in row.terms:
            vec ^= 1 << bit_of.setdefault((f, s), len(bit_of))
        while vec:
            lead = vec.bit_length() - 1
            if lead not in basis:
                basis[lead] = vec
                break
            vec ^= basis[lead]
        if vec == 0:
            return False
    return True

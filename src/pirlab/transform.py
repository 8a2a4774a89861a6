"""Turning a deterministic scheme into a single-round probabilistic one.

Each recovery pattern fills one of L slots; a server not involved in the
slot's pattern receives no request.  Slots keep the file/sign structure of
the source summations but drop subscripts: all subpacketization lives in
the random row choice.  Side-information summations are folded into slots
where their server would otherwise idle, which preserves every per-server
marginal and hence privacy.  Without subscripts most slots repeat one
another, so each row of the result is one distinct joint query
(q, pattern_servers), whose mass is the number of slots holding it, over
the denominator L.
"""

from collections import Counter
from fractions import Fraction
from itertools import compress
from operator import lt

from .errors import (InfeasibleError, InternalConsistencyError,
                     ParameterError)
from .patterns import analyze, extract_patterns
from .scheme import ProbabilisticScheme, ProbRow, gc_paused


@gc_paused
def transform(scheme, extraction=None):
    """Build the probabilistic scheme induced by a deterministic one.

    One row per distinct joint query, with the mass of the slots that
    share it.  Requires every server to answer at most L summations;
    otherwise the slots cannot host them all and InfeasibleError names
    the first offender.
    """
    for srv in scheme.graph.servers:
        if len(scheme.queries[srv]) > scheme.L:
            raise InfeasibleError(
                f"server {srv} answers {len(scheme.queries[srv])} "
                f"summations but only {scheme.L} slots exist", server=srv)

    ex = extraction if extraction is not None else extract_patterns(scheme)
    # each distinct combo gets an id from 1 (0 is an idle server), sorted
    # once per distinct (file, sign) sequence of a row.  Pattern t fills
    # slot t; a server idle in it takes its next side-information combo,
    # negated, so equal slots are equal (q, pattern_servers) and merge
    # into one row, in first-seen slot order.
    combo_ids = {}      # combo -> id
    columns = []        # per server, the entry of each slot
    for srv in scheme.graph.servers:
        rows = scheme.queries[srv]
        pairs = tuple(zip(rows.file, rows.sign))
        keys = list(map(pairs.__getitem__,
                        map(slice, rows.starts, rows.ends)))
        key_ids = {key: combo_ids.setdefault(tuple(sorted(key)),
                                             len(combo_ids) + 1)
                   for key in dict.fromkeys(keys)}
        ids = list(map(key_ids.__getitem__, keys))
        side = iter([ids[idx] for at, idx in ex.side_info if at == srv])
        columns.append([ids[idx] if idx >= 0 else -next(side, 0)
                        for idx in ex.selections[srv]])
        if next(side, 0):
            raise InternalConsistencyError(
                f"no idle row left at server {srv} for side information")
    combos = (None, *combo_ids)

    servers = scheme.graph.servers
    rows = tuple(ProbRow(mass=count, q=dict(zip(servers, map(
        combos.__getitem__, map(abs, slot)))), pattern_servers=tuple(
            compress(servers, map((0).__lt__, slot))))
        for slot, count in Counter(zip(*columns)).items())
    return ProbabilisticScheme(graph=scheme.graph, theta=scheme.theta,
                               rows=rows, denominator=scheme.L)


def prob_rate(pscheme):
    """1 over the expected number of non-idle answers per retrieval."""
    answered = sum(row.mass * sum(c is not None for c in row.q.values())
                   for row in pscheme.rows)
    if not answered:
        raise ParameterError("no row queries any server, so the rate "
                             "is undefined")
    return Fraction(pscheme.denominator, answered)


def entropy_proxy_ok(scheme):
    """Check each server's summations are linearly independent over GF(2).

    When they are, every answer symbol carries a full symbol of entropy,
    so counting summations equals counting downloaded information.

    Rows in which no (file, subfile) symbol repeats at the server have
    disjoint supports, so they are independent exactly when none is empty.
    A scheme whose analysis is ok has no repeated symbol at any server
    (condition 2), so the answer follows from the analysis, which is kept
    on the scheme.  Otherwise each server's rows go through Gaussian
    elimination, with bit positions local to that server; an empty row
    reduces to zero there too.
    """
    try:
        ok = analyze(scheme)[0].ok
    except ParameterError:  # a file id outside the graph
        ok = False
    if ok:  # no empty row: every row ends past its start
        return all(all(map(lt, rows.starts, rows.ends))
                   for rows in scheme.queries.values())
    return all(_gf2_independent(scheme.queries[srv])
               for srv in scheme.graph.servers)


def _gf2_independent(rows):
    bit_of = {}
    basis = {}  # leading bit -> reduced vector
    symbols = tuple(zip(rows.file, rows.subfile))
    for start, end in zip(rows.starts, rows.ends):
        vec = 0
        for symbol in symbols[start:end]:
            vec ^= 1 << bit_of.setdefault(symbol, len(bit_of))
        while vec:
            lead = vec.bit_length() - 1
            if lead not in basis:
                basis[lead] = vec
                break
            vec ^= basis[lead]
        if vec == 0:
            return False
    return True

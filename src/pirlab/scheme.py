"""Wire-format data model for deterministic and probabilistic schemes.

A deterministic scheme lists, per server, the summations the server answers
with.  Each summation term is a (file, subfile, sign) triple; subfiles are
1-based.  The scheme is its rows: its recovery patterns (one summation per
involved server, cancelling to a single desired subfile) and its side
information (rows no pattern uses) are read off them by
`patterns.extract_patterns`, and `scheme.patterns` and `scheme.side_info`
are views of that analysis.

A scheme holds each server's rows as one `rows.Rows` block of flat
integer columns; its constructor takes a block or a sequence of Summations
for a server and checks every block (`rows.checked_rows`).

A deterministic scheme document (`pirlab/build/v2`) is its rows: per
server the `file`, `subfile` and `sign` of every term, row after row, and
the `ends` of the rows in those columns.  `from_json` refuses the v1
layout (an array of row objects per server) and a document that stores
patterns or side information, each with one line that names it.

`gc_paused` runs the functions that allocate scheme data in bulk with
CPython's cyclic collector paused.  That is safe because the data holds no
cycles (tuples, dicts and frozen dataclasses that only point down), so
reference counting frees all of it, and the collector would only traverse
it again and again.
"""

import functools
import gc
import math
from dataclasses import dataclass, replace as _dc_replace
from fractions import Fraction

from .errors import (ParameterError, check_combo, check_frac, check_int,
                     check_theta, malformed, server_key)
from .graphs import Graph
from .render import frac_str
# Summation is part of this module's interface too
from .rows import NO_ROWS, Rows, Summation, checked_rows


def gc_paused(fn):
    """`fn` run with the cyclic collector paused.  Only the outermost call
    turns it back on, so nested calls and a caller that turned it off
    themselves keep it off; it is turned back on after a raise too."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return run


# ============================================================
# deterministic scheme
# ============================================================

@dataclass(frozen=True)
class DeterministicScheme:
    graph: Graph
    theta: int
    L: int
    queries: dict

    def __post_init__(self):
        check_theta(self.theta, self.graph)
        if check_int(self.L, "L") < 1:
            raise ParameterError(f"subpacketization must be >= 1, got {self.L}")
        queries = {check_int(srv, "server"): checked_rows(rows, srv)
                   for srv, rows in dict(self.queries).items()}
        for srv in self.graph.servers:
            queries.setdefault(srv, NO_ROWS)
        for srv in queries:
            if srv not in self.graph.servers:
                raise ParameterError(f"no server {srv} in the graph")
        object.__setattr__(self, "queries", queries)

    @property
    def patterns(self):
        """The recovery patterns the rows give (`extract_patterns`)."""
        from .patterns import extract_patterns
        return extract_patterns(self).patterns

    @property
    def side_info(self):
        """The side-information rows the rows give (`extract_patterns`)."""
        from .patterns import extract_patterns
        return extract_patterns(self).side_info

    def replace(self, **overrides):
        """A copy with `overrides`; it is analyzed afresh."""
        return _dc_replace(self, **overrides)

    @gc_paused
    def to_json(self):
        """The `pirlab/build/v2` document: flat integer columns."""
        return {
            "graph": self.graph.to_json(),
            "theta": self.theta,
            "L": self.L,
            "queries": {str(srv): {"file": list(rows.file),
                                   "subfile": list(rows.subfile),
                                   "sign": list(rows.sign),
                                   "ends": list(rows.ends)}
                        for srv, rows in sorted(self.queries.items())},
        }

    @classmethod
    @gc_paused
    def from_json(cls, doc):
        """A scheme from the rows of a `pirlab/build/v2` document."""
        with malformed("scheme"):
            graph = Graph.from_json(doc["graph"])
            theta, L, queries = doc["theta"], doc["L"], doc["queries"].items()
            if any(type(rows) is list for _s, rows in queries):
                raise ParameterError(
                    "scheme document holds the v1 layout, an array of rows "
                    "per server; pirlab reads pirlab/build/v2 columns")
            stored = [key for key in ("patterns", "side_info") if key in doc]
            if stored:
                raise ParameterError(
                    f"scheme document stores {' and '.join(stored)}; a "
                    f"pirlab/build/v2 document holds its rows alone")
            return cls(graph=graph, theta=theta, L=L, queries={
                server_key(s): Rows(cols["file"], cols["subfile"],
                                    cols["sign"], cols["ends"])
                for s, cols in queries})


# ============================================================
# probabilistic scheme
# ============================================================

@dataclass(frozen=True)
class ProbRow:
    mass: int
    q: dict
    pattern_servers: tuple = ()

    def __post_init__(self):
        check_int(self.mass, "mass")
        object.__setattr__(self, "q", {
            check_int(srv, "server"):
                None if combo is None else check_combo(combo, srv)
            for srv, combo in dict(self.q).items()})
        servers = tuple(check_int(s, "pattern server")
                        for s in self.pattern_servers)
        if len(set(servers)) != len(servers):
            raise ParameterError(f"pattern servers {list(servers)} name a "
                                 f"server twice")
        object.__setattr__(self, "pattern_servers", servers)


@dataclass(frozen=True)
class ProbabilisticScheme:
    """Rows of probability mass / denominator, reduced by their gcd."""
    graph: Graph
    theta: int
    rows: tuple
    denominator: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        check_theta(self.theta, self.graph)
        den = self.denominator
        if check_int(den, "denominator") < 1:
            raise ParameterError(f"denominator must be >= 1, got {den}")
        for i, row in enumerate(self.rows):
            if row.mass < 0:
                raise ParameterError(f"row {i} has negative probability "
                                     f"{frac_str(self.p(row))}")
            if None in map(row.q.get, row.pattern_servers):
                outside = set(row.pattern_servers) - set(self.graph.servers)
                raise ParameterError(
                    f"row {i} recovers through server {min(outside)}, which "
                    f"is not in the graph" if outside else f"row {i} "
                    f"recovers through a server it leaves idle")
        self._check_combos()
        total = sum(row.mass for row in self.rows)
        if total != den:
            raise ParameterError(f"row probabilities sum to "
                                 f"{frac_str(Fraction(total, den))}, not 1")
        g = math.gcd(den, *(row.mass for row in self.rows))
        if g > 1:
            object.__setattr__(self, "rows", tuple(
                _dc_replace(row, mass=row.mass // g) for row in self.rows))
            object.__setattr__(self, "denominator", den // g)

    def p(self, row):
        """The probability of drawing `row`, one of the scheme's rows."""
        return Fraction(row.mass, self.denominator)

    def _check_combos(self):
        """Every combo names only files stored at the server it goes to."""
        extra = set().union(*(row.q for row in self.rows))
        extra.difference_update(self.graph.servers)
        if extra:
            raise ParameterError(f"a row queries server {min(extra)}, "
                                 f"which is not in the graph")
        for v in self.graph.servers:
            stored = {f for f, _ in self.graph.copies(v)}
            # each distinct combo once: rows share few of them
            for combo in {row.q.get(v) for row in self.rows}:
                bad = [f for f, _ in combo or () if f not in stored]
                if bad:
                    i = next(i for i, row in enumerate(self.rows)
                             if row.q.get(v) == combo)
                    raise ParameterError(f"row {i} asks server {v} for file "
                                         f"{bad[0]}, which it does not store")

    def to_json(self):
        return {
            "graph": self.graph.to_json(),
            "theta": self.theta,
            "rows": [{"p": frac_str(self.p(row)),
                      "q": {str(srv): None if combo is None
                            else [[f, sign] for f, sign in combo]
                            for srv, combo in sorted(row.q.items())},
                      "pattern_servers": list(row.pattern_servers)}
                     for row in self.rows],
        }

    @classmethod
    def from_json(cls, doc):
        with malformed("probabilistic"):
            graph, theta = Graph.from_json(doc["graph"]), doc["theta"]
            ps = [check_frac(row["p"], "p") for row in doc["rows"]]
            den = math.lcm(*(p.denominator for p in ps))
            return cls(graph=graph, theta=theta, denominator=den, rows=tuple(
                ProbRow(mass=p.numerator * (den // p.denominator),
                        q={server_key(s): c for s, c in row["q"].items()},
                        pattern_servers=row.get("pattern_servers", ()))
                for p, row in zip(ps, doc["rows"])))

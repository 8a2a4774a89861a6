"""Wire-format data model for deterministic and probabilistic schemes.

A deterministic scheme lists, per server, the summations the server answers
with.  Each summation term is a (file, subfile, sign) triple; subfiles are
1-based.  Recovery patterns group one summation per involved server such
that the group cancels to a single desired subfile.  Side information rows
are downloaded but not used by any pattern.

`gc_paused` runs the functions that allocate scheme data in bulk with
CPython's cyclic collector paused.  That is safe because the data holds no
cycles (tuples, dicts and frozen dataclasses that only point down), so
reference counting frees all of it, and the collector would only traverse
it again and again.
"""

import functools
import gc
import math
from collections import Counter
from dataclasses import dataclass, field, replace as _dc_replace
from fractions import Fraction

from .errors import (ParameterError, check_combo, check_frac, check_int,
                     check_theta, malformed, server_key)
from .graphs import Graph
from .render import frac_str


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
# summations and recovery patterns
# ============================================================

@dataclass(frozen=True, slots=True)
class Summation:
    terms: tuple

    def __post_init__(self):
        # a checked term that is already a tuple is kept, not copied
        norm = []
        for term in self.terms:
            if len(term) != 3:
                raise ParameterError(f"term {list(term)} is not "
                                     f"[file, subfile, sign]")
            f, s, sign = term
            if not (type(f) is int and f >= 0):
                raise ParameterError(f"bad file id in term {term}")
            if not (type(s) is int and s >= 1):
                raise ParameterError(f"bad subfile index in term {term}")
            if not (type(sign) is int and sign in (1, -1)):
                raise ParameterError(f"bad sign in term {term}")
            norm.append(term if type(term) is tuple else (f, s, sign))
        norm.sort()
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def files(self):
        return tuple(f for f, _, _ in self.terms)

    def to_json(self):
        # json.dumps writes the term tuples as arrays
        return {"terms": self.terms}

    @classmethod
    def from_json(cls, doc):
        return cls(tuple(map(tuple, doc["terms"])))


def row_shapes(rows):
    """How many rows have each shape: the sorted tuple of the files a row
    sums (a file twice in a row is there twice)."""
    return Counter(row.files for row in rows)


@dataclass(frozen=True, slots=True)
class RecoveryPattern:
    target: int
    selections: dict
    step: int = None
    pattern_class: str = None

    def __post_init__(self):
        check_int(self.target, "pattern target")
        sel = dict(self.selections)
        for srv, idx in sel.items():
            if type(srv) is not int or type(idx) is not int:
                check_int(srv, "server")
                check_int(idx, "pattern selection")
        object.__setattr__(self, "selections", sel)
        if self.step is not None:
            check_int(self.step, "pattern step")
        if not (self.pattern_class is None or type(self.pattern_class) is str):
            raise ParameterError(f"pattern class must be a string, "
                                 f"got {self.pattern_class!r}")

    def to_json(self):
        doc = {"target": self.target,
               "selections": {str(srv): idx
                              for srv, idx in sorted(self.selections.items())}}
        if self.step is not None:
            doc["step"] = self.step
        if self.pattern_class is not None:
            doc["class"] = self.pattern_class
        return doc

    @classmethod
    def from_json(cls, doc):
        return cls(target=doc["target"],
                   selections={server_key(s): i
                               for s, i in doc["selections"].items()},
                   step=doc.get("step"), pattern_class=doc.get("class"))


# ============================================================
# deterministic scheme
# ============================================================

@dataclass(frozen=True)
class DeterministicScheme:
    graph: Graph
    theta: int
    L: int
    queries: dict
    patterns: tuple = None
    side_info: tuple = ()

    def __post_init__(self):
        check_theta(self.theta, self.graph)
        if check_int(self.L, "L") < 1:
            raise ParameterError(f"subpacketization must be >= 1, got {self.L}")
        queries = {check_int(srv, "server"): tuple(rows)
                   for srv, rows in dict(self.queries).items()}
        for srv in self.graph.servers:
            queries.setdefault(srv, ())
        for srv, rows in queries.items():
            if srv not in self.graph.servers:
                raise ParameterError(f"no server {srv} in the graph")
            for row in rows:
                if not isinstance(row, Summation):
                    raise ParameterError("queries must contain Summation rows")
        object.__setattr__(self, "queries", queries)
        if self.patterns is not None:
            object.__setattr__(self, "patterns", tuple(self.patterns))
            for p in self.patterns:
                if not 1 <= p.target <= self.L:
                    raise ParameterError(f"pattern target {p.target} is "
                                         f"outside 1..{self.L}")
                for srv, idx in p.selections.items():
                    if not 0 <= idx < len(queries.get(srv, ())):
                        raise ParameterError(
                            f"pattern {p.target} references missing row "
                            f"{idx} at server {srv}")
        side = () if self.side_info is None else tuple(
            (check_int(s, "side info server"), check_int(i, "side info index"))
            for s, i in self.side_info)
        for srv, idx in side:
            if not 0 <= idx < len(queries.get(srv, ())):
                raise ParameterError(
                    f"side info references missing row {idx} at server {srv}")
        object.__setattr__(self, "side_info", side)

    def replace(self, **overrides):
        return _dc_replace(self, **overrides)

    @gc_paused
    def to_json(self):
        doc = {
            "graph": self.graph.to_json(),
            "theta": self.theta,
            "L": self.L,
            "queries": {str(srv): [row.to_json() for row in rows]
                        for srv, rows in sorted(self.queries.items())},
        }
        if self.patterns is not None:
            doc["patterns"] = [p.to_json() for p in self.patterns]
        doc["side_info"] = [{"server": s, "index": i} for s, i in self.side_info]
        return doc

    @classmethod
    @gc_paused
    def from_json(cls, doc):
        with malformed("scheme"):
            return cls(graph=Graph.from_json(doc["graph"]),
                       theta=doc["theta"], L=doc["L"],
                       queries={server_key(s): map(Summation.from_json, rows)
                                for s, rows in doc["queries"].items()},
                       patterns=tuple(map(RecoveryPattern.from_json,
                                          doc["patterns"]))
                       if "patterns" in doc else None,
                       side_info=tuple((e["server"], e["index"])
                                       for e in doc.get("side_info", ())))


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

"""Wire-format data model for deterministic and probabilistic schemes.

A deterministic scheme lists, per server, the summations the server answers
with.  Each summation term is a (file, subfile, sign) triple; subfiles are
1-based.  Recovery patterns group one summation per involved server such
that the group cancels to a single desired subfile.  Side information rows
are downloaded but not used by any pattern.
"""

from collections import defaultdict
from dataclasses import dataclass, field, replace as _dc_replace
from fractions import Fraction

from .errors import ParameterError, json_int, json_pair, malformed
from .graphs import Graph
from .render import frac_str, parse_frac


# ============================================================
# summations and recovery patterns
# ============================================================

@dataclass(frozen=True)
class Summation:
    terms: tuple

    def __post_init__(self):
        # One pass over the sorted terms with exact type tests; a term that
        # fails them (or terms that do not sort) take the checks below,
        # which name the offending term.
        try:
            terms = sorted(self.terms)
            for term in terms:
                f, s, sign = term
                if not (type(term) is tuple and type(f) is int and f >= 0
                        and type(s) is int and s >= 1
                        and type(sign) is int and (sign == 1 or sign == -1)):
                    break
            else:
                object.__setattr__(self, "terms", tuple(terms))
                return
        except (TypeError, ValueError):
            pass
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
            norm.append((f, s, sign))
        object.__setattr__(self, "terms", tuple(sorted(norm)))

    @property
    def files(self):
        return tuple(f for f, _, _ in self.terms)

    def to_json(self):
        return {"terms": [[f, s, sign] for f, s, sign in self.terms]}

    @classmethod
    def from_json(cls, doc):
        return cls(tuple(map(tuple, doc["terms"])))


@dataclass(frozen=True)
class RecoveryPattern:
    target: int
    selections: dict
    step: int = None
    pattern_class: str = None

    def __post_init__(self):
        sel = {int(srv): int(idx) for srv, idx in dict(self.selections).items()}
        object.__setattr__(self, "selections", sel)

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
        step = doc.get("step")
        return cls(target=json_int(doc["target"], "pattern target"),
                   selections={int(s): json_int(i, "pattern selection")
                               for s, i in doc["selections"].items()},
                   step=None if step is None
                   else json_int(step, "pattern step"),
                   pattern_class=doc.get("class"))


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
        if not 0 <= self.theta < len(self.graph.edges):
            raise ParameterError(f"theta {self.theta} is not a file id")
        if self.L < 1:
            raise ParameterError(f"subpacketization must be >= 1, got {self.L}")
        queries = {int(srv): tuple(rows)
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
                for srv, idx in p.selections.items():
                    if not 0 <= idx < len(queries.get(srv, ())):
                        raise ParameterError(
                            f"pattern {p.target} references missing row "
                            f"{idx} at server {srv}")
        side = self.side_info
        side = () if side is None else tuple((int(s), int(i)) for s, i in side)
        for srv, idx in side:
            if not 0 <= idx < len(queries.get(srv, ())):
                raise ParameterError(
                    f"side info references missing row {idx} at server {srv}")
        object.__setattr__(self, "side_info", side)

    def replace(self, **overrides):
        return _dc_replace(self, **overrides)

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
    def from_json(cls, doc):
        with malformed("scheme"):
            graph = Graph.from_json(doc["graph"])
            queries = {int(srv): tuple(map(Summation.from_json, rows))
                       for srv, rows in doc["queries"].items()}
            patterns = None
            if "patterns" in doc:
                patterns = tuple(map(RecoveryPattern.from_json,
                                     doc["patterns"]))
            side = tuple((json_int(e["server"], "side info server"),
                          json_int(e["index"], "side info index"))
                         for e in doc.get("side_info", ()))
            return cls(graph=graph, theta=json_int(doc["theta"], "theta"),
                       L=json_int(doc["L"], "L"),
                       queries=queries, patterns=patterns, side_info=side)


# ============================================================
# probabilistic scheme
# ============================================================

@dataclass(frozen=True)
class ProbRow:
    p: Fraction
    q: dict
    pattern_servers: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        q = {}
        for srv, combo in dict(self.q).items():
            if combo is not None:
                combo = tuple((int(f), int(sign)) for f, sign in combo)
                for pair in combo:
                    if not (pair[1] == 1 or pair[1] == -1):
                        raise ParameterError(f"bad sign in combo entry "
                                             f"{list(pair)} for server {srv}")
            q[int(srv)] = combo
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pattern_servers",
                           tuple(int(s) for s in self.pattern_servers))

    def to_json(self):
        return {
            "p": frac_str(self.p),
            "q": {str(srv): None if combo is None
                  else [[f, sign] for f, sign in combo]
                  for srv, combo in sorted(self.q.items())},
            "pattern_servers": list(self.pattern_servers),
        }

    @classmethod
    def from_json(cls, doc):
        return cls(p=parse_frac(doc["p"]),
                   q={int(s): None if combo is None
                      else tuple(map(json_pair, combo))
                      for s, combo in doc["q"].items()},
                   pattern_servers=tuple(
                       json_int(s, "pattern server")
                       for s in doc.get("pattern_servers", ())))


@dataclass(frozen=True)
class ProbabilisticScheme:
    graph: Graph
    theta: int
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not 0 <= self.theta < len(self.graph.edges):
            raise ParameterError(f"theta {self.theta} is not a file id")
        # numerators summed per denominator: one pass, and few Fraction
        # additions, since rows tend to share a denominator
        mass = defaultdict(int)
        for i, row in enumerate(self.rows):
            p = row.p
            if p.numerator < 0:
                raise ParameterError(f"row {i} has negative probability "
                                     f"{frac_str(p)}")
            mass[p.denominator] += p.numerator
            if None in map(row.q.get, row.pattern_servers):
                raise ParameterError(f"row {i} recovers through a server "
                                     f"it leaves idle")
        self._check_combos()
        total = sum(Fraction(num, den) for den, num in mass.items())
        if total != 1:
            raise ParameterError(f"row probabilities sum to "
                                 f"{frac_str(total)}, not 1")

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
            "rows": [row.to_json() for row in self.rows],
        }

    @classmethod
    def from_json(cls, doc):
        with malformed("probabilistic"):
            return cls(graph=Graph.from_json(doc["graph"]),
                       theta=json_int(doc["theta"], "theta"),
                       rows=tuple(map(ProbRow.from_json, doc["rows"])))

"""Storage topology: vertices are servers, edges are replicated files.

Files are identified by their position in the edge tuple, so serialization
must preserve edge order.  Vertices are labeled 1..n to match the server
numbering used in scheme tables; file ids are 0-based.
"""

import functools
import itertools
from collections import namedtuple

from .errors import (Checked, ParameterError, UnsupportedSizeError,
                     check_int, check_replication, malformed)

MATCHING_FILE_CAP = 64
GRAPH_FILE_CAP = 10_000  # `general --graph star:10000 --enumerate`: ~0.3 s
GRAPH_VERTEX_CAP = GRAPH_FILE_CAP + 1  # so star:GRAPH_FILE_CAP fits


def _check_size(vertices, files):
    """Refuse a graph past the vertex or the file cap."""
    if vertices > GRAPH_VERTEX_CAP or files > GRAPH_FILE_CAP:
        raise UnsupportedSizeError(
            f"graphs are capped at {GRAPH_VERTEX_CAP} vertices and "
            f"{GRAPH_FILE_CAP} files, got {vertices} and {files}")


# ============================================================
# graph type
# ============================================================

class Graph(Checked, namedtuple("Graph", "n edges multigraph")):
    def __new__(cls, n, edges=(), multigraph=False):
        if check_int(n, "n") < 1:
            raise ParameterError(f"vertex count must be a positive int, "
                                 f"got {n}")
        if type(multigraph) is not bool:
            raise ParameterError(f"multigraph must be true or false, "
                                 f"got {multigraph!r}")
        edges = tuple((check_int(u, "edge end"), check_int(v, "edge end"))
                      for u, v in edges)
        _check_size(n, len(edges))
        seen = set()
        for u, v in edges:
            if not 1 <= u < v <= n:
                raise ParameterError(
                    f"edge ({u},{v}) must satisfy 1 <= u < v <= {n}")
            if (u, v) in seen and not multigraph:
                raise ParameterError(
                    f"duplicate edge ({u},{v}) requires the multigraph flag")
            seen.add((u, v))
        return super().__new__(cls, n, edges, multigraph)

    # ---- basic queries ------------------------------------------------

    @property
    def servers(self):
        return range(1, self.n + 1)

    @property
    def files(self):
        return range(len(self.edges))

    def degree(self, v):
        return len(self._copies.get(v, ()))

    def max_degree(self):
        return max(map(len, self._copies.values()), default=0)

    def incident(self, v):
        """File ids stored at server v, in file-id order."""
        return tuple(fid for fid, _ in self._copies.get(v, ()))

    def endpoints(self, file_id):
        try:
            return self.edges[file_id]
        except IndexError:
            raise ParameterError(f"no file with id {file_id}")

    def file_id(self, u, v):
        """File id for edge (u, v); first copy wins on multigraphs."""
        key = (min(u, v), max(u, v))
        try:
            return self._file_ids[key]
        except KeyError:
            raise ParameterError(f"no file stored on edge {key}")

    @functools.cached_property
    def _file_ids(self):
        # Kept in the instance __dict__, outside the tuple's fields, so
        # equality, hashing, repr and to_json do not see it.
        ids = {}
        for i, e in enumerate(self.edges):
            ids.setdefault(e, i)
        return ids

    def copies(self, v):
        """Server v's file copies as (file id, at_lower) pairs.

        `at_lower` says whether v is the lower endpoint of that file's
        edge.  Pairs come in file-id order, as in `incident`.
        """
        return self._copies[v]

    @functools.cached_property
    def _copies(self):
        # cached like _file_ids, outside the tuple's fields
        out = {v: [] for v in self.servers}
        for fid, (lo, hi) in enumerate(self.edges):
            out[lo].append((fid, True))
            out[hi].append((fid, False))
        return {v: tuple(pairs) for v, pairs in out.items()}

    # ---- constructions ------------------------------------------------

    def extend(self, r):
        """Replicate every file r times (replication-r multigraph)."""
        check_replication(r)
        _check_size(self.n, len(self.edges) * r)
        edges = tuple(e for e in self.edges for _ in range(r))
        return Graph(self.n, edges, multigraph=True)

    # ---- serialization ------------------------------------------------

    def to_json(self):
        return {
            "n": self.n,
            "multigraph": self.multigraph,
            "edges": [[u, v] for u, v in self.edges],
        }

    @classmethod
    def from_json(cls, doc):
        with malformed("graph"):
            return cls(multigraph=doc.get("multigraph", False), n=doc["n"],
                       edges=doc["edges"])


# ============================================================
# standard families
# ============================================================

def make_graph(family, params=()):
    params = list(params)
    if family == "complete":
        (n,) = _int_params(family, params, 1)
        if n < 2:
            raise ParameterError("complete graph needs n >= 2")
        _check_size(n, n * (n - 1) // 2)
        return Graph(n, tuple(itertools.combinations(range(1, n + 1), 2)))
    if family == "star":
        (leaves,) = _int_params(family, params, 1)
        if leaves < 1:
            raise ParameterError("star needs at least one leaf")
        _check_size(leaves + 1, leaves)
        return Graph(leaves + 1, tuple((1, v) for v in range(2, leaves + 2)))
    if family == "cycle":
        (n,) = _int_params(family, params, 1)
        if n < 3:
            raise ParameterError("cycle needs n >= 3")
        _check_size(n, n)
        edges = [(v, v + 1) for v in range(1, n)] + [(1, n)]
        return Graph(n, tuple(sorted(edges)))
    if family == "path":
        (n,) = _int_params(family, params, 1)
        if n < 2:
            raise ParameterError("path needs n >= 2")
        _check_size(n, n - 1)
        return Graph(n, tuple((v, v + 1) for v in range(1, n)))
    if family == "complete_bipartite":
        a, b = _int_params(family, params, 2)
        if a < 1 or b < 1:
            raise ParameterError("complete_bipartite needs positive part sizes")
        _check_size(a + b, a * b)
        edges = tuple((u, v) for u in range(1, a + 1)
                      for v in range(a + 1, a + b + 1))
        return Graph(a + b, edges)
    raise ParameterError(f"unknown graph family {family!r}")


def _int_params(family, params, count):
    if len(params) != count:
        raise ParameterError(f"{family} expects {count} parameter(s), got {params}")
    try:
        return [int(p) for p in params]
    except (TypeError, ValueError):
        raise ParameterError(f"{family} parameters must be integers: {params}")


# ============================================================
# maximum matching (exact)
# ============================================================

def matching_number(g):
    """Size of a maximum matching, by exact search with memoization."""
    if len(g.edges) > MATCHING_FILE_CAP:
        raise UnsupportedSizeError(
            f"matching computation capped at {MATCHING_FILE_CAP} files, "
            f"got {len(g.edges)}")
    adj = {}
    for u, v in g.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    @functools.lru_cache(maxsize=None)
    def best(avail):
        live = frozenset(v for v in avail if adj[v] & avail)
        if live != avail:
            return best(live)
        if not live:
            return 0
        v = min(live)
        rest = live - {v}
        result = best(rest)  # v stays unmatched
        for u in sorted(adj[v] & live):
            result = max(result, 1 + best(rest - {u}))
        return result

    return best(frozenset(adj))

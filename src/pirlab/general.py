"""Single-symbol randomized retrieval on arbitrary 2-replicated graphs.

Every file gets two private coin flips: an inclusion bit mu and an
orientation bit lam.  The two copies of a file are always requested with
opposite signs, so summing all answers cancels every file except the
desired one, which is deliberately included an odd number of times (its
lower endpoint participates when mu is 1, the higher one when mu is 0).
Each server only ever sees independent uniform bits, so the per-server
answer distribution is identical for every desired file.

The bits come from `random_bits`, which returns the bits of as many
`rng.randrange(2)` calls, drawn in bulk, and leaves `rng` where those calls
would.  That holds for a `random.Random` whose `getrandbits` is not
overridden: `randrange(2)` then reads the top two bits of one 32-bit
Mersenne Twister word per try.
"""

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ParameterError, UnsupportedSizeError, check_combo,
                     check_int, check_q, check_theta, malformed, server_key)
from .graphs import Graph

DISTRIBUTION_DEGREE_CAP = 12

# sampled queries held in memory at once by sample_combo_counts
_SAMPLE_BLOCK = 4096

# random_bits: bit 6 of a word's top byte, for bytes.translate; a top byte
# with bit 7 set is a word that randrange(2) rejects
_BIT6 = bytes(b >> 6 & 1 for b in range(256))
_REJECTED = bytes(range(128, 256))


@dataclass(frozen=True)
class GeneralScheme:
    graph: Graph
    theta: int
    q: int
    mu: tuple
    lam: tuple

    def __post_init__(self):
        check_theta(self.theta, self.graph)
        check_q(self.q)
        m = len(self.graph.edges)
        for name in ("mu", "lam"):
            bits = tuple(check_int(b, f"{name} bit")
                         for b in getattr(self, name))
            if len(bits) != m:
                raise ParameterError(f"{name} must carry one bit per file "
                                     f"({m}), got {len(bits)}")
            if bits.count(0) + bits.count(1) != m:
                raise ParameterError(f"{name} entries must be 0 or 1")
            object.__setattr__(self, name, bits)

    @functools.cached_property
    def queries(self):
        """Each server's query combo, its (file, sign) terms in file-id
        order; cached like `Graph._copies`, outside the dataclass fields."""
        queries = {}
        for v in self.graph.servers:
            terms = (_query_term(fid, self.theta, at_lower, self.mu[fid],
                                 self.lam[fid], self.q)
                     for fid, at_lower in self.graph.copies(v))
            queries[v] = tuple(term for term in terms if term is not None)
        return queries

    def to_json(self):
        return {
            "graph": self.graph.to_json(),
            "theta": self.theta,
            "q": self.q,
            "mu": list(self.mu),
            "lam": list(self.lam),
            "queries": {str(v): [[f, sign] for f, sign in combo]
                        for v, combo in self.queries.items()},
        }

    @classmethod
    def from_json(cls, doc):
        """The scheme of the document's bits; its `queries` must be the
        ones those bits give."""
        with malformed("scheme"):
            scheme = cls(graph=Graph.from_json(doc["graph"]),
                         theta=doc["theta"], q=doc["q"], mu=doc["mu"],
                         lam=doc["lam"])
            queries = {server_key(v): check_combo(combo, v)
                       for v, combo in doc["queries"].items()}
        if queries != scheme.queries:
            raise ParameterError("queries do not follow from the mu and "
                                 "lam bits")
        return scheme


def _query_term(fid, theta, at_lower, mu_bit, lam_bit, q):
    """The (file, sign) term one copy of a file adds to its server's query.

    Returns None when that copy stays out.  Both copies of a file follow
    mu, except the higher copy of the desired file, which takes the
    opposite choice so that exactly one copy of it survives the sum.  The
    lower copy's sign is (-1)^lam and the higher copy's the opposite; at
    q = 2 every sign is +1.
    """
    if mu_bit == (fid == theta and not at_lower):
        return None
    return (fid, 1 if q == 2 else (-1) ** (lam_bit + (not at_lower)))


def build_general_query(graph, theta, mu, lam, q=2):
    """The scheme that explicit randomness bits give."""
    return GeneralScheme(graph=graph, theta=theta, q=q, mu=mu, lam=lam)


def random_bits(rng, count):
    """The bits of `count` calls of `rng.randrange(2)`, as bytes.

    `rng` is left in the state those calls leave it in, for a
    `random.Random` whose `getrandbits` is not overridden.  randrange(2)
    reads getrandbits(2), the top two bits of one 32-bit word, and reads
    again while they make 2 or 3; so each accepted word gives bit 30.
    getrandbits(32 * w) returns the next w words, the first one least
    significant.  A round draws one word per missing bit, and every call
    reads at least one word, so no round reads past the last word the
    calls would read.
    """
    bits = b""
    while len(bits) < count:
        words = count - len(bits)
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        bits += top.translate(_BIT6, _REJECTED)
    return bits


def random_general_scheme(graph, theta, rng, q=2):
    m = len(graph.edges)
    bits = random_bits(rng, 2 * m)
    return build_general_query(graph, theta, bits[:m], bits[m:], q=q)


def sample_combo_counts(graph, theta, trials, rng, q=2):
    """Count each server's query combo over `trials` sampled queries.

    Draws the bits that `trials` calls of random_general_scheme draw (per
    query, m for mu and then m for lam, through `random_bits`), so the RNG
    stream is the same, but assembles no GeneralScheme.  For a
    `random.Random` whose `getrandbits` is not overridden, those are the
    bits and the final state of one `randrange(2)` call per bit.  Each
    server counts the patterns of the bits its combo depends on: the mu
    bit of each of its files, and the lam bit where lam changes the file's
    term (never at q = 2).  A pattern is packed into one byte per 8 bits.
    A query's key is its one byte for patterns of up to 8 bits, so the
    counting runs over `bytes`, and the tuple of its group bytes past 8
    bits; a server with no bits counts key 0.  Each distinct key is turned
    into a combo once.
    Returns {server: Counter(combo -> count)}, combos in first-seen order.
    """
    check_theta(theta, graph)
    check_q(q)
    m = len(graph.edges)
    width = 2 * m  # bits per query
    servers = []
    for v in graph.servers:
        copies = graph.copies(v)
        # a pattern holds the mu bits of the server's files, then the lam
        # bits that change a term; a file whose lam changes nothing has a
        # table whose rows ignore the lam bit, and reads bit 0 for it
        offsets = [fid for fid, _ in copies]
        readers = []
        for mu_at, (fid, at_lower) in enumerate(copies):
            table = [[_query_term(fid, theta, at_lower, mu_bit, lam_bit, q)
                      for lam_bit in (0, 1)] for mu_bit in (0, 1)]
            lam_at = 0
            if any(row[0] != row[1] for row in table):
                lam_at = len(offsets)
                offsets.append(m + fid)
            readers.append((table, mu_at, lam_at))
        groups = [offsets[g:g + 8] for g in range(0, len(offsets), 8)]
        servers.append((v, groups, readers, Counter()))
    done = 0
    while done < trials:
        block = min(_SAMPLE_BLOCK, trials - done)
        bits = random_bits(rng, block * width)
        done += block
        for _v, groups, _readers, patterns in servers:
            # bit j of a query's byte in group g is its bit offsets[8g + j];
            # each byte of bits is 0 or 1, so the shifts never carry
            packed = [sum(int.from_bytes(bits[i::width], "big") << j
                          for j, i in enumerate(group))
                      .to_bytes(block, "big") for group in groups]
            patterns.update(packed[0] if len(packed) == 1 else
                            zip(*packed) if packed else bytes(block))

    counts = {}
    for v, groups, readers, patterns in servers:
        combos = counts[v] = Counter()
        for key, count in patterns.items():
            if type(key) is tuple:  # group g weighs 2^(8g)
                key = int.from_bytes(bytes(key), "little")
            combo = tuple([
                term for table, mu_at, lam_at in readers
                if (term := table[key >> mu_at & 1][key >> lam_at & 1])
                is not None])
            combos[combo] += count
    return counts


def answers(scheme, contents):
    """Each server's single answer symbol, as an integer mod q."""
    if len(contents) != len(scheme.graph.edges):
        raise ParameterError("contents must hold one symbol per file")
    return {v: sum(sign * contents[f] for f, sign in combo) % scheme.q
            for v, combo in scheme.queries.items()}


def reconstruct(scheme, answer_map):
    """Recover the desired symbol from the full answer map."""
    total = sum(answer_map.values()) % scheme.q
    # every other file cancels, and the one copy of the desired file that
    # is queried enters with a sign that is its own inverse mod q
    theta = scheme.theta
    coef, = (sign for v in scheme.graph.endpoints(theta)
             for f, sign in scheme.queries[v] if f == theta)
    return (total * coef) % scheme.q


def general_rate(graph):
    """1 over the expected number of non-idle servers per retrieval."""
    if not graph.edges:
        raise ParameterError("a graph with no files has no retrieval rate")
    total = sum(1 - Fraction(1, 2) ** graph.degree(v)
                for v in graph.servers)
    return 1 / total


def answer_counts(graph, theta, server, q=2):
    """Exact distribution of one server's query combo, as integer weights.

    Returns {combo: weight}; the weights sum to 4^degree.  Each incident
    file carries its own uniform (mu, lam) pair, so the combo is a product
    of independent per-file factors: each of the four equally likely codes
    adds one term or nothing.  The distribution is built as the product of
    those marginals, in O(support x degree) steps.  The support itself
    still grows as 2^degree (3^degree for q > 2), so degrees past
    DISTRIBUTION_DEGREE_CAP are refused.  The result is identical for
    every theta, which is the privacy statement in exact form.
    """
    check_theta(theta, graph)
    check_q(q)
    if server not in graph.servers:
        raise ParameterError(f"server {server} is not a vertex")
    copies = graph.copies(server)
    if len(copies) > DISTRIBUTION_DEGREE_CAP:
        raise UnsupportedSizeError(
            f"degree {len(copies)} exceeds the enumeration cap "
            f"{DISTRIBUTION_DEGREE_CAP}")

    # Terms are appended in file-id order, so every combo is already
    # sorted, and no two (combo, term) pairs collide.
    counts = {(): 1}
    for fid, at_lower in copies:
        marginal = Counter(
            _query_term(fid, theta, at_lower, code >> 1, code & 1, q)
            for code in range(4))
        counts = {combo if term is None else combo + (term,): count * k
                  for combo, count in counts.items()
                  for term, k in marginal.items()}
    return counts


def answer_distribution(graph, theta, server, q=2):
    """`answer_counts` as probabilities: {combo: Fraction}."""
    counts = answer_counts(graph, theta, server, q=q)
    total = 4 ** len(graph.copies(server))
    return {combo: Fraction(count, total) for combo, count in counts.items()}

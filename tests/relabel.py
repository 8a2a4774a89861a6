"""Test-side relabeling of a K_n scheme by a permutation of its servers.

For theta the file on edge (a, b), a < b, pi_theta maps server 1 to a,
server 2 to b and the other servers, in increasing order, to the rest in
increasing order.  It maps edge (1, 2), file 0, to theta, so relabeling the
theta = 0 scheme by pi_theta gives a scheme for theta.
"""

from pirlab.scheme import DeterministicScheme, Summation


def relabel(scheme, theta):
    """`scheme` with each server v renamed pi_theta(v).

    File ids follow their edges and each row's terms are re-sorted; the
    order of each server's rows is kept.
    """
    graph = scheme.graph
    a, b = graph.endpoints(theta)
    perm = dict(zip(graph.servers,
                    [a, b, *(v for v in graph.servers if v not in (a, b))]))
    files = [graph.file_id(perm[u], perm[v]) for u, v in graph.edges]

    def row(summation):
        return Summation(tuple((files[f], s, sign)
                               for f, s, sign in summation.terms))

    return DeterministicScheme(
        graph=graph, theta=files[scheme.theta], L=scheme.L,
        queries={perm[v]: tuple(map(row, rows))
                 for v, rows in scheme.queries.items()})

"""Reference readings of a deterministic scheme for the tests.

`v1_document` is the `pirlab/build/v1` writer that `DeterministicScheme.
to_json` replaced: one `{"terms": [[file, subfile, sign], ...]}` object per
row, a list of pattern objects and a list of side-information objects.
`from_json` still reads that layout, and the pins recorded from v1
documents are checked on documents written by it.  `class_counts` tallies
a scheme's pattern steps and classes.
"""

from collections import Counter

from pirlab.builder import build_scheme
from pirlab.render import canonical_json, meta_header


def v1_document(scheme):
    """The v1 document of `scheme`, with lists where JSON has arrays."""
    doc = {
        "graph": scheme.graph.to_json(),
        "theta": scheme.theta,
        "L": scheme.L,
        "queries": {str(srv): [{"terms": [list(t) for t in row.terms]}
                               for row in rows]
                    for srv, rows in sorted(scheme.queries.items())},
    }
    if scheme.patterns is not None:
        doc["patterns"] = [p.to_json() for p in scheme.patterns]
    doc["side_info"] = [{"server": s, "index": i}
                        for s, i in scheme.side_info]
    return doc


def v1_build_text(n, theta):
    """What `pirlab build --n n --theta theta` wrote with the v1 writer."""
    doc = v1_document(build_scheme(n, theta))
    doc["meta"] = meta_header("build", {"n": n, "theta": theta})
    return canonical_json(doc) + "\n"


def class_counts(scheme):
    """Pattern tallies as {step: {class: count}}."""
    out = {}
    for p in scheme.patterns or ():
        out.setdefault(p.step, Counter())[p.pattern_class] += 1
    return {step: dict(counter) for step, counter in sorted(out.items())}

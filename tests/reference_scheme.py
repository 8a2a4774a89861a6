"""Reference writings of a deterministic scheme for the tests.

`v1_document` is the `pirlab/build/v1` writer that `DeterministicScheme.
to_json` replaced: one `{"terms": [[file, subfile, sign], ...]}` object per
row, a list of pattern objects and a list of side-information objects.
`v2_document` is the v2 document `build` wrote while a scheme stored its
patterns: `to_json`'s columns, then a pattern `target`, `step`, `class`
and per-server `selections` column and a side-information `server` and
`index` column.  `from_json` refuses both, so they stand for the
documents pirlab no longer reads; `v1_rows_as_columns` puts a v1
document's rows into the v2 columns, as the v1 reader did.

Neither writer reads a stored copy: the targets, selections and side
information come from `extract_patterns`, and each pattern's step and
class from expanding `builder.class_plan`, whose variants the builder
emitted copy after copy.  Each copy holds the next desired subfile, so
the i-th copy is the pattern with target i.  A scheme that `build_scheme`
does not give gets patterns without a step or class.  `class_counts`
tallies the plan the same way.
"""

from collections import Counter
from itertools import accumulate, repeat

from pirlab.builder import build_scheme, class_plan
from pirlab.errors import ParameterError
from pirlab.patterns import extract_patterns
from pirlab.render import canonical_json, meta_header
from pirlab.sequences import build_sequences


def _classes(scheme):
    """Each pattern's (step, class), in target order, when `scheme` is the
    one `build_scheme` gives; None for any other scheme."""
    n, theta = scheme.graph.n, scheme.theta
    try:
        if build_scheme(n, theta) != scheme:
            return None
    except ParameterError:  # a size or theta build_scheme refuses
        return None
    variants, _pool = class_plan(scheme.graph, theta, build_sequences(n))
    return [(step, cls) for step, cls, copies, _new, _old in variants
            for _ in range(copies)]


def _base(scheme):
    return {"graph": scheme.graph.to_json(), "theta": scheme.theta,
            "L": scheme.L}


def v1_document(scheme):
    """The v1 document of `scheme`, with lists where JSON has arrays."""
    doc = _base(scheme)
    doc["queries"] = {str(srv): [{"terms": [list(t) for t in row.terms]}
                                 for row in rows]
                      for srv, rows in sorted(scheme.queries.items())}
    ex = extract_patterns(scheme)
    doc["patterns"] = []
    for (target, chosen), tag in zip(ex.chosen(),
                                     _classes(scheme) or repeat(None)):
        pattern = {"target": target, "selections": chosen}
        if tag:
            pattern["step"], pattern["class"] = tag
        doc["patterns"].append(pattern)
    doc["side_info"] = [{"server": s, "index": i} for s, i in ex.side_info]
    return doc


def v1_rows_as_columns(doc):
    """The v2 document of a v1 document's rows: each server's rows in
    order, their terms as they stand, and nothing else of `doc` but its
    graph, theta and L.  Nothing is checked; `from_json` checks the
    columns."""
    queries = {}
    for srv, rows in doc["queries"].items():
        terms = [term for row in rows for term in row["terms"]]
        queries[srv] = {"file": [t[0] for t in terms],
                        "subfile": [t[1] for t in terms],
                        "sign": [t[2] for t in terms],
                        "ends": [*accumulate(len(row["terms"])
                                             for row in rows)]}
    return {"graph": doc["graph"], "theta": doc["theta"], "L": doc["L"],
            "queries": queries}


def v2_document(scheme):
    """The v2 document of `scheme` with its patterns and side information
    stored, as `build` wrote it before the scheme was its rows alone."""
    doc = scheme.to_json()
    ex = extract_patterns(scheme)
    cols = {"target": [*range(1, scheme.L + 1)]}
    classes = _classes(scheme)
    if classes:
        cols["step"] = [step for step, _ in classes]
        cols["class"] = [cls for _, cls in classes]
    cols["selections"] = {str(srv): [None if idx < 0 else idx
                                     for idx in column]
                          for srv, column in ex.selections.items()}
    doc["patterns"] = cols
    doc["side_info"] = {"server": [s for s, _ in ex.side_info],
                        "index": [i for _, i in ex.side_info]}
    return doc


def _build_text(write, n, theta):
    doc = write(build_scheme(n, theta))
    doc["meta"] = meta_header("build", {"n": n, "theta": theta})
    return canonical_json(doc) + "\n"


def v1_build_text(n, theta):
    """What `pirlab build --n n --theta theta` wrote with the v1 writer."""
    return _build_text(v1_document, n, theta)


def v2_build_text(n, theta):
    """What `pirlab build --n n --theta theta` wrote while it stored the
    patterns and side information in the v2 columns."""
    return _build_text(v2_document, n, theta)


def class_counts(scheme):
    """Pattern tallies as {step: {class: count}}; {} for a scheme that
    `build_scheme` does not give."""
    out = {}
    for step, cls in _classes(scheme) or ():
        out.setdefault(step, Counter())[cls] += 1
    return {step: dict(counter) for step, counter in sorted(out.items())}

"""K8 at theta = 0, checked by hand: build, analyze and transform in one
process within 2 GB of peak RSS.

No test tier builds K8 (the slow tier's CI budget is 900 MB), and pytest
does not collect this file.  Run it from a checkout:

    PYTHONPATH=src python tests/k8_by_hand.py

It prints the sha256 of the rows (the `queries` object as `build --n 8`
writes it, hashed one server at a time), L, the rows per server, the
number of merged rows `transform` gives, whether the transform's rate is
rate(8), the seconds of each phase and the process's peak RSS, and exits
1 when the peak passes 2,048 MB.  The cyclic collector is off throughout
(`gc.disable()`), as `cli.main` runs a command.  `main(7)` runs the same
checks on K7.
"""

import gc
import hashlib
import resource
import sys
import time

from pirlab.builder import build_scheme
from pirlab.patterns import analyze
from pirlab.render import canonical_json
from pirlab.sequences import rate
from pirlab.transform import prob_rate, transform

BUDGET_MB = 2048


def rows_sha256(scheme):
    """sha256 of canonical_json(scheme.to_json()["queries"]), made without
    holding more than one server's lists at a time."""
    digest = hashlib.sha256(b"{")
    for i, (srv, rows) in enumerate(sorted(scheme.queries.items())):
        columns = {"file": list(rows.file), "subfile": list(rows.subfile),
                   "sign": list(rows.sign), "ends": list(rows.ends)}
        digest.update(f'{"," if i else ""}"{srv}":'.encode())
        digest.update(canonical_json(columns).encode())
    digest.update(b"}")
    return digest.hexdigest()


def main(n=8):
    clock = time.perf_counter()
    scheme = build_scheme(n, 0)
    build_s, clock = time.perf_counter() - clock, time.perf_counter()
    report, extraction = analyze(scheme)
    analyze_s, clock = time.perf_counter() - clock, time.perf_counter()
    if not report.ok:
        print(f"dependent rows: {report.violations[0]}")
        return 1
    prob = transform(scheme, extraction)
    transform_s = time.perf_counter() - clock
    sizes = sorted({len(rows) for rows in scheme.queries.values()})
    print(f"K{n} theta = 0")
    print(f"rows sha256: {rows_sha256(scheme)}")
    print(f"L: {scheme.L}")
    print(f"rows per server: {', '.join(map(str, sizes))}")
    print(f"side information rows: {len(extraction.side_info)}")
    print(f"merged rows: {len(prob.rows)}")
    print(f"prob_rate == rate({n}): {prob_rate(prob) == rate(n)}")
    print(f"build {build_s:.1f} s, analyze {analyze_s:.1f} s, "
          f"transform {transform_s:.1f} s")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak_mb:.0f} MB (budget {BUDGET_MB} MB)")
    return 0 if peak_mb <= BUDGET_MB else 1


if __name__ == "__main__":
    gc.disable()
    sys.exit(main())

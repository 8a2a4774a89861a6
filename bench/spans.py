"""Per-layer timing for the traced benchmark run.

The recorder wraps pirlab's public functions from outside the package: it
replaces every binding of a function in the loaded ``pirlab`` modules
(including the package namespace) by a timing wrapper, and restores the
originals afterwards.  Calls from one layer into another therefore show up
as nested spans, without any change to ``src/pirlab``.

Everything runs on one thread, so no layer ever waits for another; the
recorder keeps busy time only.  Spans are aggregated as they close (total
time, self time, calls) instead of being kept one by one, because the
sampling workload makes tens of thousands of calls per second.
"""

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function) pairs timed around every call; names are
# "<module>.<function>".
FUNCTIONS = (
    ("builder", "build_scheme"),
    ("builder", "verify_scheme"),
    ("patterns", "check_independence"),
    ("patterns", "extract_patterns"),
    ("patterns", "check_srp"),
    ("transform", "transform"),
    ("transform", "prob_rate"),
    ("transform", "entropy_proxy_ok"),
    ("render", "canonical_json"),
    ("render", "meta_header"),
    ("sim", "random_storage"),
    ("sim", "run_deterministic_trial"),
    ("sim", "run_probabilistic_trials"),
    ("sim", "privacy_audit"),
    ("general", "random_general_scheme"),
    ("general", "answer_distribution"),
    ("bounds", "bounds_table"),
    ("sequences", "build_sequences"),
)

# Methods of the scheme layer, recorded under "scheme.<method>".
METHODS = (
    ("DeterministicScheme", "to_json"),
    ("DeterministicScheme", "from_json"),
    ("ProbabilisticScheme", "to_json"),
    ("ProbabilisticScheme", "from_json"),
)


def _audit_name(args, kwargs):
    mode = kwargs["mode"] if "mode" in kwargs else args[1]
    return f"sim.privacy_audit.{mode}"


class Tracer:
    """Aggregated spans and size counters for one traced segment."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.sizes = Counter()
        self._stack = []  # [name, time spent in child spans]
        self._active = Counter()

    @contextmanager
    def span(self, name):
        self._active[name] += 1
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self._stack.pop()
            self._active[name] -= 1
            if not self._active[name]:  # a recursive call counts once
                self.total[name] += elapsed
            self.calls[name] += 1
            self.self_time[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def observe_max(self, name, value):
        self.sizes[name] = max(self.sizes[name], value)

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result
        traced.__wrapped__ = fn
        return traced


def _observers(tracer):
    def built(scheme):
        tracer.observe_max("builder.L", scheme.L)
        tracer.observe_max("builder.rows_per_server",
                           max(len(rows) for rows in scheme.queries.values()))

    def extracted(ex):
        tracer.observe_max("patterns.side_info_rows", len(ex.side_info))

    def rendered(text):
        tracer.observe_max("scheme.json_bytes", len(text.encode("utf-8")))

    return {"builder.build_scheme": built,
            "patterns.extract_patterns": extracted,
            "render.canonical_json": rendered}


@contextmanager
def instrument(tracer):
    """Route every loaded binding of the traced functions through `tracer`."""
    modules = [m for key, m in sys.modules.items()
               if key == "pirlab" or key.startswith("pirlab.")]
    observers = _observers(tracer)
    undo = []
    for modname, fname in FUNCTIONS:
        original = getattr(sys.modules[f"pirlab.{modname}"], fname)
        label = f"{modname}.{fname}"
        wrapper = tracer.wrap(_audit_name if fname == "privacy_audit"
                              else label, original, observers.get(label))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
    scheme_mod = sys.modules["pirlab.scheme"]
    for clsname, method in METHODS:
        cls = getattr(scheme_mod, clsname)
        raw = cls.__dict__[method]
        label = f"scheme.{method}"
        if isinstance(raw, classmethod):
            replacement = classmethod(tracer.wrap(label, raw.__func__))
        else:
            replacement = tracer.wrap(label, raw)
        undo.append((cls, method, raw))
        setattr(cls, method, replacement)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

"""In-memory span tracing of the dcbasis layers, installed from outside.

The tracer replaces public functions and methods of the package with
wrappers that time each call.  Every call is a span (name, start, end,
parent span, pass id).  Spans close in stack order, so a span's self time
is its duration minus the durations of its direct children; the running
totals per name are exact, whatever the number of calls.  The first
``SPAN_CAP`` spans are also kept whole and written out at the end.

Two rules keep the counts honest:

* ``BasisCache`` copies ``Multisegment.extension_key`` into its
  ``order_key`` when it is built, so install the wrappers before any cache
  exists.
* Several modules import functions by name.  A function is therefore
  replaced in every ``dcbasis`` namespace that holds it, not only in the
  module that defines it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 50_000


class Tracer:
    """Per-name call counts and self times, plus a capped span record."""

    def __init__(self) -> None:
        self.active = False
        self.pass_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.term_pair_count = 0
        self.term_pairs: set = set()
        self.expand_steps = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0

    def reset(self, pass_id: int) -> None:
        """Zero the per-pass totals; the span record is kept."""
        self.pass_id = pass_id
        self.calls.clear()
        self.self_s.clear()
        self.term_pair_count = 0
        self.term_pairs.clear()
        self.expand_steps = 0

    @contextlib.contextmanager
    def suspended(self):
        """Run untraced inside a traced region (output checks, digests)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn as a span called name."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            parent = None
            if stack:
                stack[-1][1] += duration
                parent = stack[-1][0]
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (span_id, name, start, end, parent, self.pass_id))
            else:
                self.spans_dropped += 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _term_labels(self, x) -> list:
        """Labels of an AlgebraElement, read without tracing.

        The public accessors sort by ``extension_key``, a traced method, so
        the element's term dictionary is read directly where it exists.
        """
        terms = getattr(x, "_terms", None)
        if terms is not None:
            return list(terms)
        with self.suspended():
            return x.support()

    def wrap_algebra_mul(self, fn):
        """AlgebraElement.__mul__, counting the pairs of basis labels it
        straightens (sum of len(x) * len(y)) and how many are distinct."""
        @functools.wraps(fn)
        def traced(x, y):
            if self.active and isinstance(y, type(x)):
                ys = self._term_labels(y)
                xs = self._term_labels(x)
                self.term_pair_count += len(xs) * len(ys)
                self.term_pairs.update((m, n) for m in xs for n in ys)
            return self.span("algebra.mul", fn, x, y)
        return traced

    def wrap_expand(self, fn):
        """expand_in_dcb, counting eliminations (entries of its result)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span("canonical.expand_in_dcb", fn, *args, **kwargs)
            if self.active:
                self.expand_steps += len(out)
            return out
        return traced

    def pass_totals(self) -> dict[str, float]:
        """Counts and self times of the current pass, by metric name."""
        out: dict[str, float] = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out["algebra.mul.term_pairs"] = self.term_pair_count
        out["algebra.mul.distinct_term_pairs"] = len(self.term_pairs)
        out["canonical.expand_in_dcb.steps"] = self.expand_steps
        return out


# Methods: (span name, module, class, attribute names sharing one wrapper).
_METHODS = (
    ("laurent.mul", "laurent", "LaurentPoly", ("__mul__", "__rmul__")),
    ("multisegment.extension_key", "multisegment", "Multisegment",
     ("extension_key",)),
    ("algebra.mul", "algebra", "AlgebraElement", ("__mul__",)),
    ("canonical.dual_canonical", "canonical", "BasisCache",
     ("dual_canonical",)),
    ("canonical.aux_vector", "canonical", "BasisCache", ("aux_vector",)),
)

# Functions: (span name, defining module, function name).
_FUNCTIONS = (
    ("multisegment.dominates", "multisegment", "dominates"),
    ("multisegment.enumerate_by_weight", "multisegment",
     "enumerate_by_weight"),
    ("canonical.dcb_table", "canonical", "dcb_table"),
    ("canonical.structure_constants", "canonical", "structure_constants"),
    ("canonical.expand_in_dcb", "canonical", "expand_in_dcb"),
    ("canonical.membership_up_to_power", "canonical",
     "membership_up_to_power"),
    ("criteria.irreducible_pair", "criteria", "irreducible_pair"),
    ("criteria.main1_witness", "criteria", "main1_witness"),
    ("criteria.hook_irreducible", "criteria", "hook_irreducible"),
    ("criteria.evaluation_set", "criteria", "evaluation_set"),
)

TRACED_NAMES = tuple(n for n, *_ in _METHODS) + tuple(
    n for n, *_ in _FUNCTIONS)


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "dcbasis" or name.startswith("dcbasis."))
            and mod is not None]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace the traced names with wrappers; restore them on exit."""
    import dcbasis.cli  # noqa: F401  (load every module that binds names)

    undo: list[tuple[object, str, object]] = []
    try:
        for name, module, cls_name, attrs in _METHODS:
            cls = getattr(sys.modules[f"dcbasis.{module}"], cls_name)
            original = cls.__dict__[attrs[0]]
            if name == "algebra.mul":
                wrapper = tracer.wrap_algebra_mul(original)
            else:
                wrapper = tracer.wrap(name, original)
            for attr in attrs:
                if cls.__dict__.get(attr) is original:
                    undo.append((cls, attr, original))
                    setattr(cls, attr, wrapper)
        for name, module, fn_name in _FUNCTIONS:
            original = getattr(sys.modules[f"dcbasis.{module}"], fn_name)
            if name == "canonical.expand_in_dcb":
                wrapper = tracer.wrap_expand(original)
            else:
                wrapper = tracer.wrap(name, original)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

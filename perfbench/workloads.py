"""The benchmark workloads, each driving dcbasis through public functions.

A workload is built from a seed, set up once (``setup``), then timed over
repeated passes (``run_pass``).  Every pass starts with the module-level
caches of the package cleared, as a fresh ``dcbasis`` invocation would
find them, and with a full garbage collection, and checks its outputs
exactly; an item whose output is wrong
counts as failed.  Library calls go through module attributes looked up
at call time, so that tracing wrappers installed on those modules see
them.

* ``basis-ladder``: ``dcb_table`` over five weight classes, a fresh
  ``BasisCache`` per class.  Every label is computed from scratch: the
  correction loop, ``aux_vector`` products and ``extension_key`` sorts.
* ``product-sweep``: structure constants of seeded pairs against a warm
  ``BasisCache``.  Every memo lookup is a hit; products, Laurent
  arithmetic, ``expand_in_dcb`` and ``dominates`` do the work.
* ``irreducibility``: combinatorial verdicts on seeded (alpha, beta,
  shift) triples, plus the 396-case algebraic oracle on a fresh cache.
  ``criteria`` does the work.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from dcbasis import canonical as C
from dcbasis import criteria as K
from dcbasis import laurent as L
from dcbasis import multisegment as M
from speed import Clock

PINNED = json.loads(
    (Path(__file__).resolve().parent / "pinned.json").read_text())

DEFAULT_SEED = 0

LADDER = (
    "0:1,1:2,2:2,3:1",
    "0:1,1:2,2:2,3:2,4:1",
    "0:1,1:2,2:3,3:2,4:1",
    "0:1,1:2,2:3,3:3,4:1",
    "0:1,1:2,2:2,3:2,4:2,5:1",
)

SWEEP_WINDOW = (0, 5)
SWEEP_MAX_DEGREE = 6
SWEEP_PAIRS = 2000

IRRED_MAX_SIZE = 9
IRRED_MAX_SHIFT = 8
IRRED_TRIPLES = 20_000
ORACLE_MAX_SIZE = 3
ORACLE_MAX_SHIFT = 5


@dataclass
class PassResult:
    """One pass.  ``wall_s`` is its raw time; ``unit_s`` times the pass's
    units (see each workload's ``summary``) at the reference speed
    (``speed.py``), in a fixed order, so that each unit can be compared
    with itself across passes."""

    wall_s: float
    unit_s: list[float]
    items: int
    failed: int
    digest: str
    memo_misses: int
    notes: list[str] = field(default_factory=list)


@dataclass
class Summary:
    """The end-to-end times of one pass, at the reference speed."""

    wall_s: float
    top_class_s: float
    item_latency_s: list[float]


def cold_start() -> None:
    """Empty every functools cache held at module level in the package,
    looking through the tracing wrappers to the cached functions, then
    collect garbage.  The collection leaves the collector's counters at
    zero, so that in every pass its collections fall on the same units."""
    for name, mod in list(sys.modules.items()):
        if name == "dcbasis" or name.startswith("dcbasis."):
            for value in list(vars(mod).values()):
                while value is not None:
                    clear = getattr(value, "cache_clear", None)
                    if callable(clear):
                        clear()
                        break
                    value = getattr(value, "__wrapped__", None)
    gc.collect()


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _coef(c) -> list:
    return [list(p) for p in c.items()]


def _report_exception(notes: list[str], what: str) -> None:
    if not notes:
        traceback.print_exc(file=sys.stderr)
    notes.append(f"exception in {what}")


# -- input generators ------------------------------------------------------


def window_labels(max_degree: int, lo: int, hi: int) -> list:
    """Nonempty multisegments inside [lo, hi] of degree <= max_degree,
    in a fixed order."""
    segs = [M.Segment(i, j) for i in range(lo, hi + 1)
            for j in range(i, hi + 1)]
    out: list = []
    chosen: list = []

    def rec(idx: int, budget: int) -> None:
        if chosen:
            out.append(M.Multisegment(chosen))
        for k in range(idx, len(segs)):
            if segs[k].length <= budget:
                chosen.append(segs[k])
                rec(k, budget - segs[k].length)
                chosen.pop()

    rec(0, max_degree)
    return out


def window_weights(max_total: int, lo: int, hi: int) -> list:
    """Nonzero weights supported on [lo, hi] of total <= max_total."""
    out: list = []

    def rec(pos: int, budget: int, acc: dict) -> None:
        if pos > hi:
            if acc:
                out.append(M.Weight(acc))
            return
        for count in range(budget + 1):
            if count:
                acc[pos] = count
            rec(pos + 1, budget - count, acc)
            acc.pop(pos, None)

    rec(lo, max_total, {})
    return out


def partitions(max_size: int) -> list:
    """Partitions of every size from 1 to max_size, in a fixed order."""
    out: list = []
    acc: list[int] = []

    def rec(budget: int, largest: int) -> None:
        for part in range(min(budget, largest), 0, -1):
            acc.append(part)
            out.append(K.Partition(acc))
            rec(budget - part, part)
            acc.pop()

    rec(max_size, max_size)
    return out


def _translate(m, offset: int):
    return M.Multisegment((s.start + offset, s.end + offset)
                          for s in m.segments)


# -- workloads ---------------------------------------------------------------


class _ClockedCache(C.BasisCache):
    """A BasisCache that marks the clock on entry to and exit from every
    ``dual_canonical`` call.

    The marks cut a class into segments: the work between two consecutive
    marks is the same in every pass, because ``dcb_table`` makes the same
    calls in the same order.  Each segment is a timing unit.  The longest
    takes about 0.1 s, where one outermost call can take a fifth of its
    class.
    """

    def __init__(self, clock: Clock):
        super().__init__()
        self.clock = clock

    def dual_canonical(self, m):
        self.clock.mark()
        try:
            return super().dual_canonical(m)
        finally:
            self.clock.mark()


class BasisLadder:
    """``dcb_table`` over the ladder, translated by a seeded offset."""

    name = "basis-ladder"

    def __init__(self, seed: int):
        self.seed = seed
        self.offset = 0 if seed == DEFAULT_SEED else \
            random.Random(seed).randint(-9, 9)
        self.weights = [
            M.Weight((p + self.offset, c)
                     for p, c in M.parse_weight(text).items())
            for text in LADDER]
        self.sizes = [len(M.enumerate_by_weight(w)) for w in self.weights]
        self.pinned = PINNED["basis-ladder"]
        self.unit_counts = None

    def setup(self, clock: Clock | None = None) -> None:
        pass

    def context(self) -> dict:
        return {"offset": self.offset,
                "weights": [str(w) for w in self.weights]}

    def _table_digest(self, table) -> str:
        """sha256 of the table's ``dcb --json`` text, translated back to
        the default seed's positions."""
        obj = table.to_json_obj()
        if self.offset:
            back = M.Weight((p - self.offset, c)
                            for p, c in table.weight.items())
            obj["weight"] = str(back)
            for row in obj["basis"]:
                row["label"] = str(_translate(
                    M.parse_multisegment(row["label"]), -self.offset))
                for entry in row["expansion"]:
                    entry["label"] = str(_translate(
                        M.parse_multisegment(entry["label"]), -self.offset))
        text = json.dumps(obj, indent=2)
        return hashlib.sha256(text.encode()).hexdigest()

    def run_pass(self, tracer, clock: Clock | None = None) -> PassResult:
        clock = clock or Clock(probe=False)
        cold_start()
        tables, caches, counts = [], [], []
        notes: list[str] = []
        clock.start()
        for w in self.weights:
            before = len(clock.units)
            cache = _ClockedCache(clock)
            try:
                tables.append(C.dcb_table(w, cache))
            except Exception:
                _report_exception(notes, f"dcb_table({w})")
                tables.append(None)
            clock.mark()
            counts.append(len(clock.units) - before)
            caches.append(cache)
        if self.unit_counts is None:
            self.unit_counts = counts
        elif counts != self.unit_counts:
            raise RuntimeError("the ladder's calls differ between passes")
        with tracer.suspended():
            failed = 0
            digests = []
            for table, count, pinned in zip(tables, self.sizes, self.pinned):
                digest = None if table is None else self._table_digest(table)
                digests.append(digest)
                if digest != pinned:
                    failed += count
        return PassResult(
            wall_s=clock.raw_s, unit_s=clock.units, items=sum(self.sizes),
            failed=failed,
            digest=_sha(digests),
            memo_misses=sum(c.labels_computed() for c in caches),
            notes=notes)

    def summary(self, units: list[float]) -> Summary:
        """A class's time is the sum of its units' times.  A label is
        delivered when its class's table is complete, so its latency is the
        time of its class."""
        classes, at = [], 0
        for count in self.unit_counts:
            classes.append(sum(units[at:at + count]))
            at += count
        return Summary(
            wall_s=sum(classes), top_class_s=classes[-1],
            item_latency_s=[t for t, n in zip(classes, self.sizes)
                            for _ in range(n)])


class ProductSweep:
    """Structure constants of seeded label pairs over a warm cache."""

    name = "product-sweep"

    def __init__(self, seed: int):
        self.seed = seed
        lo, hi = SWEEP_WINDOW
        labels = window_labels(SWEEP_MAX_DEGREE - 1, lo, hi)
        rng = random.Random(seed)
        self.pairs = []
        while len(self.pairs) < SWEEP_PAIRS:
            m, n = rng.choice(labels), rng.choice(labels)
            if m.degree() + n.degree() <= SWEEP_MAX_DEGREE:
                self.pairs.append((m, n))
        self.pinned = (PINNED["product-sweep"] if seed == DEFAULT_SEED
                       else None)
        self.cache = None

    def setup(self, clock: Clock | None = None) -> None:
        """Compute every basis vector of total degree <= 6 on the window."""
        clock = clock or Clock(probe=False)
        self.cache = C.BasisCache()
        for w in window_weights(SWEEP_MAX_DEGREE, *SWEEP_WINDOW):
            C.dcb_table(w, self.cache)
            clock.mark()

    def context(self) -> dict:
        return {"pairs": len(self.pairs),
                "basis_labels": self.cache.labels_computed()}

    def _item(self, m, n) -> tuple[dict, bool]:
        cache = self.cache
        forward = C.structure_constants(m, n, cache)
        backward = C.structure_constants(n, m, cache)
        zero = L.LaurentPoly(0)
        twist = L.LaurentPoly.v_power(
            -M.cartan_pairing(m.weight(), n.weight()))
        ok = all(backward.get(p, zero) == twist * forward.get(p, zero).bar()
                 for p in set(forward) | set(backward))
        ok = ok and all(c.has_nonnegative_coefficients()
                        for c in forward.values())
        total = m + n
        ok = ok and forward.get(total) == L.LaurentPoly.v_power(
            -M.b_form(m, n))
        ok = ok and all(M.dominates(total, p) for p in forward)
        return forward, ok

    def run_pass(self, tracer, clock: Clock | None = None) -> PassResult:
        clock = clock or Clock(probe=False)
        cold_start()
        misses0 = self.cache.labels_computed()
        results = []
        failed = 0
        notes: list[str] = []
        clock.start()
        for m, n in self.pairs:
            try:
                forward, ok = self._item(m, n)
            except Exception:
                _report_exception(notes, f"pair {m} | {n}")
                forward, ok = {}, False
            clock.mark()
            failed += not ok
            results.append(forward)
        with tracer.suspended():
            digest = _sha([
                [str(m), str(n),
                 sorted([str(p), _coef(c)] for p, c in fwd.items())]
                for (m, n), fwd in zip(self.pairs, results)])
        if self.pinned is not None and digest != self.pinned:
            failed = len(self.pairs)
        return PassResult(
            wall_s=clock.raw_s, unit_s=clock.units, items=len(self.pairs),
            failed=failed,
            digest=digest,
            memo_misses=self.cache.labels_computed() - misses0, notes=notes)

    def summary(self, units: list[float]) -> Summary:
        """Units are the pairs; the top class is the pairs of the largest
        total degree."""
        heavy = sum(t for t, (m, n) in zip(units, self.pairs)
                    if m.degree() + n.degree() == SWEEP_MAX_DEGREE)
        return Summary(wall_s=sum(units), top_class_s=heavy,
                       item_latency_s=units)


class Irreducibility:
    """Combinatorial verdicts on seeded triples plus the algebraic oracle."""

    name = "irreducibility"

    def __init__(self, seed: int):
        self.seed = seed
        parts = partitions(IRRED_MAX_SIZE)
        rng = random.Random(seed)
        self.triples = []
        for _ in range(IRRED_TRIPLES):
            alpha = rng.choice(parts)
            beta = rng.choice(parts)
            shift = rng.randint(-IRRED_MAX_SHIFT, IRRED_MAX_SHIFT)
            self.triples.append((alpha, beta, shift))
        small = partitions(ORACLE_MAX_SIZE)
        self.oracle_cases = [
            (alpha, beta, b) for alpha in small for beta in small
            for b in range(-ORACLE_MAX_SHIFT, ORACLE_MAX_SHIFT + 1)]
        self.pinned = (PINNED["irreducibility"] if seed == DEFAULT_SEED
                       else None)
        self.pinned_oracle = PINNED["oracle"]

    def setup(self, clock: Clock | None = None) -> None:
        pass

    def context(self) -> dict:
        return {"triples": len(self.triples),
                "self_products": sum(a == b for a, b, _ in self.triples),
                "oracle_cases": len(self.oracle_cases)}

    def _oracle(self, cache, alpha, beta, b):
        m_alpha = K.evaluation_multisegment(alpha, 0)
        m_beta = K.evaluation_multisegment(beta, b)
        member = C.membership_up_to_power(
            cache.dual_canonical(m_alpha) * cache.dual_canonical(m_beta),
            cache)
        ok = K.irreducible_pair(alpha, 0, beta, b) == (member is not None)
        if member is not None:
            ok = ok and member == (M.b_form(m_alpha, m_beta), m_alpha + m_beta)
        return member, ok

    def run_pass(self, tracer, clock: Clock | None = None) -> PassResult:
        clock = clock or Clock(probe=False)
        cold_start()
        verdicts = []
        failed = 0
        notes: list[str] = []
        clock.start()
        for alpha, beta, shift in self.triples:
            try:
                verdict = K.irreducible_pair(alpha, 0, beta, shift)
                witness = K.main1_witness(alpha, 0, beta, shift)
                ok = (witness is None) == verdict
                if alpha == beta:
                    ok = ok and K.hook_irreducible(alpha, shift) == verdict
            except Exception:
                _report_exception(notes, f"{alpha} | {beta} @ {shift}")
                verdict, witness, ok = None, None, False
            clock.mark()
            failed += not ok
            verdicts.append((verdict, witness))
        cache = C.BasisCache()
        members = []
        for alpha, beta, b in self.oracle_cases:
            try:
                member, ok = self._oracle(cache, alpha, beta, b)
            except Exception:
                _report_exception(notes, f"oracle {alpha} | {beta} @ {b}")
                member, ok = None, False
            clock.mark()
            failed += not ok
            members.append(member)
        with tracer.suspended():
            digest = _sha([[str(a), str(b), s, v, w] for (a, b, s), (v, w)
                           in zip(self.triples, verdicts)])
            oracle_digest = _sha([None if m is None else [m[0], str(m[1])]
                                  for m in members])
        if self.pinned is not None and digest != self.pinned:
            failed += len(self.triples)
        if oracle_digest != self.pinned_oracle:
            failed += len(self.oracle_cases)
        items = len(self.triples) + len(self.oracle_cases)
        return PassResult(
            wall_s=clock.raw_s, unit_s=clock.units,
            items=items, failed=min(failed, items),
            digest=_sha([digest, oracle_digest]),
            memo_misses=cache.labels_computed(), notes=notes)

    def summary(self, units: list[float]) -> Summary:
        """Units are the triples, then the oracle cases, which share one
        cache in a fixed order and so do the same work in every pass.  The
        oracle is the top class; item latencies are those of the triples."""
        n = len(self.triples)
        return Summary(wall_s=sum(units), top_class_s=sum(units[n:]),
                       item_latency_s=units[:n])


WORKLOADS = {w.name: w for w in (BasisLadder, ProductSweep, Irreducibility)}

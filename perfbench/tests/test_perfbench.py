"""Tracing repeats its counts exactly and changes no output of a workload.

The workloads run at their real sizes (about a minute in all).  Run from
the root of the repository:

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from spans import Tracer, installed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, cold_start  # noqa: E402


def _plain_pass(name, seed=DEFAULT_SEED):
    workload = WORKLOADS[name](seed)
    workload.setup()
    return workload.run_pass(Tracer())


def _traced_pass(name):
    tracer = Tracer()
    with installed(tracer):
        workload = WORKLOADS[name](DEFAULT_SEED)
        workload.setup()
        tracer.reset(0)
        tracer.active = True
        result = workload.run_pass(tracer)
        tracer.active = False
    counts = {key: value for key, value in tracer.pass_totals().items()
              if not key.endswith("_s")}
    return result, counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_repeats_counts_and_changes_no_output(name):
    # at the default seed every pinned digest is checked
    untraced = _plain_pass(name)
    first, counts = _traced_pass(name)
    second, again = _traced_pass(name)
    assert counts == again
    assert first.memo_misses == second.memo_misses
    assert counts["canonical.dual_canonical.calls"] > 0
    if name == "product-sweep":
        assert first.memo_misses == 0
    assert untraced.failed == first.failed == second.failed == 0
    assert untraced.digest == first.digest == second.digest


def test_ladder_translated_back_matches_the_pins():
    workload = WORKLOADS["basis-ladder"](7)
    assert workload.offset != 0
    workload.setup()
    assert workload.run_pass(Tracer()).failed == 0


def test_wrappers_are_removed_on_exit():
    from dcbasis import canonical, laurent, multisegment

    before = (laurent.LaurentPoly.__mul__, canonical.expand_in_dcb,
              multisegment.Multisegment.extension_key)
    with installed(Tracer()):
        assert canonical.expand_in_dcb is not before[1]
    after = (laurent.LaurentPoly.__mul__, canonical.expand_in_dcb,
             multisegment.Multisegment.extension_key)
    assert before == after


def test_caches_clear_through_the_wrappers():
    from dcbasis import multisegment

    with installed(Tracer()):
        multisegment.enumerate_by_weight(multisegment.parse_weight("0:1,1:1"))
        cold_start()
        cached = multisegment.enumerate_by_weight.__wrapped__
        assert cached.cache_info().currsize == 0

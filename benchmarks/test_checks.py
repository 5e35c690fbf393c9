"""Tests of the benchmark itself: every answer check rejects a wrong answer
and accepts the right one, the tracer puts back every name it wraps, a
failing case is counted without stopping the pass, and the clock scales
each stretch of work by the reference slices around it.

    python3 -m pytest -q benchmarks/test_checks.py
"""

import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ZERO_H = [(0, ())]


def inj(k, n, scale=1):
    """The first-k-coordinates inclusion Z^k -> Z^n, scaled."""
    return {(i, i): scale for i in range(k)}, n, k


def test_elimination_against_hand_values():
    # the textbook example with Smith form diag(2, 6, 12)
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert checks._integer_invariant_factors(rows) == [2, 6, 12]
    assert checks._field_rank([[1, 2], [2, 4]], "Q") == 1
    assert checks._field_rank([[1, 2], [3, 1]], 5) == 1
    assert checks._field_rank([[1, 2], [3, 1]], "Q") == 2


def test_free_level_checks():
    for n, r in ((2, 2), (3, 12), (4, 120)):
        assert checks.free_level_regular(n, r) == []
        assert checks.free_level_regular(n, r + 1)
    for n, r in ((2, 1), (3, 3), (4, 15)):
        assert checks.free_level_trivial(n, r) == []
        assert checks.free_level_trivial(n, r - 1)
    assert checks.free_level_graded(3, (3, 6, 3), ZERO_H * 3) == []
    assert checks.free_level_graded(4, (15, 45, 45, 15), ZERO_H * 4) == []
    assert checks.free_level_graded(3, (3, 6, 2), ZERO_H * 3)
    assert checks.free_level_graded(3, (3, 6, 3), [(0, ()), (1, ()), (0, ())])
    assert checks.free_level_graded(3, (3, 6, 3), [(0, ()), (0, (2,)), (0, ())])
    assert checks.free_level_graded(3, (3, 6, 3), ZERO_H * 2)


def test_composite_checks():
    good = {1: 1, 2: 4, 3: 24, 4: 192}
    assert checks.regular_composite(good) == []
    assert checks.regular_composite({**good, 4: 191})
    assert checks.regular_composite({1: 1, 2: 4, 3: 24})
    fp = {(("x", "x"), "x"): ((1, 2, 0), ((0, ()), (1, ())))}
    assert checks.bracketings_agree(fp, dict(fp)) == []
    assert checks.bracketings_agree(fp, {(("x", "x"), "x"): ((1, 2, 0),
                                                            ((0, ()), (0, ())))})
    assert checks.bracketings_agree({}, {})


def test_extension_checks():
    maps = [[inj(12, 24)], [inj(24, 27)], [inj(27, 27)]]
    assert checks.extension_stages("trivial_q", "Z", (12, 24, 27, 27), maps,
                                   27, 27) == []
    assert checks.extension_stages("trivial_q", "Z", (12, 24, 26, 27), maps,
                                   27, 27)
    assert checks.extension_stages("trivial_q", "Z", (12, 24, 27, 27), maps,
                                   27, 26)
    assert checks.extension_stages("trivial_q", "Z", (12, 24, 27, 27),
                                   maps[:2], 27, 27)
    assert checks.extension_stages("regular_q", "Z", (12, 24, 27, 27), maps,
                                   27, 27)
    # injective but not split over Z; split over Q; zero over Z/5
    doubled = [[inj(12, 24, 2)], [inj(24, 27)], [inj(27, 27)]]
    assert checks.extension_stages("trivial_q", "Z", (12, 24, 27, 27),
                                   doubled, 27, 27)
    assert checks.extension_stages("trivial_q", "Q", (12, 24, 27, 27),
                                   doubled, 27, 27) == []
    fived = [[inj(12, 24, 5)], [inj(24, 27)], [inj(27, 27)]]
    assert checks.extension_stages("trivial_q", 5, (12, 24, 27, 27),
                                   fived, 27, 27)
    assert checks.extension_stages("trivial_q", "Z", (12, 24, 27, 27),
                                   [[inj(11, 24)], [inj(24, 27)], [inj(27, 27)]],
                                   27, 27)


def test_dold_kan_checks():
    K = ((1, 2), [{(0, 0): 1, (0, 1): 3}])
    assert checks.same_on_the_nose("K", K, ((1, 2), [{(0, 0): 1, (0, 1): 3}])) == []
    assert checks.same_on_the_nose("K", K, ((1, 2), [{(0, 0): 1, (0, 1): 2}]))
    assert checks.same_on_the_nose("K", K, ((1, 3), [{(0, 0): 1, (0, 1): 3}]))
    ident = [({(0, 0): 1, (1, 1): 1}, 2, 2), ({}, 0, 0)]
    assert checks.identity_map("e", ident) == []
    assert checks.identity_map("e", [({(0, 0): 1, (1, 1): 1, (0, 1): 1}, 2, 2)])
    assert checks.identity_map("e", [({(0, 0): 1}, 2, 1)])
    assert checks.identity_map("e", [({(0, 0): 1}, 2, 2)])
    shear = [({(0, 0): 1, (0, 1): 1, (1, 1): 1}, 2, 2)]
    assert checks.isomorphism("u", "Z", shear) == []
    two = [({(0, 0): 2, (1, 1): 1}, 2, 2)]
    assert checks.isomorphism("u", "Z", two)
    assert checks.isomorphism("u", "Q", two) == []
    assert checks.isomorphism("u", 5, two) == []
    assert checks.isomorphism("u", 5, [({(0, 0): 5, (1, 1): 1}, 2, 2)])
    assert checks.isomorphism("u", "Z", [({(0, 0): 1}, 2, 1)])


def test_operad_verdict_checks():
    assert checks.verdict("q", "equivalence", "equivalence") == []
    assert checks.verdict("q", "equivalence", "inconclusive")
    assert checks.verdict("q", "not_equivalence", "equivalence")
    good = {1: (1, 0, 0), 2: (2, 0, 0), 3: (6, 0, 0)}
    assert checks.normalized_associative(good, 2) == []
    assert checks.normalized_associative({**good, 3: (6, 1, 0)}, 2)
    assert checks.normalized_associative({}, 2)


def test_span_times_exclude_pauses():
    t = tracing.Tracer()
    # an outer trees span with an exactlin child; one pause in each
    t.spans = [["trees.free_operad", 0.0, 10.0, -1],
               ["exactlin.cokernel", 2.0, 6.0, 0]]
    m = t.metrics(pauses=[(1.0, 1.5), (3.0, 4.0)])
    assert m["trees.free_operad.s"] == pytest.approx(8.5)
    assert m["exactlin.cokernel.s"] == pytest.approx(3.0)
    assert m["trees.self_s"] == pytest.approx(5.5)
    assert m["exactlin.self_s"] == pytest.approx(3.0)


def _bindings(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_tracer_records_and_restores():
    o = workloads.Opdk()
    modules = tracing._opdk_modules()
    before = _bindings(modules)
    inits = {c: c.__init__ for c in (o.exactlin.LinearMap, o.trees.FreeOperad)}
    t = tracing.Tracer()
    t.install()
    try:
        assert o.operad.cokernel is not before[("opdk.operad", "cokernel")]
        assert o.chain.cokernel is o.exactlin.cokernel
        K = o.chain.two_term(o.rings.ZZ, [[2]])
        assert list(o.chain.homology(K, 0).invariant_factors) == [2]
    finally:
        t.restore()
    m = t.metrics()
    assert m["chain.homology.calls"] == 1
    assert m["exactlin.cokernel.calls"] >= 1
    assert m["exactlin.LinearMap.calls"] > 0
    assert m["chain.self_s"] >= 0 and m["exactlin.self_s"] > 0
    assert set(m) == {name for name, _ in tracing.metric_names()}
    assert _bindings(modules) == before
    assert all(c.__init__ is f for c, f in inits.items())


def test_failures_are_counted_and_the_pass_goes_on():
    def boom():
        raise ValueError("no answer")
    cases = [workloads.Case("ok", lambda: 1, lambda a: []),
             workloads.Case("raises", boom, lambda a: []),
             workloads.Case("wrong", lambda: 2, lambda a: ["wrong answer"]),
             workloads.Case("ok2", lambda: 3, lambda a: [])]
    log = []
    sampler, failed, wrong = run.run_pass(cases, log)
    assert min(sampler.times()) >= 0
    assert (failed, wrong) == (2, 1)
    assert [e["case"] for e in log] == ["ok", "raises", "wrong", "ok2"]
    assert "ValueError" in log[1]["error"]


def test_sampler_scales_work_by_the_slices_around_it():
    n = speed.NOMINAL_S
    sampler = speed.Sampler()
    # slices at half speed, at full speed, then at 3/4 speed
    sampler.slices = [(0.0, 2 * n), (1.0, 1.0 + n), (2.0, 2.0 + 4 * n / 3)]
    raw, scaled = sampler.times()
    assert raw == pytest.approx(2.0 - 3 * n)
    work1, work2 = 1.0 - 2 * n, 1.0 - n
    assert scaled == pytest.approx(work1 / 1.5 + work2 / (7 / 6))
    assert sampler.slice_time(1) == pytest.approx(n + 4 * n / 3)


def test_sampler_slices_inside_a_long_call():
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.PERIOD_S:
            pass
    assert len(sampler.slices) >= 3
    raw, scaled = sampler.times()
    assert raw > 0 and scaled > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

"""The benchmark's workloads: inputs built through ``opdk.corpus`` and the
cases that compute and check every answer.

``build(name)`` imports ``opdk`` afresh each time it is called (the
caller empties ``sys.modules`` first), so set-up time includes the import.
Cases reach ``opdk`` through module attributes at call time, never through
names bound at build time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import random
from collections import namedtuple

import checks

# run(): computes one answer as plain data; check(answer): list of problems
Case = namedtuple("Case", "name run check")

MODULES = ("rings", "permutations", "_kernel", "exactlin", "chain", "simp",
           "doldkan", "operad", "trees", "corpus")

# Tier-1 builds the composite-associativity triple from this seed
COMPOSITE_SEED = 101


class Opdk:
    """The freshly imported ``opdk`` modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name.lstrip("_"),
                    importlib.import_module(f"opdk.{name}"))


def sig(n: int, color: str = "c"):
    return ((color,) * n, color)


def ring_key(ring):
    return ring.p if ring.kind == "Zmod" else ring.kind


def mat(m):
    return dict(m.entries), m.target.rank, m.source.rank


def comps(f):
    return [mat(c) for c in f.components]


def complex_data(K):
    return K.ranks(), [dict(d.entries) for d in K.differentials]


def map_data(f):
    return f.source.ranks(), f.target.ranks(), [dict(c.entries)
                                                for c in f.components]


def homology_data(o, K, degrees):
    out = []
    for n in degrees:
        h = o.chain.homology(K, n)
        out.append((h.rank, tuple(h.invariant_factors)))
    return out


def fingerprint(o, coll):
    """Level ranks and homology below the truncation degree, per signature:
    a complete isomorphism invariant of bounded free complexes over a PID."""
    return {s: (coll.level(s).ranks(),
                tuple(homology_data(o, coll.level(s),
                                    range(coll.level(s).max_degree))))
            for s in coll.signatures()}


# -- integer_operads ----------------------------------------------------------


def _graded_binary(o, ring, max_degree):
    """M(2) = (x -> m), acyclic, slot swap trivial (tests/test_trees.py)."""
    obj = o.chain.pad(o.chain.two_term(ring, [[1]]), max_degree)
    s = sig(2)
    ops = o.operad.Collection(ring, "chain", ("c",), 4, max_degree, {}).ops
    return o.operad.Collection(ring, "chain", ("c",), 4, max_degree, {s: obj},
                               {s: {(1, 0): ops.identity(obj)}})


def _free_case(o, name, M, n, max_vertices, check):
    return Case(name, lambda: o.trees.free_operad(M, sig(n), max_vertices)
                .object.total_rank(), check)


def _graded_case(o, M, n):
    def run():
        K = o.trees.free_operad(M, sig(n), n - 1).object
        return K.ranks(), homology_data(o, o.chain.pad(K, n), range(n))
    return Case(f"free_graded_{n}", run,
                lambda a: checks.free_level_graded(n, *a))


def _extension_case(o, ring, kind, **kw):
    M, Y, f = o.corpus.split_binary_inclusion(ring, 3, **kw)
    key = ring_key(ring)

    def run():
        F = o.trees.FreeOperad(M, max_arity=3, max_vertices=3)
        st = o.trees.extension_stage(F.operad(), f, sig(3), 3,
                                     generator_map=o.trees.generator_inclusion(F))
        free_rank = o.trees.free_operad(Y, sig(3), 3).object.total_rank()
        return ([s.total_rank() for s in st.stages],
                [comps(m) for m in st.maps], st.colimit.total_rank(), free_rank)
    return Case(f"extension_{kind}_{ring.name()}", run,
                lambda a: checks.extension_stages(kind, key, *a))


def integer_operads(o):
    ZZ = o.rings.ZZ
    regular = o.corpus.binary_generator(ZZ, 4, regular=True)
    trivial = o.corpus.binary_generator(ZZ, 4, rank=1)
    graded = {3: _graded_binary(o, ZZ, 2), 4: _graded_binary(o, ZZ, 3)}
    assoc = o.operad.associative_operad(ZZ, "chain", 4, 0).collection
    cases = []
    for n in (2, 3, 4):
        cases.append(_free_case(o, f"free_regular_{n}", regular, n, 3,
                                lambda r, n=n: checks.free_level_regular(n, r)))
        cases.append(_free_case(o, f"free_trivial_{n}", trivial, n, 3,
                                lambda r, n=n: checks.free_level_trivial(n, r)))
    for n in (3, 4):
        cases.append(_graded_case(o, graded[n], n))

    def regular_composite():
        res = o.operad.composite_product(assoc, assoc).collection
        return {n: res.level(sig(n, "x")).level(0).rank for n in range(1, 5)}
    cases.append(Case("composite_regular_4", regular_composite,
                      checks.regular_composite))
    cases.append(_extension_case(o, ZZ, "trivial_q"))
    cases.append(_extension_case(o, ZZ, "regular_q", q_rank=2, q_regular=True))
    return cases


# -- field_operads ------------------------------------------------------------


def _bracketing_case(o, ring, action):
    rng = random.Random(COMPOSITE_SEED)
    L, M, N = (o.corpus.random_collection(rng, ring, "chain", 3, 2, 2, action)
               for _ in range(3))

    def run():
        cp = o.operad.composite_product
        left = cp(cp(L, M).collection, N).collection
        right = cp(L, cp(M, N).collection).collection
        return fingerprint(o, left), fingerprint(o, right)
    return Case(f"composite_assoc_{ring.name()}_{action}", run,
                lambda a: checks.bracketings_agree(*a))


def field_operads(o):
    QQ, F5 = o.rings.QQ, o.rings.Zmod(5)
    return [_bracketing_case(o, QQ, "sign"),
            _bracketing_case(o, F5, "sign"),
            _bracketing_case(o, F5, "trivial"),
            _extension_case(o, QQ, "trivial_q"),
            _extension_case(o, F5, "trivial_q")]


# -- dold_kan -----------------------------------------------------------------

ROUND_TRIPS = 100
MAP_ROUND_TRIPS = 15
COUNITS = 10
AW_SHUFFLES = 10
MAX_DEGREE = 4
# AW and shuffle go through N(A (x) B): over Z at degree 4 one pair ran ten
# minutes past 1.8 GB of memory without finishing
AW_MAX_DEGREE = 3
# The random instances come from this fixed seed, not from the run's.  Their
# cost has a heavy tail: at degree 3 one of twenty AW pairs over Z took 7.9 s
# against a mean of 0.72 s, and even at degree <= 2 the AW part of a pass of
# forty pairs cost 2.6 times more on one seed than on another.
DOLD_KAN_SEED = 1


def _round_trip_case(o, i, K):
    want = complex_data(K)
    return Case(f"n_gamma_{i}",
                lambda: complex_data(o.doldkan.normalize(o.doldkan.gamma(K)).complex),
                lambda a: checks.same_on_the_nose(f"N(Gamma(K_{i}))", want, a))


def _map_round_trip_case(o, i, f):
    want = map_data(f)

    def run():
        d = o.doldkan
        return map_data(d.normalize_map(d.gamma_map(f)))
    return Case(f"n_gamma_map_{i}", run,
                lambda a: checks.same_on_the_nose(f"N(Gamma(f_{i}))", want, a))


def _counit_case(o, i, A):
    key = ring_key(A.ring)
    return Case(f"counit_{i}", lambda: comps(o.doldkan.counit(A)),
                lambda a: checks.isomorphism(f"counit_{i}", key, a))


def _aw_shuffle_case(o, i, A, B):
    def run():
        d = o.doldkan
        na, nb = d.normalize(A), d.normalize(B)
        nab = d.normalize(o.simp.tensor(A, B))
        F = d.aw(A, B, na, nb, nab)
        G = d.shuffle(A, B, na, nb, nab)
        return comps(F @ G)
    return Case(f"aw_shuffle_{i}", run,
                lambda a: checks.identity_map(f"AW.shuffle_{i}", a))


def _verdict_case(o, name, phi, expected, normalized):
    def run():
        p = o.operad.integrated_normalize(phi) if normalized else phi
        return o.operad.dk_equivalence(p).status
    return Case(f"dk_{name}{'_normalized' if normalized else ''}", run,
                lambda a: checks.verdict(name, expected, a))


def dold_kan(o):
    ZZ, F5 = o.rings.ZZ, o.rings.Zmod(5)
    c = o.corpus
    rng = random.Random(DOLD_KAN_SEED)
    ring = lambda i: (ZZ, F5)[i % 2]
    cases = []
    for i in range(ROUND_TRIPS):
        K = c.random_complex(rng, ring(i), rng.randint(1, MAX_DEGREE), max_rank=3)
        cases.append(_round_trip_case(o, i, K))
    for i in range(MAP_ROUND_TRIPS):
        D = rng.randint(1, MAX_DEGREE)
        K = c.random_complex(rng, ring(i), D, max_rank=2)
        L = c.random_complex(rng, ring(i), D, max_rank=2)
        cases.append(_map_round_trip_case(o, i, c.random_chain_map(rng, K, L)))
    for i in range(COUNITS):
        A = c.random_instance(rng, ring(i), rng.randint(1, MAX_DEGREE),
                              max_rank=2).module
        cases.append(_counit_case(o, i, A))
    for i in range(AW_SHUFFLES):
        D = rng.randint(1, AW_MAX_DEGREE)
        A = c.random_instance(rng, ring(i), D, max_rank=2).module
        B = c.random_instance(rng, ring(i), D, max_rank=2).module
        cases.append(_aw_shuffle_case(o, i, A, B))

    # each corpus operad with the status it was built to have
    T = c.trivial_operad(F5, "simplicial", 2)
    simplicial = [
        ("indiscrete_acyclic", c.indiscrete_operad(
            F5, "simplicial", 2, disk=c.acyclic_disk(F5, 2)), "equivalence"),
        ("indiscrete_loop", c.indiscrete_operad(
            F5, "simplicial", 2, disk=c.loop_disk(F5, 2)), "not_equivalence"),
        ("disconnected", c.disconnected_operad(
            F5, "simplicial", 2, disk=c.acyclic_disk(F5, 2)), "not_equivalence"),
    ]
    for name, Q, expected in simplicial:
        phi = c.point_inclusion(T, Q, "a")
        for normalized in (False, True):
            cases.append(_verdict_case(o, name, phi, expected, normalized))
    Tz = c.trivial_operad(ZZ, "chain", 1)
    for factor, expected in ((1, "equivalence"), (4, "inconclusive")):
        phi = c.point_inclusion(Tz, c.scaled_pair_operad(ZZ, factor), "a")
        cases.append(_verdict_case(o, f"scaled_pair_{factor}", phi, expected,
                                   False))

    assoc = o.operad.associative_operad(ZZ, "simplicial", 3, 2)

    def normalized_assoc():
        NA = o.doldkan.normalize_operad(assoc)
        return {n: NA.collection.level(sig(n, "x")).ranks() for n in (1, 2, 3)}
    cases.append(Case("normalize_associative", normalized_assoc,
                      lambda a: checks.normalized_associative(a, 2)))
    return cases


WORKLOADS = {"integer_operads": integer_operads,
             "field_operads": field_operads,
             "dold_kan": dold_kan}


def build(name: str):
    """(opdk modules, cases) for one workload, importing opdk afresh."""
    o = Opdk()
    return o, WORKLOADS[name](o)

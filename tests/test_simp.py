"""Simplicial modules: operator tables against a raw monotone-map oracle."""

import random

import pytest

from opdk import corpus
from opdk.chain import homology
from opdk.exactlin import FreeModule, LinearMap, compose, matrix_to_json
from opdk.rings import QQ, ZZ, Zmod
from opdk.simp import (
    SimplicialModule,
    SimplicialMap,
    compose_monotone,
    constant_module,
    delta,
    direct_sum,
    from_simplicial_set,
    monotone_surjections,
    moore_complex,
    sigma,
    simp_from_json,
    simp_to_json,
    simplicial_operator,
    standard_simplex,
    swap_map,
    tensor,
    validate,
)


# ---------------------------------------------------------------------------
# negative controls: a module with one face or degeneracy swapped out
# breaks the simplicial identities; test_doldkan.py imports these too
# ---------------------------------------------------------------------------


def replace_face(A, n: int, i: int, new: LinearMap) -> SimplicialModule:
    """A copy of A with the face d_i out of degree n swapped for new."""
    faces = [list(fs) for fs in A.faces]
    faces[n - 1][i] = new
    return SimplicialModule(A.ring, A.levels, faces, A.degeneracies)


def replace_degeneracy(A, n: int, i: int, new: LinearMap) -> SimplicialModule:
    """A copy of A with the degeneracy s_i out of degree n swapped for new."""
    degeneracies = [list(ss) for ss in A.degeneracies]
    degeneracies[n][i] = new
    return SimplicialModule(A.ring, A.levels, A.faces, degeneracies)


# ---------------------------------------------------------------------------
# oracle: the 1-simplex modeled directly on monotone maps [n] -> [1],
# with operators given by precomposition. No normal forms involved.
# ---------------------------------------------------------------------------


def all_monotone_to_1(n):
    out = []
    for bits in range(2 ** (n + 1)):
        f = tuple((bits >> t) & 1 for t in range(n + 1))
        if all(f[t] <= f[t + 1] for t in range(n)):
            out.append(f)
    return sorted(out)


class RawInterval:
    def __init__(self, max_degree):
        self.D = max_degree
        self.basis = [all_monotone_to_1(n) for n in range(max_degree + 1)]
        self.index = [{f: k for k, f in enumerate(lvl)} for lvl in self.basis]

    def face_matrix(self, n, i):
        rows = [[0] * len(self.basis[n]) for _ in self.basis[n - 1]]
        for col, f in enumerate(self.basis[n]):
            g = compose_monotone(f, delta(i, n))
            rows[self.index[n - 1][g]][col] = 1
        return rows

    def degeneracy_matrix(self, n, i):
        rows = [[0] * len(self.basis[n]) for _ in self.basis[n + 1]]
        for col, f in enumerate(self.basis[n]):
            g = compose_monotone(f, sigma(i, n))
            rows[self.index[n + 1][g]][col] = 1
        return rows

    def operator_matrix(self, f, n):
        p = len(f) - 1
        rows = [[0] * len(self.basis[n]) for _ in self.basis[p]]
        for col, g in enumerate(self.basis[n]):
            h = compose_monotone(g, f)
            rows[self.index[p][h]][col] = 1
        return rows


def interval_basis_permutation(A, raw):
    """Permutation matrices aligning ZZ[interval] bases with the raw model.

    Level n of `from_simplicial_set` lists the pairs (x, eta), the
    simplices x by (dimension, listed order) outer and eta: [n] ->> [dim x]
    inner in `monotone_surjections` order; the matching monotone map
    [n] -> [1] is the vertex/edge inclusion of x after eta.
    """
    inclusions = [(0,), (1,), (0, 1)]  # v0, v1, v01
    perms = []
    for n in range(A.max_degree + 1):
        basis = [compose_monotone(x, eta) for x in inclusions
                 for eta in monotone_surjections(n, len(x) - 1)]
        entries = {(raw.index[n][f], pos): 1 for pos, f in enumerate(basis)}
        perms.append(LinearMap(A.level(n),
                               FreeModule(ZZ, len(raw.basis[n])), entries))
    return perms


def test_interval_against_raw_model():
    A = standard_simplex(1, ZZ, 2)
    raw = RawInterval(2)
    P = interval_basis_permutation(A, raw)
    for n in range(1, 3):
        for i in range(n + 1):
            conv = compose(compose(P[n - 1], A.face(n, i)), P[n].inverse())
            assert conv.to_rows() == raw.face_matrix(n, i)
    for n in range(2):
        for i in range(n + 1):
            conv = compose(compose(P[n + 1], A.degeneracy(n, i)), P[n].inverse())
            assert conv.to_rows() == raw.degeneracy_matrix(n, i)


def test_simplicial_operator_against_raw_model():
    A = standard_simplex(1, ZZ, 2)
    raw = RawInterval(2)
    P = interval_basis_permutation(A, raw)
    cases = [
        ((0, 0, 2), 2),   # degeneracy then face, mixed
        ((1, 2), 2),      # single face
        ((0, 0, 1, 2), 2),  # lands one degree up
        ((0,), 2),        # double face
        ((0, 1), 1),      # identity
    ]
    for f, n in cases:
        p = len(f) - 1
        if p > 2:
            continue
        op = simplicial_operator(A, f, n)
        lhs = compose(P[p], op)
        want = raw.operator_matrix(f, n)
        got = [[0] * A.level(n).rank for _ in range(len(raw.basis[p]))]
        for (r, c), v in lhs.entries.items():
            got[r][c] = v
        # columns are in A's basis order; convert the oracle likewise
        conv = compose(lhs, P[n].inverse())
        for (r, c), v in conv.entries.items():
            assert want[r][c] == v
        assert len(conv.entries) == len([1 for row in want for v in row if v])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_constant_module_valid():
    assert validate(constant_module(ZZ, 3)) == []


def test_interval_valid():
    assert validate(standard_simplex(1, ZZ, 3)) == []
    assert validate(standard_simplex(2, ZZ, 3)) == []


def test_corrupted_copy_reports_only_touched_identities():
    A = standard_simplex(1, ZZ, 2)
    Z = LinearMap.zero(A.level(2), A.level(1))
    bad = replace_face(A, 2, 1, Z)
    report = validate(bad)
    assert report
    assert ("ds=", 1, 1, 0) in report
    assert ("ds=", 1, 1, 1) in report
    for kind, n, i, j in report:
        if kind == "dd":
            assert n == 2 and (i == 1 or j == 1)
        elif kind == "ds=":
            assert n == 1 and i == 1
        else:
            raise AssertionError(f"unexpected violation {(kind, n, i, j)}")


# ---------------------------------------------------------------------------
# from_simplicial_set
# ---------------------------------------------------------------------------


def test_point_is_constant():
    P = from_simplicial_set({"v": []}, ZZ, 3)
    assert P == constant_module(ZZ, 3)


def test_interval_ranks():
    assert standard_simplex(1, ZZ, 2).ranks() == (2, 3, 4)


def test_two_points_ranks():
    B = from_simplicial_set({"v0": [], "v1": []}, ZZ, 2)
    assert B.ranks() == (2, 2, 2)


def test_degenerate_face_spec():
    # a 2-cell glued onto a point: both faces of the edge are the vertex,
    # and the 2-cell's faces are the degenerate edge s_0(v)
    S = from_simplicial_set(
        {"v": [], "c": [("v", (0,)), ("v", (0,)), ("v", (0,))]}, ZZ, 2)
    assert validate(S) == []
    assert S.ranks() == (1, 1, 2)


def test_missing_face_rejected():
    with pytest.raises(ValueError, match="face 'v' of 'e' not listed"):
        from_simplicial_set({"e": ["v", "v"]}, ZZ, 1)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_with_constant_unit():
    A = standard_simplex(1, ZZ, 2)
    T = tensor(A, constant_module(ZZ, 2))
    assert T.ranks() == A.ranks()
    u = SimplicialMap(T, A, [LinearMap.identity(M) for M in T.levels])
    assert u.is_iso()


def test_interval_square_ranks():
    A = standard_simplex(1, ZZ, 2)
    assert tensor(A, A).ranks() == (4, 9, 16)


def test_swap_is_simplicial_iso():
    A = standard_simplex(1, ZZ, 2)
    B = from_simplicial_set({"v0": [], "v1": []}, ZZ, 2)
    t = swap_map(A, B)  # constructor checks commutation
    assert t.is_iso()
    back = swap_map(B, A)
    assert all(c.entries == LinearMap.identity(c.source).entries
               for c in (back @ t).components)


def test_tensor_truncates_to_min():
    A = standard_simplex(1, ZZ, 3)
    B = standard_simplex(1, ZZ, 2)
    assert tensor(A, B).max_degree == 2


# ---------------------------------------------------------------------------
# moore complex
# ---------------------------------------------------------------------------


def test_moore_constant_alternating():
    C = moore_complex(constant_module(ZZ, 4))
    for n in range(1, 5):
        # telescoping oracle: sum of (-1)^i over i = 0..n
        total = sum((-1) ** i for i in range(n + 1))
        expect = {} if total == 0 else {(0, 0): total}
        assert C.d(n).entries == expect


def test_moore_interval_homology():
    C = moore_complex(standard_simplex(1, ZZ, 3))
    h0 = homology(C, 0)
    assert h0.rank == 1 and h0.invariant_factors == ()
    h1 = homology(C, 1)
    assert h1.is_zero()
    h2 = homology(C, 2)
    assert h2.is_zero()


def _oracle_moore_differential(A, n):
    """The alternating face sum one matrix addition at a time."""
    d = LinearMap.zero(A.level(n), A.level(n - 1))
    for i in range(n + 1):
        d = d + A.face(n, i) if i % 2 == 0 else d - A.face(n, i)
    return d


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(5), Zmod(2)],
                         ids=["Z", "Q", "F5", "F2"])
def test_moore_sums_the_faces_as_the_pairwise_oracle(ring):
    # random instances, tensors and Barratt-Eccles levels, where faces
    # cancel against each other; the one pass also keeps the entry order
    rng = random.Random(41)
    modules = [corpus.random_instance(rng, ring, D, max_rank=2).module
               for D in (1, 2, 3)]
    modules.append(tensor(modules[1], modules[1]))
    modules.append(corpus.barratt_eccles_level(ring, 2, 3))
    modules.append(constant_module(ring, 4, 2))
    for A in modules:
        C = moore_complex(A)
        assert C.ranks() == A.ranks()
        for n in range(1, A.max_degree + 1):
            want = _oracle_moore_differential(A, n)
            assert list(C.d(n).entries.items()) == list(want.entries.items())


def test_moore_zero_module():
    M = FreeModule(ZZ, 0)
    A = SimplicialModule(ZZ, [M, M],
                         [[LinearMap.zero(M, M), LinearMap.zero(M, M)]],
                         [[LinearMap.zero(M, M)]])
    C = moore_complex(A)
    assert C.ranks() == (0, 0)


def test_json_roundtrip():
    A = standard_simplex(1, ZZ, 2)
    assert simp_from_json(simp_to_json(A)) == A


@pytest.mark.parametrize("what, extra", [("faces", 1),
                                         ("degeneracies", 1),
                                         ("degeneracies", 2)])
def test_json_more_operator_lists_than_levels_raises(what, extra):
    # each extra list holds an operator, which reads a level past the top
    data = simp_to_json(standard_simplex(1, ZZ, 2))
    data[what] = data[what] + [data[what][-1]] * extra
    count = len(data[what])
    with pytest.raises(ValueError, match=rf"^{count} lists of {what} need "
                                         rf"{count + 1} levels, got 3$"):
        simp_from_json(data)


@pytest.mark.parametrize("levels", [[-2], [True], [2.5], ["2"], [None],
                                    [1, -1], [1, False]])
def test_json_refuses_a_level_rank_that_is_not_a_rank(levels):
    # -2 read as a silent zero level, True as rank 1
    d = {"ring": "Z", "rows": 1, "cols": 0, "entries": []}
    s = {"ring": "Z", "rows": 0, "cols": 1, "entries": []}
    top = len(levels) - 1
    data = {"ring": "Z", "levels": levels, "faces": [[d, d]] * top,
            "degeneracies": [[s]] * top}
    with pytest.raises(ValueError, match="rank must be an int >= 0"):
        simp_from_json(data)


_BAD_SIMP_DOCUMENTS = {
    "face-ring": r"^a 2x3 matrix over Q in a 2x3 slot over Z$",
    "face-shape": r"^a 1x1 matrix over Z in a 2x3 slot over Z$",
    "degeneracy-shape": r"^a 1x1 matrix over Z in a 3x2 slot over Z$",
    "max_degree": r"^max_degree 3 does not match 2 levels$",
    "no-max_degree": r"^max_degree None does not match 2 levels$",
}


@pytest.mark.parametrize("case", sorted(_BAD_SIMP_DOCUMENTS))
def test_json_refuses_a_matrix_or_max_degree_that_misses_its_slot(case):
    # each matrix was re-read in its slot's modules, and max_degree ignored
    A = standard_simplex(1, ZZ, 1)
    data = simp_to_json(A)
    one = matrix_to_json(LinearMap.identity(FreeModule(ZZ, 1)))
    if case == "face-ring":
        data["faces"][0][0] = simp_to_json(standard_simplex(1, QQ, 1))[
            "faces"][0][0]
    elif case == "face-shape":
        data["faces"][0][1] = one
    elif case == "degeneracy-shape":
        data["degeneracies"][0][0] = one
    elif case == "max_degree":
        data["max_degree"] = 3
    else:
        del data["max_degree"]
    with pytest.raises(ValueError, match=_BAD_SIMP_DOCUMENTS[case]):
        simp_from_json(data)


def test_json_zero_denominator_raises():
    data = simp_to_json(standard_simplex(1, QQ, 1))
    data["faces"][0][0]["entries"][0][2] = "1/0"
    with pytest.raises(ValueError, match="denominator 0"):
        simp_from_json(data)


def test_surjection_enumeration():
    assert monotone_surjections(2, 1) == [(0, 0, 1), (0, 1, 1)]
    assert len(monotone_surjections(3, 1)) == 3
    assert monotone_surjections(1, 2) == []
    assert monotone_surjections(0, 0) == [(0,)]
    # counts follow binomials: surjections [n] ->> [k] choose the k jump
    # positions among n slots
    from math import comb
    for n in range(5):
        for k in range(n + 1):
            assert len(monotone_surjections(n, k)) == comb(n, k)


def _simp_input_checks():
    A = standard_simplex(1, ZZ, 2)
    M0, M1, M2 = A.levels
    faces = [list(fs) for fs in A.faces]
    degen = [list(ss) for ss in A.degeneracies]
    comps = [LinearMap.identity(M) for M in A.levels]

    def module(levels=A.levels, faces=faces, degen=degen):
        return lambda: SimplicialModule(ZZ, levels, faces, degen)

    return {
        "no-levels": (module([], [], []), "needs at least degree 0"),
        "face-count": (module(faces=faces[:1]),
                       "3 levels need face lists for degrees 1..2, got 1"),
        "degeneracy-count": (module(degen=degen + [[]]),
                             "3 levels need degeneracy lists for degrees "
                             r"0\.\.1, got 3"),
        "faces-at-degree": (module(faces=[faces[0], faces[1][:2]]),
                            r"need d_0\.\.d_2 at degree 2"),
        "degeneracies-at-degree": (module(degen=[degen[0], degen[1][:1]]),
                                   r"need s_0\.\.s_1 at degree 1"),
        "face-shape": (module(faces=[faces[0], faces[1][:2] + [faces[0][0]]]),
                       "d_2 at degree 2 is not a map from level 2 to "
                       "level 1"),
        "degeneracy-shape": (module(degen=[[degen[1][0]], degen[1]]),
                             "s_0 at degree 0 is not a map from level 0 to "
                             "level 1"),
        "face-index": (lambda: A.face(2, 3), "no face d_3 out of degree 2"),
        "face-degree": (lambda: A.face(0, 0), "no face d_0 out of degree 0"),
        "degeneracy-index": (lambda: A.degeneracy(1, 2),
                             "no degeneracy s_2 out of degree 1"),
        "degeneracy-degree": (lambda: A.degeneracy(2, 0),
                              "no degeneracy s_0 out of degree 2"),
        "map-ring": (lambda: SimplicialMap(A, standard_simplex(1, QQ, 2),
                                           comps, check=False),
                     "source over Z, target over Q"),
        "map-degree": (lambda: SimplicialMap(A, standard_simplex(1, ZZ, 1),
                                             comps, check=False),
                       "source degree 2, target degree 1"),
        "map-components": (lambda: SimplicialMap(A, A, comps[:2]),
                           r"degrees 0\.\.2 need 3 components, got 2"),
        "direct-sum": (lambda: direct_sum(A, standard_simplex(1, ZZ, 1)),
                       "summands differ in ring or max_degree"),
        "operator-range": (lambda: simplicial_operator(A, (0, 3), 2),
                           r"\(0, 3\) is not a monotone map into \[2\]"),
        "operator-monotone": (lambda: simplicial_operator(A, (1, 0), 2),
                              r"\(1, 0\) is not a monotone map into \[2\]"),
    }


@pytest.mark.parametrize("case", sorted(_simp_input_checks()))
def test_simp_input_checks_raise_value_error(case):
    # explicit raises, so they also hold under python -O
    call, msg = _simp_input_checks()[case]
    with pytest.raises(ValueError, match=msg):
        call()


def test_simplicial_maps_of_other_shapes_are_not_equal():
    # the identities of a degree-2 and a degree-1 constant module agree
    # on degrees 0 and 1, and two zero maps have no entries at all
    assert SimplicialMap.identity(constant_module(ZZ, 2)) != \
        SimplicialMap.identity(constant_module(ZZ, 1))
    A, B = constant_module(ZZ, 2), standard_simplex(1, ZZ, 2)
    assert SimplicialMap.zero(A, A) != SimplicialMap.zero(A, B)
    assert SimplicialMap.zero(A, B) == SimplicialMap.zero(A, B)
    assert hash(SimplicialMap.identity(A)) == \
        hash(SimplicialMap.identity(constant_module(ZZ, 2)))


@pytest.mark.parametrize("n", [-1, 3])
def test_simplicial_map_component_off_the_ends_is_zero(n):
    f = SimplicialMap.identity(standard_simplex(1, ZZ, 2))
    c = f.component(n)
    assert (c.source.rank, c.target.rank, c.entries) == (0, 0, {})


def test_simplicial_map_refuses_a_component_of_the_wrong_shape():
    # without the commutation check, as with it
    A = standard_simplex(1, ZZ, 2)
    comps = list(SimplicialMap.identity(A).components)
    comps[1] = LinearMap.identity(FreeModule(ZZ, 2))
    for check in (False, True):
        with pytest.raises(ValueError, match="component 1 is not a map "
                                             "between the degree-1 levels"):
            SimplicialMap(A, A, comps, check=check)


def test_simp_from_json_of_an_empty_document_names_the_ring():
    with pytest.raises(ValueError, match="needs the key 'ring'"):
        simp_from_json({})

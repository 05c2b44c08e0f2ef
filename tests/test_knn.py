import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_knn
from voxcodec import synthetic
from voxcodec.errors import ContractViolation
from voxcodec.knn import knn
from voxcodec.sparse import SparseTensor


def test_package_attribute_is_the_module():
    from voxcodec import knn as attr

    assert attr is importlib.import_module("voxcodec.knn")


def ref(coords):
    c = np.array(sorted(map(tuple, coords)), dtype=np.int64)
    return SparseTensor.build(c, np.ones((len(c), 1), np.float32), 0)


def test_query_at_existing_coord():
    r = ref([[0, 0, 0], [3, 0, 0]])
    idx, d2 = knn([[3.0, 0.0, 0.0]], r, 1)
    assert idx[0, 0] == 1 and d2[0, 0] == 0.0


def test_hand_distances():
    r = ref([[0, 0, 0], [1, 0, 0], [5, 0, 0]])
    idx, d2 = knn([[0.5, 0, 0]], r, 3)
    assert d2[0].tolist() == [0.25, 0.25, 20.25]
    assert idx[0].tolist() == [0, 1, 2]  # tie broken toward the lex-smaller coord


def test_tie_just_outside_the_probed_cube():
    # with 2-unit cells from the min corner, the query's first 3x3x3 cube ends
    # at y = 4: (1, 4, 1) lies just outside it, exactly as far as (3, 3, 2)
    # inside, and wins the tie on index
    r = ref([[-2, -2, -2], [1, 4, 1], [3, 3, 2], [20, 20, 20]])
    idx, d2 = knn([[1.0, 1.0, 1.0]], r, 1)
    assert idx.tolist() == [[1]] and d2.tolist() == [[9.0]]


def test_tie_on_the_far_face_at_the_kth_place():
    # the same first cube: two points at d2 = 1 are strictly inside the
    # certified ball (r = 3), while (3, 3, 2) inside the cube and (1, 4, 1)
    # on its far face tie at d2 = 9 = r^2 for the 3rd place; (1, 4, 1) wins
    r = ref([[-2, -2, -2], [0, 1, 1], [1, 1, 2], [1, 4, 1], [3, 3, 2], [20, 20, 20]])
    idx, d2 = knn([[1.0, 1.0, 1.0]], r, 3)
    assert idx.tolist() == [[1, 2, 3]] and d2.tolist() == [[1.0, 1.0, 9.0]]


def test_k_clamped():
    r = ref([[0, 0, 0], [9, 9, 9]])
    idx, d2 = knn([[1.0, 1.0, 1.0]], r, 3)
    assert idx.shape == (1, 2)


def test_empty_reference_rejected():
    with pytest.raises(ContractViolation):
        knn([[0, 0, 0]], np.empty((0, 3), np.int64), 1)


def test_bad_k():
    with pytest.raises(ContractViolation):
        knn([[0, 0, 0]], np.array([[0, 0, 0]]), 0)


@pytest.mark.parametrize("k", [-1, 2.5, np.float64(2), True, np.bool_(True), "3", None,
                               np.array([2])])
def test_k_not_an_integer_above_0_rejected(k):
    # a float, bool, string or None raised a raw TypeError
    with pytest.raises(ContractViolation, match="k must be"):
        knn([[0, 0, 0]], np.array([[0, 0, 0]]), k)


@pytest.mark.parametrize("k", [np.int64(2), np.uint8(2), np.int32(5)])
def test_numpy_integer_k(k):
    r = ref([[0, 0, 0], [9, 9, 9], [1, 0, 0]])
    got = knn([[1.0, 1.0, 1.0]], r, k)
    want = knn([[1.0, 1.0, 1.0]], r, int(k))
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


@pytest.mark.parametrize("seed", range(8))
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 400))
    coords = np.unique(rng.integers(0, 40, size=(n, 3)), axis=0)
    r = ref(coords)
    queries = rng.uniform(-5, 45, size=(60, 3))
    for k in (1, 3, 7):
        gi, gd = knn(queries, r, k)
        bi, bd = brute_force_knn(queries, r.coords, k)
        assert np.array_equal(gi, bi) and gd.tobytes() == bd.tobytes()


def test_far_query():
    r = ref([[0, 0, 0], [2, 2, 2]])
    idx, d2 = knn([[1000.0, 1000.0, 1000.0]], r, 2)
    bi, bd = brute_force_knn([[1000.0, 1000.0, 1000.0]], r.coords, 2)
    assert np.array_equal(idx, bi) and d2.tobytes() == bd.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(0, 400),
       st.sampled_from(["integer", "half-integer", "real", "far"]),
       st.sampled_from([1, 3, 4, 16, 500]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_matches_brute_force_exactly(seed, n, nq, kind, k):
    rng = np.random.default_rng(seed)
    span, lo = int(rng.integers(1, 70)), int(rng.integers(-60, 20))
    coords = np.unique(rng.integers(lo, lo + span, size=(n, 3)), axis=0)
    q = {
        # lattice and half-lattice queries sit at equal distance from many points
        "integer": rng.integers(lo - 9, lo + span + 9, size=(nq, 3)).astype(np.float64),
        "half-integer": rng.integers(2 * lo - 18, 2 * (lo + span) + 18, size=(nq, 3)) / 2.0,
        "real": rng.uniform(lo - 9, lo + span + 9, size=(nq, 3)),
        "far": rng.choice([-1e12, 1e12, -3e5, 0.5, float(lo)], size=(nq, 3)),
    }[kind]
    q = np.vstack([q, q[: nq // 3]])  # duplicated queries
    gi, gd = knn(q, coords, k)
    bi, bd = brute_force_knn(q, coords, k)
    assert gi.shape == (len(q), min(k, len(coords)))
    assert np.array_equal(gi, bi) and gd.tobytes() == bd.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 500), st.sampled_from([6, 7]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_self_queries_on_a_clustered_cloud(seed, n, bits):
    # estimate_normals' call: every reference point queries its 16 nearest,
    # and on a lattice many candidates sit exactly at the certified radius
    coords = synthetic.make_blob(n, bits, seed)
    gi, gd = knn(coords.astype(np.float64), coords, 16)
    bi, bd = brute_force_knn(coords, coords, 16)
    assert np.array_equal(gi, bi) and gd.tobytes() == bd.tobytes()


def test_single_reference_point():
    idx, d2 = knn([[0.5, 0, 0], [-1e12, 3, 3]], np.array([[2, 3, 4]]), 4)
    assert idx.tolist() == [[0], [0]]
    assert d2[0, 0] == 1.5**2 + 9 + 16


def test_no_queries():
    idx, d2 = knn(np.empty((0, 3)), ref([[0, 0, 0], [1, 1, 1]]), 5)
    assert idx.shape == d2.shape == (0, 2)


@pytest.mark.parametrize("queries", [
    np.zeros((3, 2)), np.zeros((5, 2)), np.zeros((2, 3, 1)), [1, 2, 3],
    [[True, False, True]], [["0", "0", "0"]], [[0, 0, 0], [1]],
], ids=["3x2", "5x2", "3d", "flat", "bool", "str", "ragged"])
def test_malformed_queries_rejected(queries):
    # queries are real positions, so fractional ones are fine; a (3, 2)
    # array must not be reshaped into two queries
    with pytest.raises(ContractViolation, match=r"\(N, 3\) numeric array"):
        knn(queries, ref([[0, 0, 0], [1, 1, 1]]), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rejected(bad):
    grid = [(x, y, z) for x in range(0, 12, 2) for y in range(0, 12, 2) for z in range(0, 12, 2)]
    with pytest.raises(ContractViolation):
        knn([[1.0, 1.0, 1.0], [bad, 1.0, 1.0]], ref(grid), 3)


def test_scratch_memory_does_not_grow_with_queries():
    # probes and candidate pairs go in fixed-size blocks: beyond its results,
    # knn allocates the same bounded scratch for 5k and for 20k queries
    rng = np.random.default_rng(0)
    coords = np.unique(rng.integers(0, 24, size=(8000, 3)), axis=0)
    for nq in (5000, 20000):
        q = rng.uniform(-2, 26, size=(nq, 3))
        tracemalloc.start()
        try:
            idx, d2 = knn(q, coords, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - idx.nbytes - d2.nbytes < 2_000_000


def test_reference_spanning_the_21_bit_range():
    # cells reach the top of the key range: the probe's high corner packs at
    # most 3 in key coordinates and its low corner exactly the bottom
    rng = np.random.default_rng(5)
    edge = np.array([-(1 << 20), (1 << 20) - 1])
    corners = np.stack(np.meshgrid(edge, edge, edge, indexing="ij"), -1).reshape(-1, 3)
    coords = np.unique(np.vstack([corners, rng.integers(-(1 << 20), 1 << 20, size=(200, 3))]), axis=0)
    queries = np.vstack([
        rng.uniform(-(1 << 20), 1 << 20, size=(40, 3)),  # inside
        corners + rng.uniform(-3, 3, size=(8, 3)) + np.sign(corners) * 2,  # just outside the corners
        rng.choice([-1e12, 1e12, 0.5], size=(12, 3)),  # far
    ])
    for k in (1, 3, 9):
        gi, gd = knn(queries, coords, k)
        bi, bd = brute_force_knn(queries, coords, k)
        assert np.array_equal(gi, bi) and gd.tobytes() == bd.tobytes()


def test_one_query_beyond_the_pair_block():
    # on a full 24^3 lattice a far query's covering cube holds all 13,824
    # points, more than one pair block: the query is ranked alone, with the
    # largest sort keys knn makes (rows times distinct distances)
    coords = np.stack(np.meshgrid(*[np.arange(24)] * 3, indexing="ij"), -1).reshape(-1, 3)
    queries = [[1e6, 1e6, 1e6], [-500.5, 11.5, 12.0], [12.0, 3e4, -7.25], [11.5, 11.5, 11.5]]
    for k in (16, 9000):
        gi, gd = knn(queries, coords, k)
        bi, bd = brute_force_knn(queries, coords, k)
        assert np.array_equal(gi, bi) and gd.tobytes() == bd.tobytes()


def test_reference_beyond_the_sort_key_budget_rejected():
    # a zero-stride view: the size is rejected before any memory is used
    huge = np.broadcast_to(np.zeros(3, np.int64), ((1 << 31) + 1, 3))
    with pytest.raises(ContractViolation, match="exceeds"):
        knn([[0.0, 0.0, 0.0]], huge, 1)

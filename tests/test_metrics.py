from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_knn, brute_force_nn_mse, d2_oracle, normals_oracle
from voxcodec import metrics, synthetic
from voxcodec.errors import ContractViolation
from voxcodec.knn import knn
from voxcodec.nn import ConvSpec, build_kernel_map
from voxcodec.octree import octree_encode
from voxcodec.ply import write_ply
from voxcodec.sparse import (CoordSet, PointCloudFrame, SparseTensor, children_coords, pack_keys,
                             sorted_keys, stride_down_coords)


def cloud(coords, precision=10):
    return PointCloudFrame.from_coords(coords, precision)


class TestD1:
    def test_identical_clouds_infinite(self):
        a = cloud([[0, 0, 0], [5, 5, 5]])
        assert np.isinf(metrics.d1_psnr(a, a))

    def test_single_point_offset_fixture(self):
        a = cloud([[0, 0, 0]])
        b = cloud([[1, 0, 0]])
        expect = 10 * np.log10(3 * 1023**2)
        assert metrics.d1_psnr(a, b) == pytest.approx(expect, abs=0.01)
        assert expect == pytest.approx(64.97, abs=0.01)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = cloud(np.unique(rng.integers(0, 50, (80, 3)), axis=0))
        b = cloud(np.unique(rng.integers(0, 50, (90, 3)), axis=0))
        assert metrics.d1_psnr(a, b) == metrics.d1_psnr(b, a)

    def test_empty_rejected(self):
        a = cloud([[0, 0, 0]])
        with pytest.raises(ContractViolation):
            metrics.d1_psnr(a, np.empty((0, 3)))

    @pytest.mark.parametrize("metric", [metrics.d1_psnr, metrics.d2_psnr])
    @pytest.mark.parametrize("peak", [
        0, -5, np.inf, np.nan,
        # 3 * peak**2 overflows: the inf of identical clouds
        pytest.param(1e200, id="1e200"),
        # past the float range: a raw OverflowError
        pytest.param(10**400, id="10**400"), pytest.param(10**5000, id="10**5000"),
        pytest.param(Fraction(10**400, 3), id="Fraction"),
        # 3 * peak**2 underflows to 0
        pytest.param(1e-200, id="1e-200"),
        # raw TypeErrors and ValueErrors
        pytest.param("5", id="str"), pytest.param(None, id="None"),
        pytest.param(np.array(5.0), id="array0d"), pytest.param(np.array([5]), id="array1d"),
        pytest.param(True, id="bool"), pytest.param(1j, id="complex"),
    ])
    def test_peak_must_be_positive_and_finite(self, metric, peak, monkeypatch):
        # a zero peak would print the inf that stands for identical clouds;
        # the check comes before any nearest-neighbour search
        def no_knn(*args, **kwargs):
            raise AssertionError("kNN ran before the peak check")

        monkeypatch.setattr(metrics, "knn", no_knn)
        a, b = cloud([[0, 0, 0], [1, 1, 1]]), cloud([[1, 0, 0], [2, 2, 2]])
        with pytest.raises(ContractViolation, match="peak"):
            metric(a, b, peak=peak)

    @pytest.mark.parametrize("metric", [metrics.d1_psnr, metrics.d2_psnr])
    @pytest.mark.parametrize("peak", [np.int64(511), np.float64(511.0), np.float32(511.0),
                                      Fraction(511), 511.0])
    def test_any_real_peak(self, metric, peak):
        a, b = cloud([[0, 0, 0], [1, 1, 1]]), cloud([[1, 0, 0], [2, 2, 2]])
        assert metric(a, b, peak=peak) == metric(a, b, peak=511)

    @pytest.mark.parametrize("seed", range(5))
    def test_mse_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        na, nb = rng.integers(10, 300, 2)
        a = np.unique(rng.integers(0, 64, (na, 3)), axis=0)
        b = np.unique(rng.integers(0, 64, (nb, 3)), axis=0)
        mse = max(brute_force_nn_mse(a, b), brute_force_nn_mse(b, a))
        got = metrics.d1_psnr(cloud(a), cloud(b))
        assert got == pytest.approx(10 * np.log10(3 * 1023**2 / mse), abs=1e-9)

    def test_monotone_in_mse(self):
        psnrs = [10 * np.log10(3 * 1023**2 / m) for m in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(psnrs, psnrs[1:]))


class TestD2:
    def test_identical_clouds_infinite(self):
        a = cloud([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 1, 0]])
        assert np.isinf(metrics.d2_psnr(a, a))

    def test_planar_reference_projection(self):
        # reference is a dense z=0 plane; a query h above it has plane
        # distance exactly h regardless of lateral offset
        plane = [(x, y, 0) for x in range(12) for y in range(12)]
        ref = cloud(plane)
        q = cloud([[5, 5, 3]])
        d2 = metrics.d2_psnr(q, ref)
        # e_ab: query 3 above plane -> 9; e_ba dominated by plane->query
        normals, valid = metrics.estimate_normals(np.array(plane))
        assert valid.all()
        assert np.allclose(np.abs(normals[:, 2]), 1.0)

        diff_sq = 9.0
        e_ba = []
        qpt = np.array([5, 5, 3.0])
        na, va = metrics.estimate_normals(np.array([[5, 5, 3]]))
        for p in plane:
            e = np.array(p, float) - qpt
            e_ba.append(e @ e)  # degenerate query neighbourhood: point fallback
        mse = max(diff_sq, float(np.mean(e_ba)))
        assert metrics.d2_psnr(q, ref) == pytest.approx(10 * np.log10(3 * 1023**2 / mse))

    def test_d2_mse_not_above_d1(self):
        rng = np.random.default_rng(3)
        a = cloud(np.unique(rng.integers(0, 40, (120, 3)), axis=0))
        b = cloud(np.unique(rng.integers(0, 40, (130, 3)), axis=0))
        assert metrics.d2_psnr(a, b) >= metrics.d1_psnr(a, b)

    def test_degenerate_neighbourhood_falls_back(self):
        a = cloud([[0, 0, 0], [9, 9, 9]])
        b = cloud([[1, 0, 0], [8, 9, 9]])
        d1 = metrics.d1_psnr(a, b)
        d2 = metrics.d2_psnr(a, b)
        assert d2 == d1  # two-point clouds cannot support a plane


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["blobs", "lattice", "same", "shifted", "tiny", "one-neighbour"]))
@settings(max_examples=60, deadline=None, derandomize=True)
@example(53333082, "one-neighbour")  # a product sum of another order differs in the last bit
def test_d2_matches_whole_cloud_oracle(seed, kind):
    # D2 estimates normals only where a nearest neighbour lands; the oracle
    # estimates one at every reference point, and the bytes must agree
    rng = np.random.default_rng(seed)
    n, m = (int(v) for v in rng.integers(1, 200, 2))
    if kind == "blobs":
        a = synthetic.make_blob(n, 6, seed)
        b = synthetic.make_blob(m, 6, seed + 1)
    elif kind == "lattice":
        span = int(rng.integers(2, 12))
        a = np.unique(rng.integers(0, span, (n, 3)), axis=0)
        b = np.unique(rng.integers(0, span, (m, 3)), axis=0)
    elif kind in ("same", "shifted"):
        # every reference point is some query's nearest neighbour
        a = synthetic.make_blob(n, 6, seed)
        b = a if kind == "same" else a + [1, 0, 0]
    elif kind == "tiny":
        # 1-3 points: no neighbourhood supports a plane
        a = np.unique(rng.integers(0, 6, (int(rng.integers(1, 4)), 3)), axis=0)
        b = np.unique(rng.integers(0, 6, (int(rng.integers(1, 4)), 3)), axis=0)
    else:
        # a far cluster of queries whose nearest neighbour is one corner point
        b = synthetic.make_blob(m, 6, seed)
        a = np.vstack([b[:3], np.unique(rng.integers(500, 503, (n, 3)), axis=0)])
    assert metrics.d2_psnr(a, b).hex() == d2_oracle(a, b).hex()


class TestHandoff:
    """D1 and D2 called in a row on one pair share its two nearest searches."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """The k of every metrics.knn call, from an empty handoff."""
        calls = []

        def counted(queries, reference, k, _fn=metrics.knn):
            calls.append(k)
            return _fn(queries, reference, k)

        monkeypatch.setattr(metrics, "knn", counted)
        monkeypatch.setattr(metrics, "_held", None, raising=False)
        return calls

    @staticmethod
    def pair(seed=8):
        rng = np.random.default_rng(seed)
        a = np.unique(rng.integers(0, 20, (150, 3)), axis=0)
        b = np.unique(rng.integers(0, 20, (170, 3)), axis=0)
        return a, b

    @pytest.mark.parametrize("first, second", [(metrics.d1_psnr, metrics.d2_psnr),
                                               (metrics.d2_psnr, metrics.d1_psnr)],
                             ids=["d1-d2", "d2-d1"])
    def test_second_call_takes_the_searches(self, searches, first, second):
        a, b = self.pair()
        first(a, b)
        second(a, b)
        # a to b and b to a, then D2's normals on b and on a
        assert sorted(searches) == [1, 1, 16, 16]

    def test_a_taken_pair_is_dropped(self, searches):
        a, b = self.pair()
        for metric in (metrics.d1_psnr, metrics.d2_psnr, metrics.d1_psnr, metrics.d2_psnr):
            metric(a, b)
        assert searches.count(1) == 4
        assert metrics._held is None

    def test_only_the_last_pair_is_held(self, searches):
        a, b = self.pair()
        c, d = self.pair(9)
        metrics.d1_psnr(a, b)
        metrics.d1_psnr(c, d)
        metrics.d2_psnr(a, b)
        assert searches.count(1) == 6

    @pytest.mark.parametrize("change", ["row-moved", "swapped", "other-b"])
    def test_key_is_the_content_in_order(self, searches, change):
        a, b = self.pair()
        metrics.d1_psnr(a, b)
        if change == "row-moved":
            a2, b2 = np.roll(a, 1, axis=0), b
        elif change == "swapped":
            a2, b2 = b, a
        else:
            a2, b2 = a, np.vstack([b, [[30, 30, 30]]])
        metrics.d2_psnr(a2, b2)
        assert searches.count(1) == 4

    def test_a_copy_of_the_same_pair_is_the_same_pair(self, searches):
        a, b = self.pair()
        metrics.d1_psnr(cloud(a), cloud(b))
        metrics.d2_psnr(a.astype(np.float64), b.copy())
        assert searches.count(1) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_values_equal_those_with_no_handoff(self, seed, monkeypatch):
        a, b = self.pair(seed)
        fresh = {}
        for metric in (metrics.d2_psnr, metrics.d1_psnr):
            monkeypatch.setattr(metrics, "_held", None, raising=False)
            fresh[metric] = metric(a, b)
        assert fresh[metrics.d2_psnr] == d2_oracle(a, b)
        for order in ((metrics.d1_psnr, metrics.d2_psnr), (metrics.d2_psnr, metrics.d1_psnr)):
            monkeypatch.setattr(metrics, "_held", None, raising=False)
            assert [metric(a, b) for metric in order] == [fresh[metric] for metric in order]

    def test_handed_arrays_are_read_only(self, monkeypatch):
        monkeypatch.setattr(metrics, "_held", None, raising=False)
        a, b = self.pair()
        metrics.d1_psnr(a, b)
        (ia, da), (ib, db) = metrics._held[1]
        for arr in (ia, da, ib, db):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def _each(entry):
    """Run an entry point that takes one coordinate array on each of a pair."""
    return lambda *ab: [entry(c) for c in ab]


def _write_ply(coords):
    write_ply("cloud.ply", coords)  # in a test's own working directory


class TestCoords:
    # every entry point that takes lattice coordinates shares one check
    # (sparse.as_coords); a (3, 2) array or a fractional row must raise, not
    # be reshaped or truncated into other points
    @pytest.mark.parametrize("metric", [
        metrics.d1_psnr, metrics.d2_psnr,
        lambda *ab: [metrics.estimate_normals(c) for c in ab],
        pytest.param(_each(lambda c: knn([[0, 0, 0]], c, 1)), id="knn-reference"),
        pytest.param(_each(pack_keys), id="pack_keys"),
        pytest.param(_each(CoordSet), id="CoordSet"),
        pytest.param(_each(lambda c: SparseTensor.build(c, np.ones(2))), id="build"),
        pytest.param(_each(lambda c: PointCloudFrame.from_coords(c, 10)), id="from_coords"),
        pytest.param(_each(stride_down_coords), id="stride_down_coords"),
        pytest.param(_each(children_coords), id="children_coords"),
        pytest.param(_each(sorted_keys), id="sorted_keys"),
        pytest.param(lambda a, b: build_kernel_map(a, b, ConvSpec(1, 1, 3)), id="kernel_map"),
        pytest.param(_each(lambda c: octree_encode(c, 3)), id="octree_encode"),
        pytest.param(_each(_write_ply), id="write_ply"),
    ])
    @pytest.mark.parametrize("coords", [
        [[0.5, 0, 0], [3, 3, 3]],     # fractional: D1(a, a) would read a finite PSNR
        np.zeros((3, 2)),             # would reshape into two points
        np.zeros((5, 2)),             # would not reshape at all
        np.zeros((2, 3, 1)),
        [1, 2, 3],
        [[np.nan, 0, 0]],
        [[np.inf, 0, 0]],
        [[1e300, 0, 0]],
        [[True, False, True]],
        [["0", "0", "0"]],
        [[0, 0, 0], [1, 2]],
    ], ids=["fractional", "3x2", "5x2", "3d", "flat", "nan", "inf", "huge", "bool", "str",
            "ragged"])
    def test_malformed_rejected(self, metric, coords, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        good = np.array([[1, 2, 3], [4, 5, 6]])
        for pair in ((coords, coords), (coords, good), (good, coords)):
            with pytest.raises(ContractViolation, match="coordinates"):
                metric(*pair)

    def test_integer_valued_floats_and_frames_agree(self):
        rng = np.random.default_rng(4)
        a = np.unique(rng.integers(0, 30, (90, 3)), axis=0)
        b = np.unique(rng.integers(0, 30, (70, 3)), axis=0)
        for metric in (metrics.d1_psnr, metrics.d2_psnr):
            want = metric(cloud(a), cloud(b)).hex()
            assert metric(a.astype(np.float64), b.astype(np.float32)).hex() == want
            assert metric(a.astype(np.uint16), b.tolist()).hex() == want


class TestNormals:
    def test_sign_convention(self):
        plane = np.array([(x, y, 0) for x in range(8) for y in range(8)])
        normals, valid = metrics.estimate_normals(plane)
        # z-normal with zero x and y components resolves toward +z
        assert np.allclose(normals[valid], [0, 0, 1])

    def test_x_hemisphere(self):
        plane = np.array([(0, y, z) for y in range(8) for z in range(8)])
        normals, valid = metrics.estimate_normals(plane)
        assert np.allclose(normals[valid], [1, 0, 0])


    @pytest.mark.parametrize("shape", ["two-points", "line", "plane", "box", "sphere"])
    def test_matches_per_point_oracle(self, shape):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(600, 3))
        coords = {
            "two-points": np.array([[0, 0, 0], [3, 1, 2]]),
            "line": np.array([(x, 2, 3) for x in range(30)]),
            "plane": np.array([(x, y, 3) for x in range(9) for y in range(7)]),
            "box": np.unique(rng.integers(0, 12, size=(500, 3)), axis=0),
            "sphere": np.unique(np.floor(v / np.linalg.norm(v, axis=1)[:, None] * 20),
                                axis=0).astype(np.int64),
        }[shape]
        normals, valid = metrics.estimate_normals(coords)
        idx, _ = brute_force_knn(coords, coords, min(16, len(coords)))
        expect, expect_valid = normals_oracle(coords, idx)
        assert normals.tobytes() == expect.tobytes()
        assert np.array_equal(valid, expect_valid)
        # a subset of rows reads the same bytes as those rows of the whole cloud
        n = len(coords)
        subsets = [rng.choice(n, int(rng.integers(1, n + 1)), replace=False),
                   np.array([int(rng.integers(n))]), np.array([], dtype=np.int64)]
        for rows in subsets:
            got, got_valid = metrics.estimate_normals(coords, rows=rows)
            assert got.shape == (rows.size, 3) and got_valid.shape == (rows.size,)
            assert got.tobytes() == normals[rows].tobytes() == expect[rows].tobytes()
            assert np.array_equal(got_valid, valid[rows])
            assert np.array_equal(got_valid, expect_valid[rows])

    @pytest.mark.parametrize("rows", [[-1], [4], [0, 9]])
    def test_rows_outside_the_cloud_rejected(self, rows):
        with pytest.raises(ContractViolation, match="rows"):
            metrics.estimate_normals(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                     rows=rows)

    @pytest.mark.parametrize("rows", [
        [1.5], [1.0], [True], [[0, 1]], np.zeros((0, 1), np.int64), 1, ["1"], [None],
        np.array([2**63], np.uint64), [[0], [1, 2]],
    ], ids=["fraction", "float", "bool", "2d", "empty-2d", "scalar", "str", "object",
            "uint64-wraps", "ragged"])
    def test_rows_not_integers_rejected(self, rows):
        # [1.5] and [True] read row 1's normal; [[0, 1]] was flattened
        with pytest.raises(ContractViolation, match="rows"):
            metrics.estimate_normals(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                     rows=rows)

    @pytest.mark.parametrize("rows", [[], np.array([], np.int64), np.array([3, 1], np.uint8),
                                      np.array([2], np.int32)])
    def test_integer_rows_of_any_width(self, rows):
        coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        normals, valid = metrics.estimate_normals(coords)
        got, got_valid = metrics.estimate_normals(coords, rows=rows)
        want = np.asarray(rows, dtype=np.int64)
        assert got.tobytes() == normals[want].tobytes()
        assert np.array_equal(got_valid, valid[want])

    @pytest.mark.parametrize("k", [0, 2.5, True, "3", None])
    def test_bad_k_rejected(self, k):
        # all but 0 raised a raw TypeError
        with pytest.raises(ContractViolation, match="k must be"):
            metrics.estimate_normals(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]), k=k)

    def test_k_clamped_and_numpy_integer_k(self):
        coords = np.unique(np.random.default_rng(6).integers(0, 6, (40, 3)), axis=0)
        want = metrics.estimate_normals(coords, k=len(coords))
        for k in (np.int64(len(coords)), len(coords) + 5, np.uint16(1000)):
            got = metrics.estimate_normals(coords, k=k)
            assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])


class TestBpp:
    def test_simple(self):
        assert metrics.bpp(1000, 500) == 2.0

    def test_additive(self):
        assert metrics.bpp(300, 100) + metrics.bpp(700, 100) == metrics.bpp(1000, 100)

    def test_zero_points_rejected(self):
        with pytest.raises(ContractViolation):
            metrics.bpp(100, 0)


class TestBDRate:
    def curve(self, scale=1.0):
        return [(0.5 * scale, 60.0), (1.0 * scale, 64.0), (2.0 * scale, 67.0),
                (4.0 * scale, 69.0), (8.0 * scale, 70.5)]

    def test_identical_curves_zero(self):
        assert metrics.bd_rate(self.curve(), self.curve()) == pytest.approx(0.0, abs=1e-9)

    def test_half_rate_is_minus_fifty(self):
        assert metrics.bd_rate(self.curve(), self.curve(0.5)) == pytest.approx(-50.0, abs=0.1)

    def test_double_rate_is_plus_hundred(self):
        assert metrics.bd_rate(self.curve(), self.curve(2.0)) == pytest.approx(100.0, abs=0.2)

    def test_antisymmetry_first_order(self):
        a = self.curve()
        b = self.curve(1.01)
        ab = metrics.bd_rate(a, b)
        ba = metrics.bd_rate(b, a)
        assert ab == pytest.approx(-ba / (1 + ba / 100), rel=1e-3)

    def test_too_few_points(self):
        with pytest.raises(ContractViolation):
            metrics.bd_rate(self.curve()[:3], self.curve())

    @pytest.mark.parametrize("point", [(np.nan, 65.0), (np.inf, 65.0), (0.0, 65.0),
                                       (1.5, np.nan), (1.5, np.inf)])
    def test_non_finite_or_non_positive_point_rejected(self, point):
        with pytest.raises(ContractViolation):
            metrics.bd_rate(self.curve(), self.curve()[:4] + [point])

    def test_no_overlap(self):
        high = [(r, q + 100) for r, q in self.curve()]
        with pytest.raises(ContractViolation):
            metrics.bd_rate(self.curve(), high)

"""The codec's hot loops call ndarray methods, not NumPy's module-level
wrappers: ``np.take(a, i, axis=0)`` pays a Python-level dispatch that
``a.take(i, 0)`` does not, for the same C code.  Each path runs once as it
is and once with the wrappers raising, and must give the same bytes."""

import numpy as np
import pytest

from voxcodec import entropy as ent
from voxcodec.knn import knn
from voxcodec.nn import ConvSpec, sparse_conv
from voxcodec.sparse import SparseTensor, children_coords, pack_keys, unpack_keys

WRAPPERS = ("take", "repeat", "cumsum", "argsort")


def rows(rng, n, span):
    return unpack_keys(np.unique(pack_keys(rng.integers(0, span, size=(n, 3)))))


def convs():
    """A 3x3 conv, a stride-2 conv and a transposed conv onto the children,
    each on a new coordinate set, so every kernel map and plan is built."""
    rng = np.random.default_rng(3)
    coords = rows(rng, 600, 12)
    x = SparseTensor(coords, rng.normal(size=(coords.shape[0], 4)).astype(np.float32), 1)
    out = []
    for spec, target in ((ConvSpec(4, 3, 3), None), (ConvSpec(4, 3, 2, stride=2), None),
                         (ConvSpec(4, 3, 2, stride=2, transposed=True), children_coords(coords))):
        w = rng.normal(size=spec.weight_shape).astype(np.float32)
        y = sparse_conv(x, spec, w, rng.normal(size=3).astype(np.float32), target)
        out += [y.coords.tobytes(), y.feats.tobytes()]
    return out


def searches():
    """kNN at k = 1, 3 and 16, from lattice and off-lattice queries."""
    rng = np.random.default_rng(5)
    ref = rows(rng, 900, 40)
    queries = np.concatenate([ref[::7], rng.uniform(-5, 45, size=(300, 3))])
    out = []
    for k in (1, 3, 16):
        idx, d2 = knn(queries, ref, k)
        out += [idx.tobytes(), d2.tobytes()]
    return out


MODEL = ent.build_table_from_pmf([[0.1, 0.6, 0.3], [0.5, 0.25, 0.25]], [-1, 0],
                                 escape_mass=1e-3)


def coding():
    """Range coding both ways, escapes included."""
    rng = np.random.default_rng(7)
    symbols = rng.choice([-1, 0, 0, 0, 1, 2, 900], size=(500, 2))
    data = ent.range_encode(symbols, MODEL)
    back = ent.range_decode(data, MODEL, symbols.shape[0])
    assert np.array_equal(back, symbols)
    return [data, back.tobytes()]


@pytest.mark.parametrize("path", [convs, searches, coding], ids=lambda f: f.__name__)
def test_no_module_level_wrapper_on_the_hot_paths(path, monkeypatch):
    expect = path()

    def refuse(*args, **kwargs):
        raise AssertionError("a module-level NumPy wrapper was called")

    for name in WRAPPERS:
        monkeypatch.setattr(np, name, refuse)
    assert path() == expect

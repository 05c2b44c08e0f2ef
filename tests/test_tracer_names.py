"""The benchmark's tracer (perfbench/spans.py) wraps voxcodec functions by
(module, attribute) name and reads a few names besides.  Renaming one of them
must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = [f"{mod}.{attr}" for mod, attr in _spans().TARGETS
               if not callable(getattr(importlib.import_module(f"voxcodec.{mod}"), attr, None))]
    assert not missing


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_names_the_hooks_read():
    import numpy as np

    from voxcodec import codec, entropy, motion, nn, weights
    from voxcodec.sparse import CoordSet

    assert hasattr(codec.FrameResult, "rate")
    assert isinstance(weights.WeightStore.__dict__["load"], classmethod)
    assert isinstance(motion.DIST_EPS, float)
    assert _params(nn.build_kernel_map) == ["in_coords", "out_coords", "spec"]
    assert "pairs" in nn.KernelMap.__slots__
    assert _params(nn.sparse_conv)[:2] == ["x", "spec"]
    assert _params(nn.adaptive_prune)[:1] == ["x"]
    assert _params(entropy.range_encode)[:2] == ["symbols", "model"]
    # the union hook counts the points of the result, or of its first element
    union = motion.motion_coord_sets(CoordSet(np.array([[0, 0, 0], [1, 0, 0]])),
                                     CoordSet(np.array([[1, 0, 0], [2, 0, 0]])))
    assert (union[0] if isinstance(union, tuple) else union).n == 3

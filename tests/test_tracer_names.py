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


def test_names_the_hooks_read():
    from voxcodec import codec, motion, nn, weights

    assert hasattr(codec.FrameResult, "rate")
    assert isinstance(weights.WeightStore.__dict__["load"], classmethod)
    assert isinstance(motion.DIST_EPS, float)
    assert list(inspect.signature(nn.build_kernel_map).parameters) == [
        "in_coords", "out_coords", "spec"]
    assert "pairs" in nn.KernelMap.__slots__

"""voxcodec: sparse-voxel tensor engine and learned dynamic point-cloud
geometry codec with an evaluation and gradient-verification harness."""

__version__ = "0.1.0"

from .sparse import (  # noqa: F401
    PointCloudFrame,
    SparseTensor,
    add_on_union,
    concatenate,
    stride_down_coords,
)
from .ply import load_ply, write_ply  # noqa: F401
from .weights import WeightStore, make_weights  # noqa: F401

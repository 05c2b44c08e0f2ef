"""Per-layer metrics and the layer-share report, computed from a traced run.

A layer is a voxcodec module.  Stage times (``*_s``) are inclusive span
times; ``*_self_s`` and the shares are self times (span minus child spans).
Times and counts are per traced cycle (one frame encoded and decoded, or one
D1+D2 pair); the ``weights.*`` times are per set-up repetition.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import END, NAME, ORCHESTRATION, PARENT, START, roots, self_times

UNATTRIBUTED = "(unattributed)"

# name -> unit, in report order; BENCHMARK.json lists the same names.
PER_LAYER = {
    "nn.build_kernel_map_s": "s",
    "nn.kmap_builds": "count",
    "nn.kmap_pairs": "count",
    "nn.kmap_repeat_frac": "ratio",
    "nn.kmap_1x1_s": "s",
    "nn.sparse_conv_self_s": "s",
    "nn.conv_calls": "count",
    "nn.conv_macs": "count",
    "nn.irn_block_s": "s",
    "nn.prune_candidates": "count",
    "nn.prune_kept_frac": "ratio",
    "codec.feature_extract_enc_s": "s",
    "codec.feature_extract_dec_s": "s",
    "codec.reconstruct_enc_s": "s",
    "codec.reconstruct_dec_s": "s",
    "codec.compress_residual_enc_s": "s",
    "codec.compress_residual_dec_s": "s",
    "codec.coords_bytes": "B",
    "codec.motion_bytes": "B",
    "codec.residual_bytes": "B",
    "codec.coded_over_estimated": "ratio",
    "codec.bpp": "bit/pt",
    "motion.flow_embedding_s": "s",
    "motion.fuse_flow_s": "s",
    "motion.compress_motion_s": "s",
    "motion.recover_motion_s": "s",
    "motion.interpolate_self_s": "s",
    "motion.capped_frac": "ratio",
    "motion.union_points": "count",
    "knn.motion_s": "s",
    "knn.metrics_s": "s",
    "knn.index_build_s": "s",
    "knn.queries": "count",
    "knn.us_per_query": "us",
    "metrics.d1_s": "s",
    "metrics.d2_s": "s",
    "metrics.estimate_normals_s": "s",
    "entropy.range_encode_s": "s",
    "entropy.range_decode_s": "s",
    "entropy.estimate_bits_s": "s",
    "entropy.symbols": "count",
    "entropy.escapes": "count",
    "octree.encode_s": "s",
    "octree.decode_s": "s",
    "octree.points": "count",
    "rangecoder.encode_bytes_adaptive_s": "s",
    "sparse.stride_down_coords_s": "s",
    "sparse.union_s": "s",
    "ply.load_s": "s",
    "ply.write_s": "s",
    "weights.load_s": "s",
    "weights.validate_s": "s",
    "weights.entropy_models_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def _ratio(a, b):
    return a / b if b else 0.0


def _layer(name):
    if name == "trace.hook":
        return "trace"
    if name in ORCHESTRATION or name.startswith("op."):
        return UNATTRIBUTED
    return name.split(".", 1)[0]


def _caller_layer(spans, i, layers):
    """Nearest enclosing span whose layer is one of ``layers``."""
    p = spans[i][PARENT]
    while p >= 0:
        layer = spans[p][NAME].split(".", 1)[0]
        if layer in layers:
            return layer
        p = spans[p][PARENT]
    return None


def layer_metrics(tracer, cycles):
    """Per-layer metrics from the tracer's spans and counts.

    ``cycles`` is the run's list of cycle records; each must carry the
    untraced (``s``) and traced (``traced_s``) wall time of the same input."""
    sp = tracer.spans
    cnt = tracer.counts
    own = self_times(sp)
    top = [sp[r][NAME] for r in roots(sp)]
    n = max(len(cycles), 1)
    reps = sum(1 for s in sp if s[NAME] == "op.setup") or 1
    incl = defaultdict(float)      # (name, side) -> inclusive seconds
    selfs = defaultdict(float)     # name -> self seconds outside set-up
    knn_by = defaultdict(float)
    for i, s in enumerate(sp):
        # side: "encode", "decode", "eval" or "setup"
        side = top[i][3:].split("_")[0]
        dur = s[END] - s[START]
        incl[s[NAME], side] += dur
        if side != "setup":
            incl[s[NAME], "ops"] += dur
            selfs[s[NAME]] += own[i]
        if s[NAME] == "knn.knn":
            knn_by[_caller_layer(sp, i, ("motion", "metrics"))] += dur

    def stage(name, side="ops"):
        return incl[name, side] / n

    op_wall = sum(s[END] - s[START] for s in sp
                  if s[PARENT] < 0 and s[NAME] != "op.setup")
    unattributed = sum(own[i] for i, s in enumerate(sp)
                       if top[i] != "op.setup" and _layer(s[NAME]) == UNATTRIBUTED)
    coded_points = sum(c["points"] for c in cycles if "bytes" in c)
    coded_bits = sum(8 * c["bytes"] for c in cycles if "bytes" in c)
    overhead = [c["traced_cpu_s"] / c["cpu_s"] - 1.0 for c in cycles if c.get("cpu_s")]
    out = {
        "nn.build_kernel_map_s": stage("nn.build_kernel_map"),
        "nn.kmap_builds": cnt["nn.kmap_builds"] / n,
        "nn.kmap_pairs": cnt["nn.kmap_pairs"] / n,
        "nn.kmap_repeat_frac": _ratio(cnt["nn.kmap_repeats"], cnt["nn.kmap_builds"]),
        "nn.kmap_1x1_s": cnt["nn.kmap_1x1_s"] / n,
        "nn.sparse_conv_self_s": selfs["nn.sparse_conv"] / n,
        "nn.conv_calls": cnt["nn.conv_calls"] / n,
        "nn.conv_macs": cnt["nn.conv_macs"] / n,
        "nn.irn_block_s": stage("nn.irn_block"),
        "nn.prune_candidates": cnt["nn.prune_candidates"] / n,
        "nn.prune_kept_frac": _ratio(cnt["nn.prune_kept"], cnt["nn.prune_candidates"]),
        "codec.feature_extract_enc_s": stage("codec.feature_extract", "encode"),
        "codec.feature_extract_dec_s": stage("codec.feature_extract", "decode"),
        "codec.reconstruct_enc_s": stage("codec.reconstruct", "encode"),
        "codec.reconstruct_dec_s": stage("codec.reconstruct", "decode"),
        "codec.compress_residual_enc_s": stage("codec.compress_residual", "encode"),
        # the decoder's half of residual coding is the latent synthesis
        "codec.compress_residual_dec_s": stage("codec._residual_decode", "decode"),
        "codec.coords_bytes": cnt["codec.substream1_bytes"] / n,
        "codec.motion_bytes": cnt["codec.substream2_bytes"] / n,
        "codec.residual_bytes": cnt["codec.substream3_bytes"] / n,
        "codec.coded_over_estimated": _ratio(cnt["codec.coded_bits"],
                                             cnt["codec.estimated_bits"]),
        "codec.bpp": _ratio(coded_bits, coded_points),
        "motion.flow_embedding_s": stage("motion.flow_embedding"),
        "motion.fuse_flow_s": stage("motion.fuse_flow"),
        "motion.compress_motion_s": stage("motion.compress_motion"),
        "motion.recover_motion_s": stage("motion.recover_motion"),
        "motion.interpolate_self_s": selfs["motion.adaptive_interpolate"] / n,
        "motion.capped_frac": _ratio(cnt["motion.capped"], cnt["motion.interp_queries"]),
        "motion.union_points": cnt["motion.union_points"] / n,
        "knn.motion_s": knn_by["motion"] / n,
        "knn.metrics_s": knn_by["metrics"] / n,
        "knn.index_build_s": stage("knn.GridIndex"),
        "knn.queries": cnt["knn.queries"] / n,
        "knn.us_per_query": 1e6 * _ratio(incl["knn.knn", "ops"], cnt["knn.queries"]),
        "metrics.d1_s": stage("metrics.d1_psnr"),
        "metrics.d2_s": stage("metrics.d2_psnr"),
        "metrics.estimate_normals_s": stage("metrics.estimate_normals"),
        "entropy.range_encode_s": stage("entropy.range_encode"),
        "entropy.range_decode_s": stage("entropy.range_decode"),
        "entropy.estimate_bits_s": stage("entropy.estimate_bits"),
        "entropy.symbols": cnt["entropy.symbols"] / n,
        "entropy.escapes": cnt["entropy.escapes"] / n,
        "octree.encode_s": stage("octree.octree_encode"),
        "octree.decode_s": stage("octree.octree_decode"),
        "octree.points": cnt["octree.points"] / n,
        "rangecoder.encode_bytes_adaptive_s": stage("rangecoder.encode_bytes_adaptive"),
        "sparse.stride_down_coords_s": stage("sparse.stride_down_coords"),
        "sparse.union_s": stage("sparse.concatenate") + stage("sparse.add_on_union"),
        "ply.load_s": stage("ply.load_ply"),
        "ply.write_s": stage("ply.write_frame"),
        "weights.load_s": incl["weights.load", "setup"] / reps,
        "weights.validate_s": incl["weights.validate_store", "setup"] / reps,
        "weights.entropy_models_s": incl["weights.entropy_models", "setup"] / reps,
        "trace.overhead_frac": statistics.median(overhead) if overhead else 0.0,
        "trace.unattributed_frac": _ratio(unattributed, op_wall),
    }
    if list(out) != list(PER_LAYER):
        raise RuntimeError("per-layer metric names drifted from PER_LAYER")
    return out


def layer_shares(sp):
    """Self-time share of each layer in each operation kind's wall time.

    Returns ({kind: {layer: share}}, {kind: {span name: share}}, {kind: wall s})."""
    own = self_times(sp)
    top = [sp[r][NAME] for r in roots(sp)]
    wall = defaultdict(float)
    by_layer = defaultdict(lambda: defaultdict(float))
    by_name = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(sp):
        kind = top[i][3:]
        if s[PARENT] < 0:
            wall[kind] += s[END] - s[START]
        by_layer[kind][_layer(s[NAME])] += own[i]
        by_name[kind][s[NAME]] += own[i]
    norm = {k: {name: v / wall[k] for name, v in d.items()} for k, d in by_layer.items()}
    norm_names = {k: {name: v / wall[k] for name, v in d.items()} for k, d in by_name.items()}
    return norm, norm_names, dict(wall)


def format_shares(sp, top_spans=6):
    """Text table: layer self-time shares per operation kind, then the
    largest single functions per kind."""
    shares, names, wall = layer_shares(sp)
    kinds = [k for k in ("encode_i", "encode_p", "decode_i", "decode_p", "eval", "setup")
             if k in shares]
    layers = sorted({layer for k in kinds for layer in shares[k]},
                    key=lambda layer: -max(shares[k].get(layer, 0.0) for k in kinds))
    lines = ["layer self-time share of each operation's wall time (traced):",
             f"  {'layer':16s}" + "".join(f"{k:>10s}" for k in kinds)]
    for layer in layers:
        lines.append(f"  {layer:16s}" + "".join(
            f"{100 * shares[k].get(layer, 0.0):9.1f}%" for k in kinds))
    lines.append(f"  {'wall s (sum)':16s}" + "".join(f"{wall[k]:10.3f}" for k in kinds))
    for k in kinds:
        best = sorted(names[k].items(), key=lambda kv: -kv[1])[:top_spans]
        lines.append(f"  top self time in {k}: " + ", ".join(
            f"{name} {100 * v:.1f}%" for name, v in best))
    return "\n".join(lines)

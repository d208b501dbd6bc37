"""Cross-camera re-identification and frustum fusion for surround rigs.

Detections from adjacent cameras are matched by embedding distance with a
Hungarian assignment, their LiDAR frustums merged when they share points,
and a deterministic estimator fits one 3D box per object. Four pipeline
variants quantify what the matching and merging buy on synthetic scenes.

The package root exports nothing: import from the submodules, as in
``from sianms.pipeline import compare_variants``.
"""

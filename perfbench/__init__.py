"""Seeded benchmark of the superlens-imaging package.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md`` for the workloads,
the metrics and which layer metric should move which end-to-end metric.

This package must not import numpy, scipy or superlens_imaging at import
time: ``run.py`` times those imports as part of ``setup_s``.
"""

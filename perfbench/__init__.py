"""End-to-end and per-layer benchmark of the reproduction's experiments.

``python3 perfbench/run.py --workload NAME`` runs one workload; see
``perfbench/README.md``.
"""

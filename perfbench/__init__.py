"""Repository benchmark: end-to-end and per-layer timings of the paper's
pipeline, the drifting scheduler and live sharded serving.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""

"""Benchmark of planemoduli; run it with ``python3 perfbench/run.py --help``."""

"""The repository benchmark: named traffic-simulator workloads, timed from outside.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
is the one entry point; see :mod:`perfbench.run`.
"""

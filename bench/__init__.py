"""The G-MAP benchmark: sweep and service workloads, measured from outside.

Run ``python3 bench/run.py --workload <name> --seed <n>``; BENCHMARK.json
names the workloads and metrics, and README.md explains them.
"""

"""The repository benchmark: three deterministic workloads, timed end to
end, plus a traced run that splits host time by layer.

Run ``python3 perfbench/run.py --workload all`` from the repository
root; ``BENCHMARK.json`` lists the workloads and metrics.
"""

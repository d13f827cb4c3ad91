"""The repository's benchmark: plan serving, fleet runs and checkpoint renewal.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see :mod:`perfbench.run`.
"""

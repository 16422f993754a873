"""End-to-end question benchmark with per-layer self time.

Run ``python3 e2e_bench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``e2e_bench/README.md``.
"""

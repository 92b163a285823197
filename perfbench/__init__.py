"""Repository benchmark: the offline pipeline and the served request path.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``perfbench/README.md`` for the workloads, the metrics and how each
per-layer metric maps onto the end-to-end metric it should move.
"""

"""Small versions of the workloads, fast enough for unit tests."""

import dataclasses

from perfbench.workloads import WORKLOADS


def tiny(name: str):
    workload = WORKLOADS[name]
    interleaved = workload.update_every is not None
    return dataclasses.replace(
        workload, scale=0.3, epochs=2 if name == "fit-eval" else 1,
        prefix_reads=40, prefix_updates=4,
        update_every=10 if interleaved else None, ppr_chunk_users=8)

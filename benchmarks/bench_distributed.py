"""Queue-executor overhead vs the local process pool.

The filesystem work queue (``docs/distributed.md``) buys multi-host
campaigns with filesystem primitives: tickets, atomic-rename leases,
polled results.  That transport must stay cheap enough that pointing
two *local* workers at a queue directory is a reasonable way to run a
small campaign — this guard runs the same grid through the pool
executor and through a queue with self-spawned workers, re-asserts the
contract's bit-identical-aggregates clause at benchmark scale, and
holds the queue's **per-shard overhead** (total wall-clock delta over
the pool, divided by the shard count) under a fixed budget.

The grid is deliberately small (one per-cell reference-engine shard
per technique and seed), so the measurement is dominated by transport -- publish, claim, heartbeat, result
round-trip, poll latency -- not simulation.  Worker-process startup is
part of the price (the pool pays it too) and is included.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once, write_bench_output
from repro.analysis.report import render_table
from repro.campaign import QueueExecutor
from repro.config import small_test_config
from repro.sim.parallel import run_campaign

TECHNIQUES = ("PARA", "TWiCe")
SEEDS = tuple(range(4))
INTERVALS = 8
SHARDS = len(TECHNIQUES) * len(SEEDS)

#: max acceptable queue-transport cost per shard, seconds.  Local runs
#: measure well under 0.1 s/shard; the budget leaves room for slow CI
#: filesystems while still catching a lost-wakeup style regression
#: (a single skipped poll interval across the campaign would blow it).
PER_SHARD_OVERHEAD_BUDGET_S = 0.75


def canonical(aggregates):
    return {
        name: [result.as_dict() for result in aggregate.results]
        for name, aggregate in aggregates.items()
    }


def test_queue_executor_overhead(benchmark, tmp_path):
    config = small_test_config(num_banks=2)

    def campaign(executor):
        return run_campaign(
            config, INTERVALS, techniques=TECHNIQUES, seeds=SEEDS,
            workers=2, engine="reference", executor=executor,
        )

    def compute():
        started = time.perf_counter()
        pooled = campaign("pool")
        mid = time.perf_counter()
        queued = campaign(QueueExecutor(
            tmp_path / "queue", workers=2, lease_timeout=30.0,
            poll_interval=0.05,
        ))
        ended = time.perf_counter()
        return mid - started, ended - mid, pooled, queued

    pool_s, queue_s, pooled, queued = run_once(benchmark, compute)

    assert canonical(queued) == canonical(pooled), (
        "queue executor diverged from the pool at benchmark scale"
    )

    per_shard = max(0.0, queue_s - pool_s) / SHARDS
    benchmark.extra_info["pool_s"] = round(pool_s, 3)
    benchmark.extra_info["queue_s"] = round(queue_s, 3)
    benchmark.extra_info["per_shard_overhead_s"] = round(per_shard, 3)
    report = (
        f"=== queue executor vs local pool, {SHARDS} shards x "
        f"{INTERVALS} intervals (reference engine, 2 workers each) ===\n"
        + render_table(
            ("shards", "pool", "queue", "overhead/shard", "budget"),
            [(
                str(SHARDS), f"{pool_s:.3f}s", f"{queue_s:.3f}s",
                f"{per_shard:.3f}s", f"{PER_SHARD_OVERHEAD_BUDGET_S:.2f}s",
            )],
        )
    )
    print("\n" + report)
    write_bench_output("distributed_overhead", report)

    assert per_shard <= PER_SHARD_OVERHEAD_BUDGET_S, (
        f"queue transport costs {per_shard:.3f}s per shard "
        f"(pool {pool_s:.3f}s vs queue {queue_s:.3f}s for {SHARDS} "
        f"shards) — over the {PER_SHARD_OVERHEAD_BUDGET_S}s budget"
    )

"""Adversarial fuzzer throughput against the raw-evaluation floor.

The red-team search (``repro.adversary``) spends essentially all of
its time inside :func:`evaluate_genome` -- one run of the default
(fused) engine per eval seed.  This bench measures end-to-end search
throughput (evaluations/sec) and holds the orchestration cost per
evaluation (mutation, dedup, selection, frontier bookkeeping) to a
bounded multiple of the raw evaluation cost on the same engine, so the
fuzzer can never silently decay to reference-engine speeds.

Runs on ``small_test_config`` deliberately: the search is an inner
loop meant for many short engine runs, and the overhead ratio -- not
the absolute rate -- is the scale-invariant quantity under guard.
Scale with ``REPRO_BENCH_ADVERSARY_BUDGET`` (default 48).
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import run_once, write_bench_output
from repro.adversary import (
    EvalJob,
    SearchSettings,
    evaluate_genome,
    run_search,
    seed_corpus,
)
from repro.analysis.report import render_table
from repro.config import small_test_config
from repro.rng import derive_seed

ADVERSARY_BUDGET = int(os.environ.get("REPRO_BENCH_ADVERSARY_BUDGET", "48"))
#: raw-engine passes over the corpus used to estimate the floor
BASELINE_ROUNDS = 3
#: a search evaluation may cost at most this multiple of a raw one
#: (search genomes can be larger than the corpus seeds, so this bounds
#: genome growth as well as orchestration overhead)
OVERHEAD_RATIO = 4.0
#: absolute slack absorbing timer noise on tiny CI runs
OVERHEAD_EPSILON_S = 0.25


def test_adversary_search_throughput(benchmark):
    config = small_test_config()
    settings = SearchSettings(
        technique="LiPRoMi", strategy="evolve", budget=ADVERSARY_BUDGET,
        eval_seeds=1, windows=2, seed=0,
    )
    total_intervals = config.geometry.refint * settings.windows
    eval_seeds = tuple(
        derive_seed(settings.seed, "adversary-eval", index)
        for index in range(settings.eval_seeds)
    )
    corpus = seed_corpus(config)

    def compute():
        # the floor: corpus genomes straight through the engine,
        # exactly as run_search would evaluate them, minus the search
        started = time.perf_counter()
        raw_evals = 0
        for _ in range(BASELINE_ROUNDS):
            for genome in corpus:
                evaluate_genome(EvalJob(
                    config=config,
                    technique="LiPRoMi",
                    genome=genome,
                    total_intervals=total_intervals,
                    seeds=eval_seeds,
                    engine=settings.engine,
                ))
                raw_evals += 1
        raw_seconds = time.perf_counter() - started

        started = time.perf_counter()
        outcome = run_search(config, settings)
        search_seconds = time.perf_counter() - started
        return raw_evals, raw_seconds, outcome, search_seconds

    raw_evals, raw_seconds, outcome, search_seconds = run_once(
        benchmark, compute
    )
    assert outcome.evaluations == ADVERSARY_BUDGET

    raw_rate = raw_evals / raw_seconds
    search_rate = outcome.evaluations / search_seconds
    benchmark.extra_info["raw_evals_per_s"] = round(raw_rate, 1)
    benchmark.extra_info["search_evals_per_s"] = round(search_rate, 1)
    report = (
        "=== adversary search throughput vs raw evaluation floor ===\n"
        + render_table(
            ("path", "evaluations", "seconds", "evals/s"),
            [
                ("raw evaluate_genome", str(raw_evals),
                 f"{raw_seconds:.3f}", f"{raw_rate:.1f}"),
                (f"run_search ({settings.strategy})",
                 str(outcome.evaluations), f"{search_seconds:.3f}",
                 f"{search_rate:.1f}"),
            ],
        )
        + f"\nbest discovered: {outcome.best.genome.name} "
        f"(improvement {outcome.improvement:.2f}x over the corpus)"
    )
    print("\n" + report)
    write_bench_output("adversary_throughput", report)

    per_eval_raw = raw_seconds / raw_evals
    per_eval_search = search_seconds / outcome.evaluations
    budget_s = (
        per_eval_raw * OVERHEAD_RATIO * outcome.evaluations
        + OVERHEAD_EPSILON_S
    )
    assert search_seconds <= budget_s, (
        f"search evaluation costs {per_eval_search * 1e3:.2f} ms vs "
        f"{per_eval_raw * 1e3:.2f} ms raw -- over the "
        f"{OVERHEAD_RATIO}x floor"
    )

"""One benchmark process: set up a workload, then measure, trace or check it.

``run.py`` starts this file once per role, each in a fresh interpreter,
so that ``ru_maxrss`` (a lifetime high-water mark) and
``RUSAGE_CHILDREN`` (which only accumulates) describe one workload:

* ``setup``   -- import, build the config and the workload, exit;
* ``measure`` -- set up, then repeat the workload operation for
  ``--seconds`` with telemetry off (``--trace 0``), or alternate
  untraced and traced operations and then run the layer probes
  (``--trace 1``);
* ``oracle``  -- recompute the cell keys read from ``--keys`` on the
  reference engine.

Every role prints one JSON object as its last stdout line.  The set-up
end is reported as a ``time.monotonic()`` reading, which is
system-wide on Linux, so ``run.py`` can subtract its own reading taken
before it started this interpreter.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads
from repro.config import SimConfig


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def timed_operation(workload, tele=None):
    """Run one operation; wall and CPU (own plus reaped children)."""
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    outcome = workload.run(tele)
    wall = time.perf_counter() - started
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = _cpu(self1) - _cpu(self0) + _cpu(children1) - _cpu(children0)
    return outcome, wall, cpu


def peak_rss_mb() -> float:
    """The larger of this process's and its largest reaped child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def measure(workload, seconds: float, trace: bool) -> dict:
    """Repeat the operation until *seconds* have passed.

    With *trace*, operations alternate untraced and traced, and the
    layer probes run once, after the loop, on the traced operation of
    median wall time.
    """
    ops = []
    checks = []
    traced = []
    deadline = time.monotonic() + seconds
    while len(ops) < 2 or time.monotonic() < deadline:
        tele = workloads.Telemetry() if trace and len(ops) % 2 else None
        outcome, wall, cpu = timed_operation(workload, tele)
        ops.append({"wall": wall, "cpu": cpu, "acts": outcome.acts,
                    "traced": tele is not None})
        checks.append(outcome.digests())
        if tele is None:
            workload.cleanup(outcome)
        else:
            traced.append((wall, tele, outcome))
    out = {"ops": ops, "checks": checks, "peak_rss_mb": peak_rss_mb()}
    if trace:
        traced.sort(key=lambda item: item[0])
        wall, tele, outcome = traced[(len(traced) - 1) // 2]
        with tempfile.TemporaryDirectory(prefix="perfbench-") as workdir:
            layers, probe_results = workload.layers(tele, outcome, Path(workdir))
        checks.append({
            key: workloads.digest_result(result)
            for key, result in probe_results.items()
        })
        blocking = workload.blocking(tele, layers)
        layers["traces.records_per_s"] = (
            layers["traces.records"] / layers["traces.gen_s"]
        )
        layers["trace_overhead_s"] = wall - median(
            op["wall"] for op in ops if not op["traced"]
        )
        layers["unattributed_s"] = wall - sum(blocking.values())
        out.update(
            layers=layers,
            blocking=blocking,
            traced_wall=wall,
            # the engine's counts of every traced operation: they must
            # repeat exactly, operation to operation
            counts=[
                {key: value for key, value in
                 workloads.engine_layers(item[1]).items()
                 if isinstance(value, int)}
                for item in traced
            ],
        )
        for _, _, other in traced:
            workload.cleanup(other)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "oracle"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keys", help="oracle: JSON file of cell keys")
    args = parser.parse_args(argv)

    config = SimConfig()
    if args.role == "oracle":
        keys = json.loads(Path(args.keys).read_text(encoding="utf-8"))
        digests, properties = workloads.reference_digests(config, keys)
        print(json.dumps({"digests": digests, "properties": properties}))
        return 0
    workload = workloads.WORKLOADS[args.workload](config, args.seed)
    setup_done = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"setup_done": setup_done}))
        return 0
    result = measure(workload, args.seconds, bool(args.trace))
    result["setup_done"] = setup_done
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-table3 --seed 1 --seconds 15 --trace 0

The program is pure Python and runs from ``src/`` in place, so there is
nothing to build.  Every role runs in a fresh interpreter started by
this script (see ``worker.py``):

1. set-up probes -- ``SETUP_PROBES`` interpreters that import the
   program, build the config and set the workload up, then exit;
2. the measurement -- one interpreter that sets up and runs the
   workload for ``--seconds`` (its set-up time is one more sample);
3. the oracle -- ``ORACLE_PROCESSES`` interpreters that recompute every
   cell the measurement returned on the reference engine, after the
   measurement has ended.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the metrics are the ``end_to_end`` ones of
``BENCHMARK.json`` with ``--trace 0`` and its ``per_layer`` ones with
``--trace 1``.  The line before it holds the workload's properties.
Any failed role, or a checkout without the program, exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
#: extra set-up-only interpreters per run (the measurement adds one)
SETUP_PROBES = 6
#: parallel reference-engine processes checking the results
ORACLE_PROCESSES = 2
#: seconds a role may take before it is killed; ``measure`` gets
#: ``--seconds`` on top.  Even all at their limit, a run ends in 180 s.
TIMEOUTS = {"setup": 12, "measure": 50, "oracle": 30}


class RoleError(RuntimeError):
    pass


def start_role(role: str, args, env, extra=()) -> subprocess.Popen:
    command = [
        sys.executable, str(HERE / "worker.py"), role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    # a session of its own, so a timeout kills the queue workers too;
    # stderr is captured, which keeps their chatter off our output
    return subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )


def stop_session(pgid: int) -> None:
    """Kill whatever is left of a role's session and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def finish_role(role: str, proc: subprocess.Popen, limit: float) -> dict:
    try:
        stdout, stderr = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoleError(f"{role} process exceeded {limit} s")
    finally:
        stop_session(proc.pid)
    if proc.returncode != 0:
        raise RoleError(
            f"{role} process exited with {proc.returncode}:\n{stderr[-4000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def run_role(role: str, args, env, extra=()) -> dict:
    limit = TIMEOUTS[role] + (args.seconds if role == "measure" else 0)
    return finish_role(role, start_role(role, args, env, extra), limit)


def setup_seconds(args, env) -> float:
    started = time.monotonic()
    return run_role("setup", args, env)["setup_done"] - started


def check(measured: dict, args, env, tmp: Path):
    """Run the oracle; return (attempted, failed, properties)."""
    keys = sorted({key for op in measured["checks"] for key in op})
    shares = [keys[index::ORACLE_PROCESSES] for index in range(ORACLE_PROCESSES)]
    procs = []
    for index, share in enumerate(shares):
        path = tmp / f"keys-{index}.json"
        path.write_text(json.dumps(share), encoding="utf-8")
        procs.append(start_role("oracle", args, env, ("--keys", str(path))))
    digests, properties = {}, {}
    for proc in procs:
        answer = finish_role("oracle", proc, TIMEOUTS["oracle"])
        digests.update(answer["digests"])
        properties.update(answer["properties"])
    failed = sum(
        any(digests.get(key) != digest for key, digest in op.items())
        for op in measured["checks"]
    )
    counts = measured.get("counts", [])
    if any(count != counts[0] for count in counts):
        failed += 1  # a simulator's work counts must repeat exactly
    return len(measured["checks"]), failed, properties


def workload_properties(measured: dict, properties: dict) -> dict:
    records = sum(p["records"] for p in properties.values())
    segments = sum(p["segments"] for p in properties.values())
    attacks = sum(p["attacks"] for p in properties.values())
    ops = measured["ops"]
    return {
        "traces": len(properties),
        "records": records,
        "mean_run_length": records / segments,
        "attack_share_pct": 100.0 * attacks / records,
        "operations": len(ops),
        "cells_per_trace": ops[0]["acts"] // records,
        "cells_requested": measured.get("layers", {}).get(
            "fused_engine.cells_requested"
        ),
        "cells_computed": measured.get("layers", {}).get(
            "fused_engine.cells_computed"
        ),
    }


def end_to_end(measured: dict, setups) -> dict:
    ops = [op for op in measured["ops"] if not op["traced"]]
    return {
        "wall_s": median(op["wall"] for op in ops),
        "cpu_s": median(op["cpu"] for op in ops),
        "sim_acts_per_s": median(op["acts"] / op["wall"] for op in ops),
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": median(setups),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: one workload run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}/repro; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(source)
    # the campaign runner and the queue spool through tempfile: keep
    # every file the program writes inside the checkout
    env["TMPDIR"] = str(tmp)
    try:
        setups = [setup_seconds(args, env) for _ in range(SETUP_PROBES)]
        started = time.monotonic()
        measured = run_role("measure", args, env)
        setups.append(measured["setup_done"] - started)
        attempted, failed, properties = check(measured, args, env, tmp)
    except RoleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    values = measured["layers"] if args.trace else end_to_end(measured, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"properties": workload_properties(measured, properties)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Kill-and-resume determinism: the acceptance test for durable campaigns.

A subprocess starts a real campaign whose last shard hangs (via the
``REPRO_FAULT_INJECT`` env hook), gets SIGKILLed mid-run with some shards
checkpointed and some not, and the campaign is then resumed in-process
without the fault.  The resumed aggregates must be bit-identical to an
uninterrupted reference run.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.campaign import (
    CampaignStore,
    CheckpointMismatchError,
    run_durable_campaign,
)
from repro.campaign.faults import FAULT_ENV_VAR
from repro.config import small_test_config

TECHNIQUES = ("PARA", "TWiCe")
SEEDS = (0, 1)
TOTAL_SHARDS = len(TECHNIQUES) * len(SEEDS)

# The driver script run in the doomed subprocess: same campaign the test
# later resumes, except the injected hang keeps the final shard busy until
# the test kills the process.
DRIVER = textwrap.dedent(
    """
    from repro.campaign import FaultInjector, run_durable_campaign
    from repro.config import small_test_config

    run_durable_campaign(
        small_test_config(num_banks=2),
        total_intervals=8,
        checkpoint_dir={ckpt!r},
        techniques=("PARA", "TWiCe"),
        seeds=(0, 1),
        workers=0,
        engine={engine!r},
        fault_injector=FaultInjector.from_env(),
    )
    """
)

HANG_LAST_SHARD = json.dumps(
    [{"mode": "hang", "technique": "TWiCe", "seed": 1, "seconds": 120}]
)


def start_doomed_campaign(ckpt, engine="fused"):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env[FAULT_ENV_VAR] = HANG_LAST_SHARD
    return subprocess.Popen(
        [sys.executable, "-c", DRIVER.format(ckpt=str(ckpt), engine=engine)],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def wait_for_checkpointed_shard(store, proc, timeout=60.0):
    """Poll until at least one shard file has been durably written."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if store.exists and store.status().completed:
            return
        if proc.poll() is not None:
            _, stderr = proc.communicate()
            pytest.fail(
                "campaign subprocess exited before being killed:\n"
                + stderr.decode("utf-8", "replace")
            )
        time.sleep(0.05)
    proc.kill()
    pytest.fail("no shard was checkpointed within %.0fs" % timeout)


def canonical(aggregates):
    return {
        name: [result.as_dict() for result in aggregate.results]
        for name, aggregate in aggregates.items()
    }


class TestKillResume:
    def test_sigkilled_campaign_resumes_bit_identical(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        store = CampaignStore(ckpt)
        proc = start_doomed_campaign(ckpt, engine="reference")
        try:
            wait_for_checkpointed_shard(store, proc)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        completed = len(store.status().completed)
        assert 1 <= completed < TOTAL_SHARDS, (
            "kill must land mid-campaign; got %d/%d shards"
            % (completed, TOTAL_SHARDS)
        )

        resumed = run_durable_campaign(
            small_test_config(num_banks=2),
            total_intervals=8,
            checkpoint_dir=ckpt,
            resume=True,
            techniques=TECHNIQUES,
            seeds=SEEDS,
            workers=0,
            engine="reference",
        )
        reference = run_durable_campaign(
            small_test_config(num_banks=2),
            total_intervals=8,
            checkpoint_dir=tmp_path / "reference",
            techniques=TECHNIQUES,
            seeds=SEEDS,
            workers=0,
            engine="reference",
        )
        assert canonical(resumed) == canonical(reference)
        assert store.status().complete
        assert not resumed.failures

    def test_sigkilled_fused_campaign_resumes_bit_identical(self, tmp_path):
        """The fused engine honours the same durability contract.

        The doomed subprocess runs fused per-cell shards (the fault
        injector disables block dispatch), the resume completes the
        remaining shards as a fused block, and the merged aggregates
        must equal both an uninterrupted fused run and an uninterrupted
        reference-engine run -- per-cell checkpoints and whole-grid
        blocks compose without drift.
        """
        ckpt = tmp_path / "ckpt"
        store = CampaignStore(ckpt)
        proc = start_doomed_campaign(ckpt, engine="fused")
        try:
            wait_for_checkpointed_shard(store, proc)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        completed = len(store.status().completed)
        assert 1 <= completed < TOTAL_SHARDS, (
            "kill must land mid-campaign; got %d/%d shards"
            % (completed, TOTAL_SHARDS)
        )

        resumed = run_durable_campaign(
            small_test_config(num_banks=2),
            total_intervals=8,
            checkpoint_dir=ckpt,
            resume=True,
            techniques=TECHNIQUES,
            seeds=SEEDS,
            workers=0,
            engine="fused",
        )
        reference = run_durable_campaign(
            small_test_config(num_banks=2),
            total_intervals=8,
            checkpoint_dir=tmp_path / "reference",
            techniques=TECHNIQUES,
            seeds=SEEDS,
            workers=0,
            engine="fused",
        )
        oracle = run_durable_campaign(
            small_test_config(num_banks=2),
            total_intervals=8,
            checkpoint_dir=tmp_path / "oracle",
            techniques=TECHNIQUES,
            seeds=SEEDS,
            workers=0,
            engine="reference",
        )
        assert canonical(resumed) == canonical(reference)
        assert canonical(resumed) == canonical(oracle)
        assert store.status().complete
        assert not resumed.failures

    def test_fused_resume_rejects_changed_grid(self, tmp_path):
        """Config-hash validation covers fused campaigns: a resume with
        a different cell grid (changed geometry) fails fast instead of
        silently mixing checkpoints from incompatible campaigns."""
        ckpt = tmp_path / "ckpt"
        store = CampaignStore(ckpt)
        proc = start_doomed_campaign(ckpt, engine="fused")
        try:
            wait_for_checkpointed_shard(store, proc)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        with pytest.raises(CheckpointMismatchError, match="config_hash"):
            run_durable_campaign(
                small_test_config(num_banks=4),
                total_intervals=8,
                checkpoint_dir=ckpt,
                resume=True,
                techniques=TECHNIQUES,
                seeds=SEEDS,
                workers=0,
                engine="fused",
            )

    def test_resume_with_different_config_fails_fast(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        store = CampaignStore(ckpt)
        proc = start_doomed_campaign(ckpt)
        try:
            wait_for_checkpointed_shard(store, proc)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        with pytest.raises(CheckpointMismatchError, match="config_hash"):
            run_durable_campaign(
                small_test_config(num_banks=4),
                total_intervals=8,
                checkpoint_dir=ckpt,
                resume=True,
                techniques=TECHNIQUES,
                seeds=SEEDS,
                workers=0,
                engine="fused",
            )

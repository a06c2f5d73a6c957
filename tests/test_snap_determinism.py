"""S3 property test: snapshot/restore is invisible to the trace digest.

For every catalogue scenario with a serial form x seed, three executions
are compared:

- a **straight** run, hashing the full event stream (and, via a second
  hasher armed at T, the suffix from T on);
- a **snapshot** run — identical program, but paused at T to capture a
  :class:`~repro.snap.ReplaySnapshot` before continuing;
- a **restored** run — replay to T from the snapshot, then run to the
  end with the armed hasher.

The pinned properties: capturing is a pure observer (full digests
byte-identical), and the restored continuation is seamless (suffix
digests byte-identical, results equal).  One broken ``on_snapshot``/
``on_restore`` hook, one RNG stream not rewound, one extra event
injected by the capture — and a digest flips.
"""

import pytest

from repro.scenarios import SCENARIOS, names_with
from repro.snap import snapshot_run, straight_run

SERIAL = names_with("serial")
SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SERIAL)
def test_snapshot_restore_digest_identical(scenario, seed):
    program = SCENARIOS[scenario].serial
    outcome, snap = snapshot_run(program(seed=seed))
    base = straight_run(program(seed=seed), arm_at_ns=snap.time_ns)
    # the capture pause injected zero events into the run
    assert outcome.digest == base.digest, (
        f"{scenario}/seed={seed}: mid-run capture perturbed the event stream")
    assert outcome.result == base.result
    # the restored continuation replays to T, verifies state, and its
    # suffix digest matches the unbroken run's armed hasher
    restored = snap.restore()
    assert 0 < restored.replayed_events < base.trace_events, (
        f"{scenario}: pause point {snap.time_ns} is not mid-flight")
    cont = restored.finish()
    assert cont.suffix_digest == base.suffix_digest, (
        f"{scenario}/seed={seed}: restored run diverged after the seam")
    assert cont.digest == base.digest
    assert cont.result == base.result
    assert cont.time_ns == base.time_ns


def test_distinct_seeds_actually_change_the_run(profiled):
    """Guard against the property passing vacuously.  (The faults
    program threads its seed into the device RNG, so the whole event
    timeline moves; batching/cluster seeds only reshuffle payload bytes,
    which the trace hash deliberately does not cover.)  Seed 0 is the
    entry's profiled run."""
    seed1 = straight_run(SCENARIOS["faults"].serial(seed=1))
    assert profiled["faults"][0].digest != seed1.digest


def test_upgrade_under_load_pauses_mid_upgrade():
    """The E2 rerun: the default pause point lands while the hot-swap
    request is in flight under open-loop load."""
    outcome, snap = snapshot_run(SCENARIOS["upgrade_under_load"].serial())
    assert outcome.result["completed"] == outcome.result["launched"]
    assert outcome.result["upgrades_done"] == 1
    live = snap.restore()
    manager = live.ctx.system.runtime.module_manager
    assert manager.upgrades_done == 0, "snapshot landed after the swap"
    assert live.finish().result == outcome.result

"""Shared fixtures for the test suite."""

import functools

import pytest


@pytest.fixture
def determinism_check():
    """Assert a program produces an identical trace hash on every run.

    ``make_program`` is called once per run and must return a fresh
    :class:`repro.scenarios.Program` (a catalogue entry's ``serial`` is
    one such factory); each is run start to finish by
    :func:`repro.scenarios.run_audited`.  Returns the common digest.
    """
    from repro.scenarios import run_audited

    def _check(make_program, runs=2, strict=True):
        digests = [run_audited(make_program(), strict=strict).finish().digest
                   for _ in range(runs)]
        assert len(set(digests)) == 1, f"non-deterministic trace stream: {digests}"
        return digests[0]

    return _check


@pytest.fixture(scope="session")
def profiled():
    """Entry label -> :func:`repro.inventory.profile` of that table entry,
    each run once per session on first use: the reach-map pin reads what
    they entered, the determinism double runs take them as run one."""
    from repro.inventory import entries, profile

    runs = dict(entries())

    class Profiled(dict):
        def __missing__(self, label):
            self[label] = profile(runs[label])
            return self[label]

    return Profiled()


@pytest.fixture(scope="session")
def par_run():
    """``par_run(name, seed, shards)``: that catalogue entry's par form
    run traced, once per session (the shard-invariance test and the
    par-only determinism double run share the ``shards=2`` runs)."""
    from repro.scenarios import SCENARIOS
    from repro.sim.par import run_program

    @functools.cache
    def run(name, seed, shards):
        return run_program(SCENARIOS[name].par(seed), shards=shards, trace=True)

    return run

"""Shared fixtures for the test suite."""

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

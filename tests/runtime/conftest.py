"""Invariants every in-process runtime test is held to."""

import pytest


@pytest.fixture(autouse=True)
def no_staging_file_outlives_its_run(tmp_path):
    """After any run — the fault matrix and the crash-point sweeps
    included — and its teardown, no store directory holds a staging
    file: every assembly promoted or discarded its own."""
    yield
    leftovers = sorted(
        str(path.relative_to(tmp_path))
        for path in tmp_path.rglob("stripe_*.chunk.part*")
    )
    assert not leftovers, f"staging files left behind: {leftovers}"

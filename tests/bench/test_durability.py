"""The Monte-Carlo durability study behind ``BENCH_durability.json``."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.durability import (
    DURABILITY_SCHEMA,
    main,
    run_durability,
    validate_durability,
)


@pytest.fixture(scope="module")
def document():
    # Few trials so the module stays fast; TestCommittedArtifact
    # regenerates the full 50.
    return run_durability(trials=4, years=0.5, seed=7)


class TestRunDurability:
    def test_document_validates(self, document):
        body = validate_durability(document, require_zero_loss=False)
        assert body["config"]["trials"] == 4
        assert body["config"]["code"] == "rs(9,6)"

    def test_covers_both_failure_processes(self, document):
        names = [entry["process"] for entry in document["processes"]]
        assert names == ["weibull", "trace-replay"]

    def test_each_process_reports_both_modes(self, document):
        for entry in document["processes"]:
            assert entry["predictive"]["predictive"] is True
            assert entry["reactive"]["predictive"] is False
            # the headline number the ISSUE asks for
            assert "lost_stripe_probability" in entry["predictive"]
            assert "lost_stripe_probability" in entry["reactive"]

    def test_json_serializable(self, document):
        assert json.loads(json.dumps(document)) == document

    def test_deterministic(self, document):
        assert run_durability(trials=4, years=0.5, seed=7) == document


class TestValidateDurability:
    def test_rejects_empty_processes(self, document):
        broken = copy.deepcopy(document)
        broken["processes"] = []
        with pytest.raises(ValueError, match="no failure processes"):
            validate_durability(broken)

    def test_rejects_missing_mode(self, document):
        broken = copy.deepcopy(document)
        del broken["processes"][0]["reactive"]
        with pytest.raises(ValueError, match="lacks a reactive run"):
            validate_durability(broken)

    def test_rejects_zero_trials(self, document):
        broken = copy.deepcopy(document)
        broken["processes"][0]["predictive"]["trials"] = 0
        with pytest.raises(ValueError, match="ran no trials"):
            validate_durability(broken)

    def test_rejects_study_with_no_failures(self, document):
        broken = copy.deepcopy(document)
        broken["processes"][0]["predictive"]["disk_failures"] = 0
        with pytest.raises(ValueError, match="no disk failures"):
            validate_durability(broken)

    def test_zero_loss_bar_enforced(self, document):
        broken = copy.deepcopy(document)
        broken["processes"][0]["predictive"]["lost_stripe_probability"] = 0.1
        with pytest.raises(ValueError, match="lost stripes"):
            validate_durability(broken)
        # ... but only when the bar is requested
        validate_durability(broken, require_zero_loss=False)

    def test_schema_version_pinned(self, document):
        assert document["version"] == DURABILITY_SCHEMA.version
        broken = copy.deepcopy(document)
        broken["version"] = 99
        with pytest.raises(ValueError):
            validate_durability(broken)


class TestCommittedArtifact:
    def test_bench_durability_json_meets_the_bar(self, tmp_path):
        # The committed BENCH_durability.json is the study at its
        # defaults (50 trials, RS(9,6), one simulated year, seed 7),
        # regenerated byte for byte, with zero lost stripes under
        # predictive repair.
        path = Path(__file__).resolve().parents[2] / "BENCH_durability.json"
        fresh = tmp_path / "BENCH_durability.json"
        assert main(["-o", str(fresh)]) == 0
        assert fresh.read_bytes() == path.read_bytes()
        body = validate_durability(json.loads(path.read_text()))
        assert body["config"]["trials"] == 50
        assert body["config"]["years"] == 1.0
        assert body["config"]["seed"] == 7
        for entry in body["processes"]:
            assert entry["predictive"]["lost_stripe_probability"] == 0.0

"""Interrupted-then-resumed fuzz campaigns must be bit-identical.

The contract under test (the PR's acceptance criterion): a campaign
stopped mid-run — operator interrupt or wall-clock deadline — and then
resumed from its journal produces a :class:`CampaignReport` equal to an
uninterrupted run's, re-simulating only the unfinished cases.
"""

from __future__ import annotations

import json

import pytest

from repro.conformance.driver import (CampaignReport, campaign_cases,
                                      case_digest, run_campaign)
from repro.errors import ConfigError

BUDGET = 10


def _fingerprint(report: CampaignReport):
    """Everything observable about a campaign, in comparable form."""
    return (
        report.seed, report.budget, report.summary(),
        [(r.skipped, r.total_gbps, [(f.kind, f.detail) for f in r.failures])
         for r in report.results],
    )


def _interrupted_campaign(journal_path: str, stop_after: int):
    completed = []

    def should_stop():
        return len(completed) >= stop_after

    return run_campaign(
        BUDGET, seed=0, minimize=False, journal_path=journal_path,
        progress=completed.append, stop=should_stop)


class TestResume:
    def test_resumed_report_bit_identical_to_clean_run(self, tmp_path):
        journal = str(tmp_path / "fuzz.jsonl")
        clean = run_campaign(BUDGET, seed=0, minimize=False)

        partial = _interrupted_campaign(journal, stop_after=4)
        assert partial.interrupted
        assert len(partial.results) == 4
        assert partial.remaining == BUDGET - 4

        resumed = run_campaign(BUDGET, seed=0, minimize=False,
                               resume_from=journal)
        assert resumed.resumed == 4  # restored, not re-simulated
        assert not resumed.interrupted and resumed.remaining == 0
        assert _fingerprint(resumed) == _fingerprint(clean)

    def test_double_interruption_still_converges(self, tmp_path):
        journal = str(tmp_path / "fuzz.jsonl")
        clean = run_campaign(BUDGET, seed=0, minimize=False)
        _interrupted_campaign(journal, stop_after=3)

        completed = []
        second = run_campaign(
            BUDGET, seed=0, minimize=False, resume_from=journal,
            progress=completed.append,
            stop=lambda: len(completed) >= 2)
        assert second.interrupted and second.resumed == 3

        final = run_campaign(BUDGET, seed=0, minimize=False,
                             resume_from=journal)
        assert final.resumed == 5
        assert _fingerprint(final) == _fingerprint(clean)

    def test_deadline_zero_checkpoints_immediately(self, tmp_path):
        journal = str(tmp_path / "fuzz.jsonl")
        report = run_campaign(BUDGET, seed=0, minimize=False,
                              journal_path=journal, max_minutes=0.0)
        assert report.deadline_reached
        assert not report.results and report.remaining == BUDGET

        clean = run_campaign(BUDGET, seed=0, minimize=False)
        resumed = run_campaign(BUDGET, seed=0, minimize=False,
                               resume_from=journal)
        assert resumed.resumed == 0  # nothing had finished yet
        assert _fingerprint(resumed) == _fingerprint(clean)


class TestResumeSafety:
    def test_seed_mismatch_refused(self, tmp_path):
        journal = str(tmp_path / "fuzz.jsonl")
        _interrupted_campaign(journal, stop_after=2)
        with pytest.raises(ConfigError, match="seed"):
            run_campaign(BUDGET, seed=1, minimize=False, resume_from=journal)

    def test_conflicting_journal_and_resume_paths_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="either journal_path"):
            run_campaign(BUDGET, seed=0,
                         journal_path=str(tmp_path / "a.jsonl"),
                         resume_from=str(tmp_path / "b.jsonl"))

    def test_unrestorable_entry_refused_not_silently_skipped(self, tmp_path):
        journal = str(tmp_path / "fuzz.jsonl")
        _interrupted_campaign(journal, stop_after=2)
        # Simulate a journal written by a drifted build: a finish record
        # whose payload no longer matches the restore schema.  The later
        # record wins on load, so appending suffices.
        digest = case_digest(next(iter(campaign_cases(BUDGET, 0))))
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "finish", "task": digest,
                                 "payload": {"bogus": 1}}) + "\n")
        with pytest.raises(ConfigError, match="cannot be restored"):
            run_campaign(BUDGET, seed=0, minimize=False, resume_from=journal)


class TestCaseDigest:
    def test_digest_is_stable_and_content_addressed(self):
        cases = campaign_cases(BUDGET, 0)
        digests = [case_digest(c) for c in cases]
        assert digests == [case_digest(c) for c in campaign_cases(BUDGET, 0)]
        assert len(set(digests)) == len(digests)  # no two cases collide

    def test_digest_differs_across_seeds(self):
        a = {case_digest(c) for c in campaign_cases(4, 0)}
        b = {case_digest(c) for c in campaign_cases(4, 1)}
        assert a.isdisjoint(b)

"""What the auditor remembers can never change what it reports.

Every named scenario runs, in the control style it declares, with each
``audit_round`` of the run's auditor repeated on a fresh
``InvariantAuditor()`` — the memo-free audit.  Violations, the digest
line and the number of checks counted must agree round by round; the
line itself is pinned to the forest's own ``sorted(edges())``.  The
async scenarios audit epochs out of order and across overlapping rounds,
so they are the ones where "the forest audited before" is not the
round's predecessor.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.scenarios import (
    ScenarioRuntime,
    chaos_scenario_names,
    get_scenario,
    scenario_names,
)
from repro.sim.invariants import InvariantAuditor
from tests.conftest import audit_log_line


@pytest.mark.parametrize("seed", (7, 23))
@pytest.mark.parametrize("name", scenario_names() + chaos_scenario_names())
def test_every_round_audits_like_a_fresh_auditor(name, seed):
    runtime = ScenarioRuntime(get_scenario(name, sites=8, seed=seed), audit=True)
    auditor = runtime.auditor
    remembering = auditor.audit_round
    log = hashlib.sha256()
    reused = 0

    def shadowed(result, directive, rps, active, event="round", time_ms=0.0):
        nonlocal reused
        active = list(active)
        fresh = InvariantAuditor()
        expected = fresh.audit_round(
            result, directive, rps, active, event=event, time_ms=time_ms
        )
        held = dict(auditor._memo)
        checks = auditor.checks_run
        found = remembering(
            result, directive, rps, active, event=event, time_ms=time_ms
        )
        assert found == expected
        assert auditor.checks_run - checks == fresh.checks_run
        line = audit_log_line(result.forest, event, time_ms, len(expected))
        assert fresh.report().digest == hashlib.sha256(line).hexdigest()
        log.update(line)
        assert auditor.report().digest == log.hexdigest()
        assert len(auditor._memo) <= len(result.forest.trees)
        reused += sum(
            held.get(key) is record for key, record in auditor._memo.items()
        )
        return found

    auditor.audit_round = shadowed
    report = runtime.run()
    assert report.audit is not None
    assert report.audit.events_audited == report.rounds > 1
    assert report.audit.digest == log.hexdigest()
    assert reused, "no tree record survived a round: the memo was never in play"

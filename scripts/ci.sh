#!/usr/bin/env bash
# Lightweight CI for the reproduction repo.
#
#   scripts/ci.sh          tier-1 tests, audited scenario smoke checks and
#                          the reach check (scripts/reach.py)
#   scripts/ci.sh --full   additionally enables the slow/stress test matrix
#
# Exits non-zero on any test failure or invariant violation.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

EXTRA=()
if [[ "${1:-}" == "--full" ]]; then
    EXTRA+=(--runslow)
fi

echo "== tier-1 tests (this install's array backend) =="
# Tier-1 includes the golden digests (tests/test_golden_digests.py): the
# 78 scenario cells and the seed-7 benchmark exact blocks against
# tests/golden/digests.json; --full adds the seed-23 blocks.
python -m pytest -x -q "${EXTRA[@]}"

# The numpy kernels are pinned bit-identical to the python reference, so
# the whole suite must also pass with the reference pinned; without numpy
# the pass above already was that pass.
if python -c "import numpy" >/dev/null 2>&1; then
    echo
    echo "== tier-1 tests (python reference backend pinned) =="
    python -m pytest -x -q --array-backend python "${EXTRA[@]}"
else
    echo
    echo "ci.sh: numpy not importable, the pass above ran the python backend"
fi

echo
echo "== audited scenario smoke check =="
python -m repro.cli scenario run flash-crowd --sites 6 --seed 7 --audit --strict

echo
echo "== audited CO-RJ scenario under capacity starvation (victim swaps) =="
# Rejects about three requests in four, and the CO-RJ victim swap fires
# (54 swaps in 20 of the 21 rounds); the smoke above rejects nothing.
python -m repro.cli scenario run capacity-starvation --sites 8 --seed 7 \
    --algorithm co-rj --audit --strict

echo
echo "== audited CO-RJ repair under capacity starvation (repair-time swaps) =="
# Under --rebuild-policy incremental the repairer re-joins with the CO-RJ
# victim swap; the summary is checked for repairs so the gate cannot
# silently rebuild every round instead.
SWAP_OUT=$(python -m repro.cli scenario run capacity-starvation --sites 8 \
    --seed 7 --algorithm co-rj --rebuild-policy incremental --audit --strict)
echo "${SWAP_OUT}"
if ! grep -Eq '^overlay maintenance \[incremental\]: [1-9][0-9]* repairs' \
    <<<"${SWAP_OUT}"; then
    echo "ci.sh: repair-time swap gate ran no repair rounds" >&2
    exit 1
fi

echo
echo "== audited async-control scenario (mid-build joins under delay) =="
# The only gate that runs the control link unimpaired: no draws, every
# message at its base delay.
python -m repro.cli scenario run flash-crowd --sites 8 --seed 7 \
    --control-delay-ms 50 --debounce-ms 15 --audit --strict

echo
echo "== reach: no product function that no product run calls =="
# scripts/reach.py traces the digest cells, the benchmark drivers, the CLI
# lines of this file, the scale probe's rows and the examples (~30 s) and
# fails on a function none of them calls that its KEEP table does not name.
if python -c "import numpy" >/dev/null 2>&1; then
    python scripts/reach.py
else
    echo "ci.sh: numpy not importable, and reach.py's KEEP is written for it"
fi

if [[ "${1:-}" == "--full" ]]; then
    echo
    echo "== audited high-churn scenario on the diffed-assembly path =="
    # --rebuild-policy incremental selects diffed assembly; the summary
    # line is checked so the gate cannot silently fall back to scratch.
    CHURN_OUT=$(python -m repro.cli scenario run mixed-churn --sites 16 \
        --seed 7 --rebuild-policy incremental --audit --strict)
    echo "${CHURN_OUT}"
    if ! grep -Eq '^problem assembly: [1-9][0-9]* diffed' <<<"${CHURN_OUT}"; then
        echo "ci.sh: high-churn gate ran no diffed-assembly rounds" >&2
        exit 1
    fi

    echo
    echo "== chaos gate: 20%-lossy jittered join burst, zero unrecovered =="
    python -m repro.cli scenario run lossy-flash-crowd --sites 8 --seed 7 \
        --audit --strict --max-unrecovered 0

    echo
    echo "== chaos gate: heartbeat-detected failures under 20% loss =="
    # Seed chosen so every suspicion raised before the horizon also
    # heals before it (seed 7 ends with one in-flight re-admission).
    python -m repro.cli scenario run heartbeat-rolling-failure --sites 8 \
        --seed 11 --audit --strict --max-unrecovered 0

    echo
    echo "== chaos gate: site partition + heal (zombie re-admission) =="
    python -m repro.cli scenario run partitioned-churn --sites 8 --seed 7 \
        --audit --strict --max-unrecovered 0

    echo
    echo "== data-chaos gate: 20%-lossy dissemination, NACK/repair recovers all =="
    python -m repro.cli scenario run lossy-dissemination --sites 8 --seed 7 \
        --audit --strict --max-unrecovered 0 --max-unrecovered-frames 0

    echo
    echo "== server-crash gate: cold restart mid-join-burst, full soft-state refresh =="
    python -m repro.cli scenario run server-crash-flash-crowd --sites 8 \
        --seed 7 --audit --strict --max-unrecovered 0 --max-unrecovered-reports 0

    echo
    echo "== server-crash gate: double restart under churn, warm checkpoint restore =="
    python -m repro.cli scenario run server-restart-churn --sites 8 \
        --seed 7 --audit --strict --max-unrecovered 0 --max-unrecovered-reports 0

    echo
    echo "== server-crash gate: delta directives over async pushes and a warm restore =="
    # --rebuild-policy incremental makes repair rounds ship delta
    # directives; the summary is checked for repairs and a warm restore so
    # the gate cannot silently run without either.
    RESTART_OUT=$(python -m repro.cli scenario run server-restart-churn \
        --sites 8 --seed 7 --rebuild-policy incremental --audit --strict \
        --max-unrecovered 0 --max-unrecovered-reports 0)
    echo "${RESTART_OUT}"
    if ! grep -Eq '^overlay maintenance \[incremental\]: [1-9][0-9]* repairs' \
        <<<"${RESTART_OUT}"; then
        echo "ci.sh: delta-directive gate ran no repair rounds" >&2
        exit 1
    fi
    if ! grep -Eq ' [1-9][0-9]* warm restores$' <<<"${RESTART_OUT}"; then
        echo "ci.sh: delta-directive gate ran no warm restore" >&2
        exit 1
    fi

    echo
    echo "== server-crash gate: outage inside a site partition window =="
    python -m repro.cli scenario run server-crash-partition-overlap --sites 8 \
        --seed 7 --audit --strict --max-unrecovered 0 --max-unrecovered-reports 0

    echo
    echo "== combined gate: control faults and server restarts with data loss, NACK/repair =="
    # Repairs end at the deadline (20 x the bound), not after a few NACKs:
    # a receiver keeps asking while its parent fetches its own copy.
    python -m repro.cli scenario run server-restart-churn --sites 8 --seed 7 \
        --data-loss-rate 0.15 --data-jitter-ms 5 --data-duplicate-rate 0.05 \
        --data-nack --data-max-repair-attempts 1000 \
        --data-repair-deadline-factor 20 --audit --strict --max-unrecovered 0 \
        --max-unrecovered-reports 0 --max-unrecovered-frames 0

    echo
    echo "== interpreter gate: every exact block equal on every python present =="
    scripts/interp_pairs.sh
fi

echo
echo "ci.sh: all checks passed"

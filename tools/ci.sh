#!/usr/bin/env bash
# CI gate: lint + tier-1 tests + engine bench smoke (+ optional sweep smoke).
#
# Usage:  tools/ci.sh                # full gate (lint + tests + quick bench check)
#         tools/ci.sh --no-bench     # lint + tests only (e.g. docs-only changes)
#         tools/ci.sh --bench-only   # bench regression gate only (engine-perf work)
#         tools/ci.sh --paper        # additionally gate the 256-rank paper tier
#         tools/ci.sh --sweep-smoke  # additionally round-trip a tiny sweep matrix
#
# Stages (each is wall-timed; a summary table prints at exit, pass or fail):
#
#   lint          ruff check (bug-class rules, see pyproject.toml) + ruff
#                 format --check.  Skipped with a notice when ruff is not
#                 installed — the GitHub workflow always installs it, so
#                 the skip only applies to bare local environments.
#   imports       `import repro` and `import repro.harness.sweep` must load
#                 neither networkx (dropped for a 12-line BFS: it cost
#                 15.8 MB RSS and 158 ms in every process, sweep and shard
#                 workers included) nor numpy.random (2.1 MB RSS and 9 ms;
#                 only a job's first rng stream loads it, see sim/rng.py)
#   tests         the tier-1 pytest suite (ROADMAP.md contract)
#   campaign      a quick seeded fault-campaign smoke (sdr-mpi campaign
#                 --seeds 3): every run is audited for the zero-leak arena
#                 balance, and any invariant violation fails the gate
#                 (docs/fault_model.md); plus the one-call reproducer of
#                 the parked-duplicate leak (mirror, seed 44)
#   sweep-smoke   (--sweep-smoke) a tiny 2-axis sweep matrix on a 2-worker
#                 pool, round-tripping generate -> execute -> store ->
#                 query -> table, with 2 configs — plus one the run memo
#                 served — re-verified against memo-less serial execution
#                 (docs/sweeps.md).  Artifacts land in .ci-sweep/ for the
#                 workflow to publish; the summary repeats the cache line.
#   bench         tools/bench.py --tier quick --check: fails with a per-row
#                 delta table when any row's host-corrected events/sec drops
#                 more than 20% below the committed snapshot in
#                 BENCH_engine.json.  --paper adds the 256-logical-rank tier
#                 at the same tolerance (~15 s for both on a 2-core host).
#
# On an intentional engine change, refresh the snapshot (one process per
# tier, so each tier's peak RSS is its own) and commit it with the change:
#   for t in full quick paper scale scale4k scale8k scale16k floor; do
#     python tools/bench.py --tier $t --workers 4 --update
#   done
# (--update without --workers keeps the committed '@wN' rows and says so;
# floor is not a Job and gets none; see docs/performance.md).

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

RUN_TESTS=1
RUN_BENCH=1
RUN_PAPER=0
RUN_SWEEP=0
for arg in "$@"; do
    case "$arg" in
        --no-bench)    RUN_BENCH=0 ;;
        --bench-only)  RUN_TESTS=0 ;;
        --paper)       RUN_PAPER=1 ;;
        --sweep-smoke) RUN_SWEEP=1 ;;
        *) echo "tools/ci.sh: unknown flag: $arg" >&2; exit 2 ;;
    esac
done
if (( !RUN_TESTS && !RUN_BENCH && !RUN_SWEEP )); then
    echo "tools/ci.sh: --no-bench and --bench-only leave nothing to run" >&2
    exit 2
fi
if (( RUN_PAPER && !RUN_BENCH )); then
    echo "tools/ci.sh: --paper requires the bench stage (conflicts with --no-bench)" >&2
    exit 2
fi

T0=$SECONDS

# ---- per-stage wall-time accounting -----------------------------------
STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_T0=0

begin_stage() {
    CURRENT_STAGE="$1"
    STAGE_T0=$SECONDS
    echo "== $2 =="
}

end_stage() {
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_SECS+=("$(( SECONDS - STAGE_T0 ))")
    CURRENT_STAGE=""
}

print_stage_summary() {
    # Runs on every exit — an aborted stage still shows up, marked failed.
    if [[ -n "$CURRENT_STAGE" ]]; then
        STAGE_NAMES+=("$CURRENT_STAGE (failed)")
        STAGE_SECS+=("$(( SECONDS - STAGE_T0 ))")
    fi
    if (( ${#STAGE_NAMES[@]} )); then
        echo
        echo "stage wall-time summary:"
        printf '  %-24s %7s\n' "stage" "seconds"
        printf '  %-24s %7s\n' "------------------------" "-------"
        local i
        for i in "${!STAGE_NAMES[@]}"; do
            printf '  %-24s %7s\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
        done
        printf '  %-24s %7s\n' "total" "$(( SECONDS - T0 ))"
    fi
    if (( RUN_SWEEP )) && [[ -s .ci-sweep/smoke-table.txt ]]; then
        # shape-cache hits/misses and run-memo hits of the smoke sweep
        echo "sweep-smoke: $(tail -n 1 .ci-sweep/smoke-table.txt)"
    fi
    # The number ROADMAP asks every PR to justify (net lines added to src/
    # need a reason; net lines removed do not).
    echo "src/ line count: $(find src -name '*.py' -print0 | xargs -0 cat | wc -l)"
    # ROADMAP's sharding success line is shard.py <= 1,000 lines.
    echo "src/repro/sim/shard.py line count: $(wc -l < src/repro/sim/shard.py)"
    # Serial and sharded runs end through one builder, JobResult.merge: no
    # second place may construct a result (and grow its own raise sites).
    echo "JobResult construction outside harness/runner.py (must be empty):"
    grep -rn "JobResult(" src/ --exclude=runner.py || true
    # The free lists are plain pools bounded by POOL_CAP: no arena trimmer,
    # windowed high-water or unread memory counter may creep back into src/.
    echo "memory-policy residue in src/ (must be empty):"
    grep -rnE "trim_env_pool|trim_frame_pool|TRIM_(INTERVAL|PROCS|SLACK)|_hw_window|env_trimmed|frames_trimmed|_install_trimmer|working_set_rows|snapshot_stats" src/ || true
    # sim/pool.py is the one module that starts worker processes: the sweep
    # and the shard runner share it (the bracket keeps this line from
    # matching the retired test-seam name it searches for).
    echo "process-management residue outside sim/pool.py (must be empty):"
    grep -rnE "get_context|\.Process\(|\.Pipe\(|\.Queue\(|REPRO_SWEEP_TEST_CRAS[H]" src/ --exclude=pool.py || true
    # The sharding gate number (ROADMAP: sharding earns its place or shrinks),
    # as committed — host cores beside it, since fork workers only beat
    # serial on cores the host actually grants.
    python - <<'PY' || true
import json
scale = json.load(open("BENCH_engine.json"))["current"]["modes"].get("scale", {})
# Run-time footprint beside the line count: bytes a process costs at the
# traced peak of the 1024-rank tier (tools/footprint.py says which sites).
print(f"sdr-collectives-1024 mem_bytes_per_proc: "
      f"{scale.get('sdr-collectives-1024', {}).get('mem_bytes_per_proc', 'not recorded')} (BENCH_engine.json)")
row = scale.get("sdr-collectives-1024@w4")
if row is None:
    print("sdr-collectives-1024@w4 speedup_vs_serial: not recorded (tools/bench.py --tier scale --workers 4 --update)")
else:
    print(f"sdr-collectives-1024@w4 speedup_vs_serial: {row['speedup_vs_serial']}x "
          f"on {row['parallel']['host_cores']} host cores (BENCH_engine.json)")
PY
    # A finished job frees by reference counting alone (docs/performance.md,
    # "Memory footprint & shared state"): no reference cycle outlives a run.
    python - <<'PY' || true
import gc
from repro import Job, ReplicationConfig, cluster_for
from repro.scenarios import ring_collectives
left = {}
for protocol in ("native", "sdr", "mirror", "leader", "redmpi"):
    degree = 1 if protocol == "native" else 2
    cfg = ReplicationConfig(degree=degree, protocol=protocol)
    gc.collect()
    gc.disable()
    Job(8, cfg=cfg, cluster=cluster_for(8, degree)).launch(ring_collectives, iters=2, nbytes=256).run()
    gc.set_debug(gc.DEBUG_SAVEALL)
    left[protocol] = gc.collect()
    gc.set_debug(0)
    gc.garbage.clear()
    gc.enable()
print(f"cyclic garbage left by a finished job, 5 protocols (must be 0): {sum(left.values())} {left}")
PY
    # Handles are passive (PR 19): nothing in src/ may drive one from a wait
    # loop again, or keep a second loop for handles that want driving.
    echo "active-handle residue in src/ (must be empty):"
    grep -rnE "needs_advance|def advance|\.advance\(|_generic\b|DeferredRecvHandle|_stock_polls" src/ || true
    # One fault-experiment runner: `sdr-mpi campaign` is a sweep preset, and
    # an envelope's wire values are `Envelope.wire_values` — no second
    # runner, schedule type or field list may come back, nor the dead names
    # deleted with them.
    echo "fault-experiment twin residue in src/ (must be empty):"
    grep -rnE "run_campaign|CampaignResult|CrashSchedule|DEFAULT_PROTOCOLS|class Mailbox|LogGPModel|RecvEvent|_envelope_class|_ENVELOPE_FIELDS" src/ || true
    # One body per hot loop: blocking point-to-point and the collective
    # schedules share MpiProcess's fused send_on/recv_on/sendrecv_on, a
    # process resumes through Process.fire alone, and SDR re-acks a
    # duplicate through its ack hook — no hand-inlined copy may come back.
    echo "hand-inlined twin residue in src/ (must be empty):"
    grep -rnE "def (_sendrecv|_post_send|_post_recv|_send_wait|_recv_wait|_send_acks|_resume)\b" src/ || true
    # Envelopes are borrowed, never held: one owner and no refcount, so no
    # retain/copy escape hatch, hook-retain guard or write-only receive
    # field may come back.
    echo "envelope-retain residue in src/ (must be empty):"
    grep -rnE "\bretain\(|_refs\b|MessageView|guard_hook|_HookList|_retain_ledger|unbalanced_retain|lib_complete|\.matched\b" src/ || true
    # One ownership check: the end-of-run arena balance names a stranding
    # filter, so no opt-in filter guard, its ledger, or a counter or method
    # nothing reads may come back.
    echo "filter-guard residue in src/ (must be empty):"
    grep -rnE "REPRO_FILTER_GUARD|filter_guard|guard_incoming_filter|_guard_pending|guard_violations|unguarded_filter|_incoming_filter\b|frames_sent|bytes_sent|bytes_received|compute_time|substitute_of|rank_of_world|core_of|alive_replicas_of" src/ || true
    # One send recorder: the determinism checker reads sends off the
    # kernel's trace_hook, so no per-process recorder, recorder factory,
    # event/Lamport module or write-only SDR source table may come back.
    echo "send-recorder residue in src/ (must be empty):"
    grep -rnE "recorder_factory|record_send|TraceSet|SendEvent|LamportClock|happened_before|causal_order_violations|\.recorder\b|physical_src" src/ || true
    # A process costs what it keeps: its body is a module-level generator,
    # its exit callback one bound method per job, and it queues itself
    # instead of a start event — no per-process closure may come back.
    echo "per-process closure residue in src/ (must be empty):"
    grep -rnE "def body\(|lambda p: self\._on_exit|start = Event\(" src/ || true
    # One object per message: a frame carries its envelope's fields, so no
    # envelope class, per-PML envelope arena or envelope relay/duplication
    # counter may come back.
    echo "envelope-arena residue in src/ (must be empty):"
    grep -rnE "\bEnvelope\b|acquire_env|env_acquired|_env_pool|envs_(duplicated|exported|imported)" src/ || true
    # One wire path: Fabric.inject prices, counts and defers a frame, and
    # the barrier's downlink body is Fabric.price_downlink, so no mirrored
    # pricing body or shard router object may come back.
    echo "wire-path residue in src/ (must be empty):"
    grep -rnE "price_deferred|_ShardRouter|shard_router|router\.defer" src/ || true
    # Wildcard matching reads only per-endpoint arrival order, which the
    # barrier merge reproduces or taints on: no any-source counter or
    # runtime taint may come back.
    echo "any-source taint residue in src/ (must be empty):"
    grep -rnE "any_source_posts|any-source receive posted" src/ || true
    # Replica stacks read the job's rmap and cfg directly: no second copy of
    # them, per-job rebind or unread world size may come back.
    echo "protocol-config copy residue in src/ (must be empty):"
    grep -rnE "ProtocolShared|proto_shared|\.rebound\(|self\.world_size" src/ || true
    # A payload stays the object its sender posted: no job-wide intern
    # table, its per-PML slot or its fingerprint sum may come back.
    echo "payload-interner residue in src/ (must be empty):"
    grep -rnE "PayloadInterner|_interner|\.intern\(|payload_lookups" src/ || true
    # Frozen specs check themselves in __post_init__; only the mutable
    # FaultSchedule builder keeps a validate(), since it needs the horizon.
    echo "spec validate() residue in src/ (must list only FaultSchedule):"
    grep -rn "def validate(" src/ || true
}
trap print_stage_summary EXIT

# ---- stages ------------------------------------------------------------
if (( RUN_TESTS )); then
    begin_stage lint "lint (ruff check + ruff format --check)"
    if command -v ruff >/dev/null 2>&1; then
        ruff check .
        # Blocking since PR 3: the tree is kept `ruff format`-clean, so
        # any drift is a one-command fix (`ruff format .` + commit).
        if ! ruff format --check .; then
            echo "   ruff format --check found drift — run 'ruff format .' and commit" >&2
            exit 1
        fi
    else
        echo "   ruff not installed — lint gate SKIPPED (the CI workflow installs it;"
        echo "   'pip install ruff' to run it locally)"
    fi
    end_stage

    begin_stage imports "import hygiene (import repro must not load networkx or numpy.random)"
    python -c 'import sys, repro, repro.harness.sweep
loaded = [m for m in ("networkx", "numpy.random") if m in sys.modules]
sys.exit(f"import repro loaded {loaded}" if loaded else 0)'
    end_stage

    begin_stage tests "tier-1 tests"
    python -m pytest -x -q
    end_stage

    begin_stage campaign "fault-campaign smoke (3 seeded mixes x 5 protocols, audited)"
    # Exits nonzero on any invariant violation (arena imbalance or a
    # strand no drop site accounts for);
    # the degradation table lands in the log.  See docs/fault_model.md.
    python -m repro campaign --seeds 3
    # The smallest reproducer of the parked-duplicate leak: a link
    # duplicate of an early arrival once overwrote the parked copy.
    python -m repro campaign --protocols mirror --seed-base 44 --seeds 1
    end_stage
fi

if (( RUN_SWEEP )); then
    begin_stage sweep-smoke "sweep smoke (2-axis matrix, 2 workers, store round-trip)"
    mkdir -p .ci-sweep
    rm -f .ci-sweep/smoke.jsonl .ci-sweep/smoke.sqlite
    # Generate -> execute (pooled) -> store -> verify a sample serially.
    # Nonzero on any invariant violation, worker crash, or fingerprint
    # mismatch between the pooled run and serial re-execution.
    # The workload axis includes an open-loop traffic config so the
    # request-accounting audit and the traffic report table gate per-PR.
    # The pool deals whole run-memo cells, so each clean ring cell's two
    # seeds land on one worker: its memo serves the second and --verify
    # re-proves that hit.
    python -m repro sweep \
        --protocols native sdr --ranks 4 --workloads ring traffic-poisson \
        --mixes clean full --seeds 2 \
        --workers 2 --verify 2 --store .ci-sweep/smoke --overwrite \
        | tee .ci-sweep/smoke-table.txt
    # Query path: re-render the tables purely from the finalized store.
    python -m repro sweep --report --store .ci-sweep/smoke > /dev/null
    end_stage
fi

if (( RUN_BENCH )); then
    begin_stage bench-quick "engine bench smoke (quick, 20% events/sec regression gate)"
    python tools/bench.py --tier quick --check
    end_stage
    if (( RUN_PAPER )); then
        begin_stage bench-paper "engine bench smoke (paper scale: 256 logical ranks)"
        python tools/bench.py --tier paper --check
        end_stage
    fi
fi

echo "CI gate passed in $(( SECONDS - T0 ))s."

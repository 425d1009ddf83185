#!/usr/bin/env bash
# Tier-1 check: Release build, full test suite, throughput smoke bench, and
# a ThreadSanitizer pass over the thread pool.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

# Prints the port a background `glint fleet-serve --port 0` announced in its
# log ("listening on 127.0.0.1:PORT"), polling for up to 10 s; fails,
# naming the log, when no port appears.
wait_for_port() {
  local log="$1" port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
      "${log}" 2>/dev/null)"
    if [ -n "${port}" ]; then
      printf '%s\n' "${port}"
      return 0
    fi
    sleep 0.1
  done
  echo "check.sh: no listening port in ${log}" >&2
  return 1
}

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j"${JOBS}"
# Native pass: kernels auto-select the most capable backend this host has.
ctest --test-dir build --output-on-failure -j"${JOBS}"
# Forced-scalar pass: the same tier-1 suite on the portable reference
# kernels. Together with the native pass (and kernel_dispatch_test's
# per-primitive fingerprints) this proves the SIMD backends change nothing
# observable.
GLINT_KERNEL=scalar ctest --test-dir build --output-on-failure -j"${JOBS}"
# Telemetry-off pass: GLINT_OBS=off is glint::obs's one off-switch, and
# the fleet's control paths (overload shedding, supervision, dedup, drain)
# must not depend on it. The request-trace completeness case skips itself
# here by design: with telemetry off no trace is begun.
GLINT_OBS=off GLINT_THREADS=2 ./build/tests/fleet_chaos_test
GLINT_OBS=off GLINT_THREADS=2 ./build/tests/fleet_test

# Smoke the throughput bench with a 2-thread pool (exercises the parallel
# build/train/inference paths end to end).
GLINT_THREADS=2 ./build/bench/bench_throughput --smoke

# Smoke the serving bench (cold full-rebuild vs warm incremental Inspect
# through a DeploymentSession; exits non-zero if warm != cold).
GLINT_THREADS=2 ./build/bench/bench_serving --smoke

# Observability gate: obs unit tests (bucket boundaries, quantiles vs an
# exact reference, registry collision aborts, snapshot-merge determinism),
# then the overhead bench — exits non-zero if telemetry costs >5% on the
# warm Inspect path or perturbs the verdicts.
./build/tests/obs_test
GLINT_THREADS=2 ./build/bench/bench_obs_overhead --smoke

# Data-race check: build the thread-pool and obs stress targets under TSAN
# and run all three binaries (threadpool_stress includes three concurrent
# non-pool callers with nested calls, as TrainOffline issues them, and
# aborts with a diagnostic if any round stalls past 60 s instead of
# hanging; obs_stress covers the counter shards, the slow-trace seqlock
# ring, and the time-series rings; trace_test pins the
# request-trace semantics under the same instrumentation).
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGLINT_TSAN=ON
cmake --build build-tsan -j"${JOBS}" --target threadpool_stress obs_stress \
  trace_test
./build-tsan/tests/threadpool_stress
./build-tsan/tests/obs_stress
./build-tsan/tests/trace_test
# Batched serving under TSAN: InspectAll fans BeginInspect out over the
# pool while sharing the detector's memo caches, then assembles the
# super-graph serially — the thread-count equivalence test is the racy
# surface. (Single suite under TSAN; the full sweep runs in the tier-1
# passes above.)
cmake --build build-tsan -j"${JOBS}" --target batched_serving_test
GLINT_THREADS=4 ./build-tsan/tests/batched_serving_test \
  --gtest_filter='BatchedServingTest.MatchesSequentialAcrossThreadCounts'
# Training under TSAN: the fused parallel Adam step writes disjoint element
# tiles, and TrainOffline runs the correlation fit, ITGNN-S and ITGNN-C on
# three caller threads over the shared word-model, feature and correlation
# caches and the obs registry. Only the training tests run here; the full
# determinism suite runs in the tier-1 passes above.
cmake --build build-tsan -j"${JOBS}" --target parallel_determinism_test
GLINT_THREADS=4 ./build-tsan/tests/parallel_determinism_test \
  --gtest_filter='*TrainingIdenticalAcrossThreadCounts:*TrainOffline*'

# The ASan build has UBSan too: a report from either aborts the test.
# Arena lifetime / aliasing check: the tape tests under ASan. Guards the
# bump-pointer arena (slot reuse after Reset, offset-based pools whose
# growth moves storage) and MatMulRows' tail arithmetic (row tails below a
# 4-row block, column tails below an 8-column block, gathered into a
# per-thread buffer) against use-after-free and out-of-bounds regressions.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGLINT_ASAN=ON
cmake --build build-asan -j"${JOBS}" --target \
  gnn_tensor_test gnn_tape_reuse_test gnn_layers_test kernel_dispatch_test \
  batched_serving_test
./build-asan/tests/gnn_tape_reuse_test
./build-asan/tests/gnn_layers_test
# Kernel backends, the segment ops and the batched serving path under ASan:
# the SIMD tail handling (including the MatMul gradient kernels' m-tails,
# row and column tails, and MatMulGradB's 8-wide index-list appends that
# write past the last kept entry), the block-diagonal batch assembly
# (offset-shifted CSR copies), and the segment-op index pools are all
# raw-pointer arithmetic. Every forward, training included, runs the
# segment ops: they stash their offset tables and SegmentMaxRows' argmax
# rows in the tape's int pool, and gnn_tensor_test runs their backward
# over uneven segments.
./build-asan/tests/gnn_tensor_test
./build-asan/tests/kernel_dispatch_test
GLINT_THREADS=2 ./build-asan/tests/batched_serving_test

# Fault matrix under ASan: the injection framework's unit tests, then the
# WAL/snapshot crash-matrix suite — forks a child per (fault point, nth),
# kills it at the armed point, and requires recovery to be bit-identical to
# an uninterrupted run (torn-tail, flipped-byte, and corrupt-snapshot cases
# included). ASan guards the replay/truncation buffer handling.
cmake --build build-asan -j"${JOBS}" --target fault_test recovery_test
./build-asan/tests/fault_test
GLINT_THREADS=1 ./build-asan/tests/recovery_test
# The file formats' golden, truncated and crafted files under ASan: model
# and drift files (gnn_model_test), datasets and replay logs (graph_test).
cmake --build build-asan -j"${JOBS}" --target graph_test gnn_model_test
./build-asan/tests/graph_test
GLINT_THREADS=2 ./build-asan/tests/gnn_model_test

# Env-spec smoke through the real CLI surface (GLINT_FAULTS is what an
# operator arms against a production binary). Train a tiny model (also
# exercises the hardened model save/load path), serve durably from one
# shard with a delay fault armed (must pass through), then with a
# WAL-append failure armed on the now-registered homes (the dropped event
# must fail the run with a non-zero exit — never crash, hang or exit 0),
# then serve again clean on the same state dir (must recover what was
# durable).
FAULT_SMOKE_DIR="$(mktemp -d /tmp/glint_check_fault_XXXXXX)"
trap 'rm -rf "${FAULT_SMOKE_DIR}"' EXIT

# Crafted files through the CLI (a 12-byte replay log claiming 2^32-1
# records; a 40-byte dataset whose one graph has no nodes but the edge
# (0, 0)) must exit 1 with a message, not die on a signal.
printf 'GLRL\1\0\0\0\377\377\377\377' >"${FAULT_SMOKE_DIR}/crafted.glrl"
{ printf 'TNLG\2\0\0\0\1\0\0\0\0\0\0\0\1\0\0\0'; head -c 20 /dev/zero; } \
  >"${FAULT_SMOKE_DIR}/crafted.glnt"
for crafted in "fleet-replay --port 1 --log ${FAULT_SMOKE_DIR}/crafted.glrl" \
    "dataset-info ${FAULT_SMOKE_DIR}/crafted.glnt"; do
  # shellcheck disable=SC2086  # the subcommand and its flags split here
  ERR="$(./build/tools/glint ${crafted} 2>&1 >/dev/null)" && RC=0 || RC=$?
  if [ "${RC}" -ne 1 ] || [ -z "${ERR}" ]; then
    echo "check.sh: glint ${crafted} exited ${RC}, not 1 with a message" >&2
    exit 1
  fi
done

# Full-size bit-identity through the CLI: the default-size offline training
# natively at 4 threads and on the scalar kernels at 1 thread must save
# byte-identical models, and those must match sha256 digests recorded
# before parameters were read in place and Adam became a kernel (DESIGN.md
# §10, §12). A change that moves any trained bit fails here; never
# re-record the digests to make a speed change pass.
GLINT_THREADS=4 ./build/tools/glint train \
  --model-dir "${FAULT_SMOKE_DIR}/identity-native" >/dev/null
GLINT_KERNEL=scalar GLINT_THREADS=1 ./build/tools/glint train \
  --model-dir "${FAULT_SMOKE_DIR}/identity-scalar" >/dev/null
for model in itgnn_s.bin itgnn_c.bin drift.bin; do
  cmp "${FAULT_SMOKE_DIR}/identity-native/${model}" \
    "${FAULT_SMOKE_DIR}/identity-scalar/${model}"
done
if ! (cd "${FAULT_SMOKE_DIR}/identity-native" && sha256sum --check --quiet \
    <<'DIGESTS'
1b9d5666641a13d7f69f370f3f8b03d068c572329350eae392a3daf2f5073ed4  itgnn_s.bin
5c275b3c5afd3a9da3e6e26fc89d3f4d8496d10dd8e37d054da1aa2b43600ff4  itgnn_c.bin
cecd323cbe0bb3880a6b31088552b3ba4c31dcda24ddc77a8951bc20bcdc174e  drift.bin
DIGESTS
); then
  echo "check.sh: trained models differ from the recorded digests" >&2
  exit 1
fi
# `glint inspect` regression on the identity models: the initial-setup
# check of each demo rule set must print what it printed before the CLI
# moved from the removed Glint façade to a DeploymentSession (digests of
# stdout recorded then). The "loaded models from <dir>" line names the
# per-run temp dir, so it is left out of the digest.
for expected in \
    "table1 4a45bbcc01c7106d529e0b645c0b109fac1fbe4e462f1febdbcd0f729ca10c7d" \
    "table4 43644165e8234ca83bee105f5dbc1efaf66d6cfe65065bffafe7be328d5cf823" \
    "blueprints 4a45bbcc01c7106d529e0b645c0b109fac1fbe4e462f1febdbcd0f729ca10c7d"; do
  demo="${expected%% *}"
  got="$(./build/tools/glint inspect --demo "${demo}" \
    --model-dir "${FAULT_SMOKE_DIR}/identity-native" |
    grep -v '^loaded models from ' | sha256sum | cut -d' ' -f1)"
  if [ "${got}" != "${expected#* }" ]; then
    echo "check.sh: glint inspect --demo ${demo} output changed" >&2
    exit 1
  fi
done
GLINT_THREADS=2 ./build/tools/glint train \
  --model-dir "${FAULT_SMOKE_DIR}/models" --graphs 40 --epochs 2
GLINT_FAULTS='wal.append.write=delay:1' GLINT_THREADS=2 ./build/tools/glint \
  fleet-serve --shards 1 --model-dir "${FAULT_SMOKE_DIR}/models" \
  --state-dir "${FAULT_SMOKE_DIR}/state" --homes 2 --hours 2
if GLINT_FAULTS='wal.append.write=fail' GLINT_THREADS=2 ./build/tools/glint \
    fleet-serve --shards 1 --model-dir "${FAULT_SMOKE_DIR}/models" \
    --state-dir "${FAULT_SMOKE_DIR}/state" --homes 2 --hours 2 \
    >/dev/null 2>&1; then
  echo "check.sh: GLINT_FAULTS=wal.append.write=fail should have surfaced" >&2
  exit 1
fi
GLINT_THREADS=2 ./build/tools/glint fleet-serve --shards 1 \
  --model-dir "${FAULT_SMOKE_DIR}/models" \
  --state-dir "${FAULT_SMOKE_DIR}/state" --homes 2 --hours 2

# Fleet stage. Wire robustness under ASan: the frame decode / codec paths
# are length-prefix-driven buffer arithmetic fed by untrusted bytes, so the
# malformed-frame matrix (truncated headers, flipped CRC bits, oversized
# prefixes, garbage bodies over real sockets) runs with bounds checking on.
cmake --build build-asan -j"${JOBS}" --target wire_test
./build-asan/tests/wire_test
# The epoll server's buffer management (partial-frame reassembly, in/out
# buffer compaction, batch decode into vectors) under ASan too. The
# thousand-idle-connection leg is excluded — it measures fd scaling, not
# memory safety, and instrumented fd churn makes it disproportionately
# slow.
cmake --build build-asan -j"${JOBS}" --target fleet_test
GLINT_THREADS=2 ./build-asan/tests/fleet_test \
  --gtest_filter='-*ThousandIdle*'
# Survivability chaos matrix under ASan (DESIGN.md §16): wire/bus fault
# injection, consumer death + supervised restart from the WAL, wedge
# detection, degraded-mode shedding, deadline sheds, seq dedup, and
# graceful drain — the recovery/requeue paths juggle queued message
# buffers, so bounds checking on.
cmake --build build-asan -j"${JOBS}" --target fleet_chaos_test
GLINT_THREADS=2 ./build-asan/tests/fleet_chaos_test
# Bus/server concurrency under TSAN: multi-producer Post against per-shard
# consumers, Flush barriers, and concurrent wire connections are the racy
# surface — now including the epoll worker pool (EPOLLONESHOT handoff of a
# connection between workers) and pipelined clients. The fork-based
# crash-matrix legs are excluded under TSAN (fork from an instrumented
# multithreaded process is undefined for the runtime); they run in the
# native tier-1 pass above, and the thousand-idle leg is excluded as above.
cmake --build build-tsan -j"${JOBS}" --target wire_test
GLINT_THREADS=2 ./build-tsan/tests/wire_test
cmake --build build-tsan -j"${JOBS}" --target fleet_test
GLINT_THREADS=4 ./build-tsan/tests/fleet_test \
  --gtest_filter='-*CrashMatrix*:*TornTail*:*ThousandIdle*'
# The chaos matrix again under TSAN: supervised consumer restarts, the
# watchdog's health transitions, and clients retrying into a shedding
# server are cross-thread handoffs of queue and health state — exactly
# where a missed acquire/release shows up.
cmake --build build-tsan -j"${JOBS}" --target fleet_chaos_test
GLINT_THREADS=2 ./build-tsan/tests/fleet_chaos_test
# Fleet bench smoke: register/ingest/inspect/wire legs; exits non-zero if
# the fleet-vs-single-engine sample diverges or the bus/wire legs lose
# messages. The overload leg drives a tiny kReject bus at 2x the measured
# sustainable rate while one shard consumer is stalled by a one-shot
# fleet.bus.consumer.run delay; re-check its accounting here from the JSON
# so the gate survives even if the binary's own exit gates are refactored:
# every offered event must be acked-and-applied or answered kOverloaded.
BENCH_FLEET_OUT="$(GLINT_THREADS=2 ./build/bench/bench_fleet --smoke)"
printf '%s\n' "${BENCH_FLEET_OUT}"
ov_field() {
  printf '%s\n' "${BENCH_FLEET_OUT}" | \
    sed -n 's/.*"overload_'"$1"'":\([0-9][0-9]*\).*/\1/p'
}
OV_OFFERED="$(ov_field offered)"
OV_OK="$(ov_field ok_acked)"
OV_SHED="$(ov_field shed)"
OV_APPLIED="$(ov_field applied)"
if [ -z "${OV_OFFERED}" ] || [ "$((OV_OK + OV_SHED))" -ne "${OV_OFFERED}" ] \
    || [ "${OV_APPLIED}" -ne "${OV_OK}" ] || [ "${OV_SHED}" -eq 0 ]; then
  echo "check.sh: bench_fleet overload accounting gate failed" \
    "(offered=${OV_OFFERED:-missing} ok=${OV_OK} shed=${OV_SHED}" \
    "applied=${OV_APPLIED})" >&2
  exit 1
fi
# Durable fleet-serve smoke through the CLI: drive a small sharded fleet
# through the bus with per-shard WALs, then serve again on the same state
# dir (must recover every shard and resume, not re-register).
GLINT_THREADS=2 ./build/tools/glint fleet-serve \
  --model-dir "${FAULT_SMOKE_DIR}/models" \
  --state-dir "${FAULT_SMOKE_DIR}/fleet-state" --shards 3 --homes 6 --hours 2
GLINT_THREADS=2 ./build/tools/glint fleet-serve \
  --model-dir "${FAULT_SMOKE_DIR}/models" \
  --state-dir "${FAULT_SMOKE_DIR}/fleet-state" --shards 3 --homes 6 --hours 2
# The snapshots the pair leaves pin the rule and event codecs end to end:
# their sha256 digests were recorded before the codecs became one field
# list per layout (snapshot content does not depend on the trained models).
# Never re-record them to make a codec change pass.
if ! (cd "${FAULT_SMOKE_DIR}/fleet-state" && sha256sum --check --quiet \
    <<'DIGESTS'
a91cd61b52e34b52610e5e716b60b459d161601837b564281779480234651756  shard-0/snapshot.bin
f422c487956819e7bdea448988f4581f9a43e01ef73b92993b740c8cd3bc8b8c  shard-1/snapshot.bin
31185904e3c539e60c5460bdcfea678ba584a3beb91c21c657c0bc910451be2e  shard-2/snapshot.bin
DIGESTS
); then
  echo "check.sh: fleet-serve snapshots differ from the recorded digests" >&2
  exit 1
fi
# The WAL bytes end to end: a fresh durable run killed at its drain
# snapshot's WAL truncate (exit 112) keeps every record each shard
# journaled, and driver mode posts multi-event batches, so each
# shard-K/wal.log holds what the batched append path wrote. The digests
# were recorded before a batch's records were appended with one write
# per run; never re-record them to make a change pass.
WAL_STATUS=0
GLINT_FAULTS='wal.truncate=crash' GLINT_THREADS=2 ./build/tools/glint \
  fleet-serve --model-dir "${FAULT_SMOKE_DIR}/models" \
  --state-dir "${FAULT_SMOKE_DIR}/wal-state" --shards 3 --homes 6 \
  --hours 2 >/dev/null || WAL_STATUS=$?
if [ "${WAL_STATUS}" -ne 112 ]; then
  echo "check.sh: fleet-serve with wal.truncate=crash exited" \
    "${WAL_STATUS}, not 112" >&2
  exit 1
fi
if ! (cd "${FAULT_SMOKE_DIR}/wal-state" && sha256sum --check --quiet \
    <<'DIGESTS'
547de3bc3a7372e034b5e65424ab84b182caaf7bd4516ffb77ca01a803361bc6  shard-0/wal.log
1dd6f5337dd2aae6bc54687220773855c8836ac6944e2cf212926f0c7af8d49f  shard-1/wal.log
7ba7138f985234ade195ab4dd1897db0c5252852bf7c930e82b6f37c7284ee90  shard-2/wal.log
DIGESTS
); then
  echo "check.sh: fleet-serve WALs differ from the recorded digests" >&2
  exit 1
fi

# Tracing stage (DESIGN.md §14), end-to-end through the CLI surface: serve
# the recovered fleet state over the wire in the background, poll it once
# with fleet-top, and require the per-shard stage table plus the
# machine-readable JSON lines. (The tracing-overhead gate runs in
# bench_obs_overhead above; kStatsJson codec abuse runs in the ASan
# wire_test leg; the per-request trace-completeness matrix runs in
# fleet_test.)
GLINT_THREADS=2 ./build/tools/glint fleet-serve \
  --model-dir "${FAULT_SMOKE_DIR}/models" \
  --state-dir "${FAULT_SMOKE_DIR}/fleet-state" --shards 3 \
  --port 0 --duration 60 >"${FAULT_SMOKE_DIR}/fleet-serve.log" &
FLEET_SERVE_PID=$!
if ! FLEET_PORT="$(wait_for_port "${FAULT_SMOKE_DIR}/fleet-serve.log")"; then
  echo "check.sh: fleet-serve never reported a listening port" >&2
  kill "${FLEET_SERVE_PID}" 2>/dev/null || true
  exit 1
fi
FLEET_TOP_OUT="$(./build/tools/glint fleet-top --once --port "${FLEET_PORT}")"
FLEET_TOP_JSON="$(./build/tools/glint fleet-top --once --json \
  --port "${FLEET_PORT}")"
# Replay smoke against the same live server: 1k events over pipelined
# batched connections (depth 64, batch 64), then fleet-top must show the
# batch traffic actually landed (nonzero kEventBatch counters).
REPLAY_STATUS=0
REPLAY_OUT="$(./build/tools/glint fleet-replay --port "${FLEET_PORT}" \
  --events 1000 --conns 4 --depth 64 --batch 64 --homes 20)" || \
  REPLAY_STATUS=$?
REPLAY_TOP_OUT="$(./build/tools/glint fleet-top --once --port "${FLEET_PORT}")"
REPLAY_TOP_JSON="$(./build/tools/glint fleet-top --once --json \
  --port "${FLEET_PORT}")"
kill "${FLEET_SERVE_PID}" 2>/dev/null || true
wait "${FLEET_SERVE_PID}" 2>/dev/null || true
if [ "${REPLAY_STATUS}" -ne 0 ]; then
  echo "check.sh: fleet-replay reported errors" >&2
  printf '%s\n' "${REPLAY_OUT}" >&2
  exit 1
fi
if ! printf '%s\n' "${REPLAY_OUT}" | grep -q '"errors":0'; then
  echo "check.sh: fleet-replay REPLAY_JSON did not report zero errors" >&2
  printf '%s\n' "${REPLAY_OUT}" >&2
  exit 1
fi
if ! printf '%s\n' "${REPLAY_TOP_OUT}" | grep -q 'shards'; then
  echo "check.sh: fleet-top --once after replay did not render" >&2
  printf '%s\n' "${REPLAY_TOP_OUT}" >&2
  exit 1
fi
if ! printf '%s\n' "${REPLAY_TOP_JSON}" | \
    grep -q '"glint.fleet.server.batch_events":[1-9]'; then
  echo "check.sh: replayed batch traffic missing from fleet-top counters" >&2
  printf '%s\n' "${REPLAY_TOP_JSON}" >&2
  exit 1
fi
# One send per service round: the replay's pipelined frames share sends,
# so the server's reply writes are nonzero and at most its requests.
counter_of() {
  printf '%s\n' "${REPLAY_TOP_JSON}" | { grep -o "\"$1\":[0-9]*" || true; } |
    head -n 1 | cut -d: -f2
}
REPLY_WRITES="$(counter_of glint.fleet.server.reply_writes)"
REQUESTS="$(counter_of glint.fleet.server.requests)"
if [ -z "${REPLY_WRITES}" ] || [ -z "${REQUESTS}" ] ||
    [ "${REPLY_WRITES}" -eq 0 ] || [ "${REPLY_WRITES}" -gt "${REQUESTS}" ]; then
  echo "check.sh: reply_writes (${REPLY_WRITES:-missing}) not in" \
    "[1, requests (${REQUESTS:-missing})]" >&2
  exit 1
fi
if ! printf '%s\n' "${FLEET_TOP_OUT}" | grep -q '3 shards'; then
  echo "check.sh: fleet-top --once did not render the shard summary" >&2
  printf '%s\n' "${FLEET_TOP_OUT}" >&2
  exit 1
fi
if ! printf '%s\n' "${FLEET_TOP_OUT}" | grep -q 'qwait p50/p99'; then
  echo "check.sh: fleet-top --once did not render the stage table" >&2
  printf '%s\n' "${FLEET_TOP_OUT}" >&2
  exit 1
fi
if ! printf '%s\n' "${FLEET_TOP_JSON}" | grep -q '^STATS_JSON {'; then
  echo "check.sh: fleet-top --json did not emit STATS_JSON" >&2
  exit 1
fi
if ! printf '%s\n' "${FLEET_TOP_JSON}" | grep -q '^SERIES_JSON {'; then
  echo "check.sh: fleet-top --json did not emit SERIES_JSON" >&2
  exit 1
fi

# SIGTERM graceful-drain smoke (DESIGN.md §16) through the real CLI: serve
# durably over the wire, land replayed traffic, then SIGTERM. The process
# must drain (flush owed replies, empty the bus, snapshot) and exit 0 with
# a "drained" line — then a fresh serve on the same state dir must recover
# the replayed homes rather than starting empty.
GLINT_THREADS=2 ./build/tools/glint fleet-serve \
  --model-dir "${FAULT_SMOKE_DIR}/models" \
  --state-dir "${FAULT_SMOKE_DIR}/drain-state" --shards 3 \
  --port 0 --duration 60 >"${FAULT_SMOKE_DIR}/drain.log" &
DRAIN_PID=$!
if ! DRAIN_PORT="$(wait_for_port "${FAULT_SMOKE_DIR}/drain.log")"; then
  echo "check.sh: drain-smoke fleet-serve never reported a port" >&2
  kill "${DRAIN_PID}" 2>/dev/null || true
  exit 1
fi
./build/tools/glint fleet-replay --port "${DRAIN_PORT}" \
  --events 500 --conns 2 --depth 32 --batch 32 --homes 8 >/dev/null
kill -TERM "${DRAIN_PID}"
DRAIN_STATUS=0
wait "${DRAIN_PID}" || DRAIN_STATUS=$?
if [ "${DRAIN_STATUS}" -ne 0 ]; then
  echo "check.sh: SIGTERM drain exited ${DRAIN_STATUS}" >&2
  cat "${FAULT_SMOKE_DIR}/drain.log" >&2
  exit 1
fi
if ! grep -q 'drained' "${FAULT_SMOKE_DIR}/drain.log"; then
  echo "check.sh: SIGTERM did not produce a drained log line" >&2
  cat "${FAULT_SMOKE_DIR}/drain.log" >&2
  exit 1
fi
if ! GLINT_THREADS=2 ./build/tools/glint fleet-serve \
    --model-dir "${FAULT_SMOKE_DIR}/models" \
    --state-dir "${FAULT_SMOKE_DIR}/drain-state" --shards 3 --homes 2 \
    --hours 1 | grep -q 'recovered'; then
  echo "check.sh: drained state did not recover on the next serve" >&2
  exit 1
fi

# Dead-code audit (tools/dead_code.sh): an -O0 --gc-sections build of every
# product binary, perfbench included, plus a grep for uncalled inline
# header functions. Fails on any src/ function that no product binary uses
# and that tools/dead_code.allow does not list with a reason.
./tools/dead_code.sh

echo "check.sh: all stages passed"

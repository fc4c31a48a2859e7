#!/usr/bin/env bash
# CI gate: a fast static stage (scripts/lint.sh: the ldlb_analyze cross-TU
# analyzer — layering, determinism taint, lock discipline, cancellation
# reachability — then ldlb_lint invariant rules, header self-containment,
# clang-tidy; CI always runs it full-tree, never --changed), then build and
# run the full
# test suite twice — a plain RelWithDebInfo build with -DLDLB_WERROR=ON,
# then an AddressSanitizer+UBSan build (see LDLB_SANITIZE in the top
# CMakeLists) — plus a ThreadSanitizer pass over the concurrency-bearing
# suites with the thread pool forced wide, a bounded chaos-soak stage
# (randomized cancel/crash/env-fault/resume/fleet-kill/net-fault cycles) on
# the plain and ASan trees, a fleet-determinism stage that byte-compares
# the coordinator/worker engine's certificates across worker counts, kill-9
# histories, both checkpoint stores and a crash/resume cycle, and a
# socket-fleet stage that repeats the byte-comparison over the TCP
# transport against a live worker daemon (plus disconnect chaos, the
# certificate-log store, and the exit-4 / degradation ladder smokes), a
# certificate-log streaming stage (a Δ=20 chain built once into the
# append-only log, stream-validated in bounded memory with the peak RSS
# pinned below the fully-resident validator, format round-trips, torn-tail
# resume and env-fault injection smokes), and a perf-regression gate that
# holds the Δ=12 adversary+validate chain (simulation plus (P1) on the
# refinement kernel) within 2x of its checked-in baseline, the Δ=14 chain
# with full (P2-on) validation within 2x of the factor-graph-kernel
# baseline, the Δ=14 log render + streaming verify within 2x of the
# text-codec baseline, and the Δ=11 simulated-PO chain with full
# validation within 2x of the closed-form baseline. All stages must be
# green.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

# Chaos stage defaults: a fixed seed so CI is reproducible; override with
# LDLB_CHAOS_SEED (the harness prints the seed on start and on failure).
chaos_seed="${LDLB_CHAOS_SEED:-20140721}"

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  # Smoke-run the end-to-end demos so they cannot bit-rot: each exits
  # non-zero if its scenario (fault round-trips, crash/resume byte-identity)
  # stops holding.
  echo "== demo smoke ($dir) =="
  "$dir/examples/fault_injection_demo" > /dev/null
  "$dir/examples/crash_resume_demo" > /dev/null
}

run_chaos() {
  local dir="$1" cycles="$2"
  echo "== chaos soak ($dir, ${cycles} cycles, seed ${chaos_seed}, fleet-kill + net-fault + certlog on) =="
  # LDLB_CHAOS_KILL=1 keeps the worker-SIGKILL fleet scenario in the
  # rotation, LDLB_CHAOS_NET=1 the socket-fleet network-fault scenario, and
  # LDLB_CHAOS_CERTLOG=1 the certificate-log writer-kill scenario (plus the
  # per-cycle snapshot/log store alternation); set any to 0 to soak without
  # that interference (e.g. under a debugger).
  if ! LDLB_CHAOS_SEED="$chaos_seed" LDLB_CHAOS_CYCLES="$cycles" \
      LDLB_SLOW_CHECKS=1 \
      LDLB_CHAOS_KILL="${LDLB_CHAOS_KILL:-1}" \
      LDLB_CHAOS_NET="${LDLB_CHAOS_NET:-1}" \
      LDLB_CHAOS_CERTLOG="${LDLB_CHAOS_CERTLOG:-1}" \
      "$dir/tests/chaos_soak"; then
    echo "chaos soak failed; reproduce with LDLB_CHAOS_SEED=${chaos_seed}" >&2
    exit 1
  fi
}

# Byte-compares ldlb_fleet certificates across worker counts and kill
# histories, over the snapshot store and the append-only certificate log,
# then smokes the crash-stop/resume cycle. The kill seeds are fixed (and
# logged by the driver) so a divergence is replayable.
run_fleet_determinism() {
  local dir="$1" bin="$1/tools/fleet/ldlb_fleet"
  local tmp; tmp="$(mktemp -d)"
  echo "== fleet determinism ($dir, delta 4..10 x workers 0/1/2/4 + chaos) =="
  # Every run checkpoints into the snapshot store; Δ 6 and 8 repeat the
  # comparison over the append-only certificate log.
  local run delta store workers
  for run in 4:snapshot 5:snapshot 6:snapshot 6:log 7:snapshot 8:snapshot \
      8:log 9:snapshot 10:snapshot; do
    delta="${run%:*}" store="${run#*:}"
    "$bin" --delta "$delta" --workers 0 --"$store" "$tmp/ref.$store" \
      --print > "$tmp/ref.txt"
    for workers in 1 2 4; do
      "$bin" --delta "$delta" --workers "$workers" --"$store" "$tmp/w.$store" \
        --print > "$tmp/w.txt"
      if ! cmp -s "$tmp/ref.txt" "$tmp/w.txt"; then
        echo "fleet certificate diverged: delta $delta, $workers workers," \
          "$store store" >&2
        exit 1
      fi
    done
    "$bin" --delta "$delta" --workers 2 --kill-every-level "$((delta * 1009))" \
      --"$store" "$tmp/k.$store" --print > "$tmp/k.txt"
    if ! cmp -s "$tmp/ref.txt" "$tmp/k.txt"; then
      echo "fleet certificate diverged under kill-9 chaos at delta $delta," \
        "$store store" >&2
      exit 1
    fi
  done
  # The crash/resume smoke runs over the append-only certificate log so
  # the fleet + cert-log checkpoint path is part of the gate.
  local rc=0
  "$bin" --delta 8 --workers 2 --abort-after-level 3 \
    --log "$tmp/resume.log" > /dev/null || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "fleet crash-stop smoke: expected exit 3, got $rc" >&2
    exit 1
  fi
  "$bin" --delta 8 --workers 2 --resume --log "$tmp/resume.log" \
    --print > "$tmp/resumed.txt"
  "$bin" --delta 8 --workers 0 --snapshot "$tmp/ref.snap" \
    --print > "$tmp/ref.txt"
  if ! cmp -s "$tmp/ref.txt" "$tmp/resumed.txt"; then
    echo "fleet certificate diverged across the crash/resume cycle" >&2
    exit 1
  fi
  rm -rf "$tmp"
}

# Repeats the byte-comparison over the TCP transport: one live worker
# daemon per delta (ephemeral port, parsed from its announcement line),
# a clean socket run and a disconnect-chaos run against it, then the
# documented remote failure modes — exit 4 when a dead endpoint may not
# degrade, and the full socket→pipe fallback with reference bytes when it
# may.
run_socket_fleet_determinism() {
  local dir="$1" bin="$1/tools/fleet/ldlb_fleet"
  local tmp; tmp="$(mktemp -d)"
  echo "== socket fleet determinism ($dir, delta 4..8 + disconnect chaos + degradation smokes) =="
  local delta port daemon_pid stores store
  for delta in 4 5 6 7 8; do
    "$bin" --delta "$delta" --workers 0 --snapshot "$tmp/ref.snap" \
      --print > "$tmp/ref.txt"
    "$bin" --delta "$delta" --listen 0 > "$tmp/daemon.$delta.log" &
    daemon_pid=$!
    port=""
    for _ in $(seq 1 100); do
      port="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' \
        "$tmp/daemon.$delta.log")"
      [ -n "$port" ] && break
      sleep 0.05
    done
    if [ -z "$port" ]; then
      echo "socket fleet daemon did not announce a port (delta $delta)" >&2
      kill "$daemon_pid" 2>/dev/null || true
      exit 1
    fi
    # Δ=6 repeats both runs over the append-only certificate log.
    stores=snapshot
    [ "$delta" = 6 ] && stores="snapshot log"
    for store in $stores; do
      "$bin" --delta "$delta" --workers 2 --connect "127.0.0.1:$port" \
        --"$store" "$tmp/s.$store" --print > "$tmp/s.txt"
      if ! cmp -s "$tmp/ref.txt" "$tmp/s.txt"; then
        echo "socket fleet certificate diverged: delta $delta, $store store" >&2
        exit 1
      fi
      "$bin" --delta "$delta" --workers 2 --connect "127.0.0.1:$port" \
        --kill-every-level "$((delta * 2027))" \
        --"$store" "$tmp/sk.$store" --print > "$tmp/sk.txt"
      if ! cmp -s "$tmp/ref.txt" "$tmp/sk.txt"; then
        echo "socket fleet diverged under disconnect chaos at delta $delta," \
          "$store store" >&2
        exit 1
      fi
    done
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  done
  # A dead endpoint with degradation refused must exit 4 (remote transport
  # exhausted), the code the --help contract documents for automation.
  local rc=0
  "$bin" --delta 5 --workers 2 --connect 127.0.0.1:1 --no-degrade \
    --snapshot "$tmp/dead.snap" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 4 ]; then
    echo "socket exhaustion smoke: expected exit 4, got $rc" >&2
    exit 1
  fi
  # The same dead endpoint with degradation on must walk the ladder to the
  # pipe transport and still produce the reference bytes.
  "$bin" --delta 5 --workers 0 --snapshot "$tmp/ref.snap" \
    --print > "$tmp/ref.txt"
  "$bin" --delta 5 --workers 2 --connect 127.0.0.1:1 \
    --snapshot "$tmp/deg.snap" --print > "$tmp/deg.txt"
  if ! cmp -s "$tmp/ref.txt" "$tmp/deg.txt"; then
    echo "degraded socket fleet diverged from the reference bytes" >&2
    exit 1
  fi
  rm -rf "$tmp"
}

# Certificate-log streaming gate: one Δ=20 chain into the append-only log,
# validated with the bounded-memory streaming validator (peak RSS pinned
# below the fully-resident validator's with a 5% margin), format round-trips
# byte-compared, a torn tail resumed to the byte-identical log, and the
# env-fault injection paths pinned to the documented exit code 5.
run_certlog_stream() {
  local dir="$1" tool="$1/examples/certificate_tool"
  local fleet="$1/tools/fleet/ldlb_fleet"
  local tmp; tmp="$(mktemp -d)"
  echo "== certificate log streaming ($dir, delta 20 bounded-memory validation + torn resume + env faults) =="
  "$tool" generate --log 20 seq "$tmp/d20.log" > /dev/null
  "$tool" verify --stream 20 seq "$tmp/d20.log" > "$tmp/stream.out"
  grep -q "certificate VALID" "$tmp/stream.out"
  "$tool" convert "$tmp/d20.log" "$tmp/d20.txt" > /dev/null
  "$tool" validate 20 seq "$tmp/d20.txt" > "$tmp/resident.out"
  grep -q "certificate VALID" "$tmp/resident.out"
  local stream_kb resident_kb
  stream_kb="$(sed -n 's/^peak_rss_kb=//p' "$tmp/stream.out")"
  resident_kb="$(sed -n 's/^peak_rss_kb=//p' "$tmp/resident.out")"
  echo "   streaming peak ${stream_kb} kB vs resident ${resident_kb} kB"
  if [ -z "$stream_kb" ] || [ -z "$resident_kb" ] ||
     [ "$((stream_kb * 100))" -ge "$((resident_kb * 95))" ]; then
    echo "streaming validation peak RSS is not below the resident validator" >&2
    exit 1
  fi
  # Round-trip: log -> classic -> log reproduces the log byte for byte.
  "$tool" convert "$tmp/d20.txt" "$tmp/d20.rt.log" > /dev/null
  cmp "$tmp/d20.log" "$tmp/d20.rt.log"
  # Torn tail: cut into the last record, resume over the log, and demand
  # the repaired file byte-identical to the never-torn one.
  head -c "$(($(stat -c %s "$tmp/d20.log") - 57))" "$tmp/d20.log" \
    > "$tmp/torn.log"
  "$fleet" --delta 20 --workers 0 --resume --log "$tmp/torn.log" > /dev/null
  cmp "$tmp/d20.log" "$tmp/torn.log"
  # Injected environment faults surface as exit 5 — never as log damage
  # (the injected-truncate repair path is pinned by the chaos soak's
  # certificate-log store rotation).
  local rc op
  for op in read:eio:2:verify write:enospc:1:generate fsync:eio:1:generate; do
    rc=0
    case "$op" in
      *:verify)
        "$tool" --inject "${op%:*}" verify --stream 20 seq "$tmp/d20.log" \
          > /dev/null 2>&1 || rc=$? ;;
      *)
        "$tool" --inject "${op%:*}" generate --log 6 seq "$tmp/f.log" \
          > /dev/null 2>&1 || rc=$? ;;
    esac
    if [ "$rc" -ne 5 ]; then
      echo "env-fault injection '$op': expected exit 5, got $rc" >&2
      exit 1
    fi
  done
  # A generate interrupted by the injected fault must leave a store a clean
  # rerun repairs: the rerun starts fresh and the log then verifies.
  "$tool" generate --log 6 seq "$tmp/f.log" > /dev/null
  "$tool" verify --stream 6 seq "$tmp/f.log" > /dev/null
  rm -rf "$tmp"
}

echo "== lint =="
scripts/lint.sh

echo "== plain build =="
# Warnings are errors on the primary tree; sanitizer trees keep warnings
# advisory so a sanitizer-specific diagnostic cannot mask a real failure.
run_suite build -DLDLB_WERROR=ON

# Performance gate: the Δ=12 adversary+validate chain — simulation, and
# (P1) on the refinement kernel (cover/refinement) — must stay within 2x of
# the checked-in quiet-machine baseline (min-of-3). Catches an accidental
# return to the propagation-era costs (~10x the baseline) while leaving
# headroom for noisy CI neighbours; regenerate the baseline with
# `ldlb_perf_gate --measure` on a quiet machine after intentional changes.
echo "== perf gate (delta 12 adversary + P1 kernel) =="
build/tools/perfgate/ldlb_perf_gate scripts/perf_baseline_delta12_ms.txt
# Same protocol with (P2) loopiness on at Δ=14: the factor-graph kernel
# (cover/factor_graph) must keep full validation within 2x of its baseline.
# The map-based refinement it replaced measured ~2.4x this baseline.
echo "== perf gate (delta 14 full validation, P2 on) =="
build/tools/perfgate/ldlb_perf_gate scripts/perf_baseline_delta14_p2_ms.txt \
  --delta 14 --loopiness
# The certificate-log path at Δ=14: the chain and its log are built once,
# untimed; each rep times CertificateLog::serialize plus
# validate_certificate_log over that log (no fsync in the timed region).
# The allocation-free text codec (util/line_reader) must keep it within 2x
# of its baseline (it measured 48-76 ms with --measure); the
# istringstream/ostream codec it replaced measured 134-185 ms on the same
# box, 2.6-3.6x the baseline.
echo "== perf gate (delta 14 log render + stream verify) =="
build/tools/perfgate/ldlb_perf_gate scripts/perf_baseline_delta14_stream_ms.txt \
  --delta 14 --stream
# The simulated-PO subject, EcFromPo(ProposalPacking), at Δ=11: chain plus
# full (P2-on) validation. Its closed form (EcFromPo::evaluate_direct over
# ProposalPacking's flat offer/grant loop) must keep it within 2x of its
# baseline (it measured 30-45 ms with --measure); the message-passing
# interpreter it replaced measured 153-163 ms on the same box, 4x the
# baseline.
echo "== perf gate (delta 11 po closed form, P2 on) =="
build/tools/perfgate/ldlb_perf_gate scripts/perf_baseline_delta11_po_ms.txt \
  --delta 11 --loopiness --algorithm po
run_chaos build 25
run_fleet_determinism build
run_socket_fleet_determinism build
run_certlog_stream build

echo "== address+undefined sanitizer build =="
# Sanitized builds are slower: relax the cancel-latency assertion and run a
# shorter soak so the stage stays bounded.
LDLB_CANCEL_LATENCY_MS="${LDLB_CANCEL_LATENCY_MS:-2000}" \
  run_suite build-asan "-DLDLB_SANITIZE=address;undefined"
run_chaos build-asan 10

# ThreadSanitizer stage: the suites that exercise the thread pool (the
# parallel simulator, speculative adversary, concurrent validator, and the
# serial/parallel byte-identity tests) plus the thread-based socket
# transport suite (net_test is fork-free by design so TSan can watch the
# heartbeat/deadline threads), run with LDLB_THREADS=8 so races are
# reachable even on single-core CI machines. TSan and ASan cannot be
# combined, hence the separate build tree.
echo "== thread sanitizer build =="
cmake -B build-tsan -S . "-DLDLB_SANITIZE=thread"
cmake --build build-tsan -j "$jobs"
LDLB_THREADS=8 LDLB_SLOW_CHECKS=1 \
  LDLB_CANCEL_LATENCY_MS="${LDLB_CANCEL_LATENCY_MS:-2000}" \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
  -R 'simulator_test|full_info_test|adversary_test|certificate_test|parallel_determinism_test|cancellation_test|net_test|p1_kernel_test'

echo "CI green: lint+analyze, plain (werror), perf-gate, fleet-determinism (pipe + socket), certlog-stream, asan/ubsan, tsan, and chaos-soak stages all pass."

#!/usr/bin/env bash
# Chaos sweep for the lossy-channel layer (DESIGN.md §9): runs the
# `protocol` and `distributed` subcommands across a grid of drop/flip
# rates and asserts the two recovery invariants end to end:
#
#   1. Determinism — rerunning with the same --chaos-seed produces
#      byte-identical stdout (the fault script is a pure function of the
#      seed).
#   2. Recovery — whenever every message beats the retransmission
#      deadline, the decode line is byte-identical to the fault-free
#      baseline; the channel only ever adds transport bits.
#
# Usage: scripts/run_chaos.sh [BUILD_DIR]
#   BUILD_DIR defaults to build/; pass build-asan/ to run the sweep under
#   AddressSanitizer (run_sanitizers.sh leaves that tree behind).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}" > /dev/null
cmake --build "${build_dir}" --target dcs_cli -j"$(nproc)" > /dev/null
cli="${build_dir}/tools/dcs"
if [[ ! -x "${cli}" ]]; then
  echo "dcs CLI not found at ${cli}" >&2
  exit 1
fi

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT
failures=0

# check_case NAME BASELINE_ARGS CHAOS_ARGS
#   Runs the fault-free baseline, then the chaos run twice; asserts the
#   chaos reruns match each other byte for byte and that the first output
#   line (the decode/estimate line) matches the baseline.
check_case() {
  local name="$1" baseline_args="$2" chaos_args="$3"
  # shellcheck disable=SC2086
  "${cli}" ${baseline_args} > "${tmp_dir}/baseline.txt"
  # shellcheck disable=SC2086
  "${cli}" ${baseline_args} ${chaos_args} > "${tmp_dir}/chaos1.txt"
  # shellcheck disable=SC2086
  "${cli}" ${baseline_args} ${chaos_args} > "${tmp_dir}/chaos2.txt"
  if ! cmp -s "${tmp_dir}/chaos1.txt" "${tmp_dir}/chaos2.txt"; then
    echo "FAIL ${name}: same --chaos-seed produced different output" >&2
    diff "${tmp_dir}/chaos1.txt" "${tmp_dir}/chaos2.txt" >&2 || true
    failures=$((failures + 1))
    return
  fi
  if ! cmp -s <(head -n 1 "${tmp_dir}/baseline.txt") \
              <(head -n 1 "${tmp_dir}/chaos1.txt"); then
    echo "FAIL ${name}: recovered decode differs from fault-free baseline" >&2
    echo "  baseline: $(head -n 1 "${tmp_dir}/baseline.txt")" >&2
    echo "  chaos:    $(head -n 1 "${tmp_dir}/chaos1.txt")" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok   ${name}"
}

graph="${tmp_dir}/chaos_graph.txt"
"${cli}" generate --type dumbbell --n 16 --k 3 --out "${graph}" > /dev/null

# 64 rounds of selective repeat make delivery overwhelmingly likely at
# every rate in the grid, so the recovery invariant must hold.
for drop in 0.05 0.2 0.4; do
  for flip in 0.0 0.1; do
    chaos="--chaos-seed 11 --chaos-drop ${drop} --chaos-flip ${flip} \
--chaos-rounds 64"
    check_case "protocol/foreach drop=${drop} flip=${flip}" \
      "protocol --kind foreach --probes 16 --seed 4" "${chaos}"
    check_case "protocol/forall drop=${drop} flip=${flip}" \
      "protocol --kind forall --trials 4 --seed 4" "${chaos}"
    check_case "distributed drop=${drop} flip=${flip}" \
      "distributed --in ${graph} --servers 3 --seed 5" "${chaos}"
  done
done

# Past-deadline loss must degrade, not crash: everything drops and only
# two rounds are allowed, so every server is lost and the run reports
# kUnavailable through exit code 1 (never a signal).
set +e
"${cli}" distributed --in "${graph}" --servers 3 --seed 5 \
  --chaos-seed 11 --chaos-drop 1.0 --chaos-rounds 2 \
  > /dev/null 2> "${tmp_dir}/stderr.txt"
status=$?
set -e
if [[ ${status} -ne 1 ]]; then
  echo "FAIL all-lost: expected exit 1, got ${status}" >&2
  cat "${tmp_dir}/stderr.txt" >&2
  failures=$((failures + 1))
else
  echo "ok   all-lost degrades to exit 1 (no crash)"
fi

# Process-kill chaos for the multi-process serving tier (DESIGN.md §14):
# real dcs_server worker processes under SIGKILL at a 20% per-tick rate
# with R=2 replication. The subcommand exits non-zero if any completed
# answer differs from the single-process oracle by a single bit, if any
# loss surfaces as something other than kUnavailable/kResourceExhausted,
# or if no batch completes at all.
#
# check_soak NAME EXTRA_ARGS
#   Runs the soak with EXTRA_ARGS appended and gates on exit 0.
check_soak() {
  local name="$1" extra_args="$2"
  set +e
  # shellcheck disable=SC2086
  "${cli}" cluster --workers 4 --replication 2 --clients 2 \
    --kill-rate 0.2 --kill-interval-ms 5 --respawn-delay-ms 5 --seed 11 \
    ${extra_args} > "${tmp_dir}/cluster.txt" 2>&1
  local status=$?
  set -e
  if [[ ${status} -ne 0 ]]; then
    echo "FAIL ${name}: exit ${status}" >&2
    cat "${tmp_dir}/cluster.txt" >&2
    failures=$((failures + 1))
  else
    echo "ok   ${name} ($(grep -m 1 '^kills' "${tmp_dir}/cluster.txt"); \
answers bit-identical)"
  fi
}

check_soak "cluster soak @20% SIGKILL, R=2" "--batches 200"
# The same soak over store-backed workers: every respawn warm-loads its
# predecessor's store and clients reattach, with kills landing mid-persist
# and the final shutdown taking the drain path. 1000 batches per client
# leave time for a dozen or so kills, so reattach really runs.
check_soak "store-backed cluster soak @20% SIGKILL, R=2" \
  "--batches 1000 --store-root ${tmp_dir}/stores"

if [[ ${failures} -ne 0 ]]; then
  echo "chaos sweep: ${failures} failure(s)" >&2
  exit 1
fi
echo "chaos sweep: OK"

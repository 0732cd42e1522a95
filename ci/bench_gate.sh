#!/usr/bin/env bash
# Release gate on the benchmark's two 1M-user workloads, run at full scale
# through benchmark/run.sh (at least 3 timed runs each, no traced pass).
# Each workload's last output line, a JSON object, must report
# correct: true (determinism and the Eq. (10) energy sums held in every
# run), failed: 0, and a peak RSS at or below the workload's ceiling.
# Timing is deliberately not gated: a same-runner A/B of one commit
# against itself does not come out clean, so throughput stays an uploaded
# artifact and speedups are claimed with the 10-pair protocol of
# benchmark/README.md.
#
#   bash ci/bench_gate.sh [OUT]    # JSON lines go to OUT (bench_1m_ci.jsonl)
#
# Exits 0 when both workloads pass, 1 otherwise.
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out=${1:-bench_1m_ci.jsonl}
: >"$out"

# Peak-RSS ceilings in MiB: 1.15x (the peak_rss_mib bound in BENCHMARK.json)
# the medians measured on x86-64 Linux with GCC, seed 1, after the run was
# digested only once the driver's per-user state is freed, the server-gap
# trace was recorded once and stream arrival laws were read from the fleet
# arena: 377.1 (online, 10 runs; 484.5 before) and 592.7 (offline, 10 runs
# at seed 3, 592.6 at seed 1; 650.4 before). Raise a ceiling only with a
# change that explains its footprint.
status=0
for gate in fleet_1m_online:434 fleet_1m_offline:682; do
  workload=${gate%%:*}
  ceiling=${gate#*:}
  log=$(mktemp)
  bash benchmark/run.sh --workload "$workload" --seconds 1 --trace 0 >"$log"
  cat "$log"
  line=$(tail -n 1 "$log")
  rm -f "$log"
  printf '%s\n' "$line" >>"$out"
  # An empty line (the build failed) must fail too: jq -e accepts no input.
  if [[ -z $line ]] || ! jq -e --argjson ceiling "$ceiling" \
       '.correct == true and .failed == 0 and
        .metrics.peak_rss_mib.value <= $ceiling' <<<"$line" >/dev/null; then
    echo "bench_gate: $workload failed: want correct, 0 failed runs and" \
         "peak_rss_mib <= $ceiling; got: $line" >&2
    status=1
  fi
done
exit "$status"

#!/usr/bin/env bash
# Build fedco (the tier-1 Release build into build/), compile the benchmark
# harness against the layer libraries, and run it. Every argument passes
# through to fedco_bench:
#
#   bash benchmark/run.sh                          all workloads, 5 repeats
#   bash benchmark/run.sh --smoke                  shrunk workloads, < 30 s
#   bash benchmark/run.sh --workload fleet_100k --seed 2 --seconds 10 --trace 0
#   bash benchmark/run.sh --compare BASE.json CAND.json
#
# Build output goes to build/benchmark/build.log, so the last line of
# standard output is the benchmark's own.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out=build/benchmark
mkdir -p "$out"
jobs=$(nproc 2>/dev/null || echo 4)
(( jobs > 4 )) && jobs=4

if ! { cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
       cmake --build build -j "$jobs"; } >"$out/build.log" 2>&1; then
  tail -n 20 "$out/build.log" >&2
  echo "run.sh: build failed; full log in $out/build.log" >&2
  exit 1
fi

# Link every layer library inside one group, so a library added later needs
# no edit here.
bin=$out/fedco_bench
libs=(build/libfedco_*.a)
stale=0
[[ -x $bin && ! benchmark/fedco_bench.cpp -nt $bin ]] || stale=1
for lib in "${libs[@]}"; do
  [[ $lib -nt $bin ]] && stale=1
done
if (( stale )); then
  if ! "${CXX:-c++}" -std=c++20 -O3 -DNDEBUG -Wall -Wextra -Isrc \
       benchmark/fedco_bench.cpp \
       -Wl,--start-group "${libs[@]}" -Wl,--end-group -pthread \
       -o "$bin.tmp" 2>"$out/compile.log"; then
    cat "$out/compile.log" >&2
    echo "run.sh: compiling fedco_bench failed" >&2
    exit 1
  fi
  mv "$bin.tmp" "$bin"
fi

export FEDCO_JOBS=1
exec "$bin" "$@"

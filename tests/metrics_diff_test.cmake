# tools/metrics_diff behaviour test, run via ctest:
#   1. Identical documents exit 0 and report zero out-of-tolerance metrics.
#   2. A numeric delta beyond tolerance exits 1 and prints a DIFF row with
#      the dotted path.
#   3. The same pair passes (exit 0) once a per-prefix --tol covers it, and
#      the longest matching prefix wins over a coarser one.
#   4. A key present on only one side exits 1 with a MISSING notice.
#   5. --ignore suppresses a whole subtree (exit 0).
#   6. Malformed JSON exits 2 (usage/IO contract for CI).
# The production-path archive checks live in ci_archive_test.cmake.
# Invoked as: cmake -DMETRICS_DIFF=<binary> -P metrics_diff_test.cmake

if(NOT DEFINED METRICS_DIFF)
  message(FATAL_ERROR "METRICS_DIFF (path to the metrics_diff binary) not set")
endif()

set(work_dir ${CMAKE_CURRENT_BINARY_DIR}/metrics_diff_test_docs)
file(MAKE_DIRECTORY ${work_dir})

# A small result-shaped document: config (ignored by default), scalars,
# a nested block and an array.
file(WRITE ${work_dir}/base.json
"{\"config\":{\"seed\":1},\"energy_j\":{\"total\":1000.5,\"idle\":20.25},\
\"queues\":{\"avg_q\":3.5,\"avg_h\":120.0},\
\"traces\":{\"G\":{\"t\":[0,10],\"v\":[0.5,0.625]}},\"label\":\"run\"}\n")

# 1. Identical documents -> exit 0, zero out of tolerance.
execute_process(
  COMMAND ${METRICS_DIFF} --baseline ${work_dir}/base.json
          --candidate ${work_dir}/base.json
  OUTPUT_VARIABLE same_out ERROR_VARIABLE same_err RESULT_VARIABLE same_rc
)
if(NOT same_rc EQUAL 0)
  message(FATAL_ERROR "identical documents exited ${same_rc}:\n${same_out}${same_err}")
endif()
if(NOT same_out MATCHES "0 out of tolerance")
  message(FATAL_ERROR "identical documents reported diffs:\n${same_out}")
endif()

# 2. queues.avg_q drifts by 0.5 and traces.G.v[1] by 1e-7 -> exit 1 with
#    DIFF rows naming the dotted paths.
file(WRITE ${work_dir}/drift.json
"{\"config\":{\"seed\":2},\"energy_j\":{\"total\":1000.5,\"idle\":20.25},\
\"queues\":{\"avg_q\":4.0,\"avg_h\":120.0},\
\"traces\":{\"G\":{\"t\":[0,10],\"v\":[0.5,0.6250001]}},\"label\":\"run\"}\n")
execute_process(
  COMMAND ${METRICS_DIFF} --baseline ${work_dir}/base.json
          --candidate ${work_dir}/drift.json
  OUTPUT_VARIABLE drift_out ERROR_VARIABLE drift_err RESULT_VARIABLE drift_rc
)
if(NOT drift_rc EQUAL 1)
  message(FATAL_ERROR "drifted document exited ${drift_rc} (want 1):\n${drift_out}${drift_err}")
endif()
if(NOT drift_out MATCHES "DIFF +queues\\.avg_q")
  message(FATAL_ERROR "queues.avg_q drift was not reported:\n${drift_out}")
endif()
if(NOT drift_out MATCHES "DIFF +traces\\.G\\.v\\[1\\]")
  message(FATAL_ERROR "traces.G.v[1] drift was not reported:\n${drift_out}")
endif()
# The config difference (seed 1 vs 2) must NOT appear: ignored by default.
if(drift_out MATCHES "config")
  message(FATAL_ERROR "config subtree was compared despite the default ignore:\n${drift_out}")
endif()

# 3. Per-prefix tolerances absorb both drifts -> exit 0. The specific
#    "queues.avg_q" prefix (0.6) must win over the coarser "queues" (0.1).
execute_process(
  COMMAND ${METRICS_DIFF} --baseline ${work_dir}/base.json
          --candidate ${work_dir}/drift.json
          --tol "queues=0.1,queues.avg_q=0.6,traces.G=1e-6"
  OUTPUT_VARIABLE tol_out ERROR_VARIABLE tol_err RESULT_VARIABLE tol_rc
)
if(NOT tol_rc EQUAL 0)
  message(FATAL_ERROR "per-prefix tolerances exited ${tol_rc} (want 0):\n${tol_out}${tol_err}")
endif()

# 4. A candidate missing energy_j.idle (and growing a new key) -> exit 1
#    with MISSING notices on both sides.
file(WRITE ${work_dir}/missing.json
"{\"config\":{\"seed\":1},\"energy_j\":{\"total\":1000.5,\"network\":7.0},\
\"queues\":{\"avg_q\":3.5,\"avg_h\":120.0},\
\"traces\":{\"G\":{\"t\":[0,10],\"v\":[0.5,0.625]}},\"label\":\"run\"}\n")
execute_process(
  COMMAND ${METRICS_DIFF} --baseline ${work_dir}/base.json
          --candidate ${work_dir}/missing.json
  OUTPUT_VARIABLE miss_out ERROR_VARIABLE miss_err RESULT_VARIABLE miss_rc
)
if(NOT miss_rc EQUAL 1)
  message(FATAL_ERROR "missing-key document exited ${miss_rc} (want 1):\n${miss_out}${miss_err}")
endif()
if(NOT miss_out MATCHES "energy_j\\.idle +MISSING in candidate")
  message(FATAL_ERROR "dropped key was not reported MISSING in candidate:\n${miss_out}")
endif()
if(NOT miss_out MATCHES "energy_j\\.network +MISSING in baseline")
  message(FATAL_ERROR "grown key was not reported MISSING in baseline:\n${miss_out}")
endif()

# 5. --ignore suppresses the whole energy_j subtree -> exit 0.
execute_process(
  COMMAND ${METRICS_DIFF} --baseline ${work_dir}/base.json
          --candidate ${work_dir}/missing.json --ignore energy_j
  OUTPUT_VARIABLE ign_out ERROR_VARIABLE ign_err RESULT_VARIABLE ign_rc
)
if(NOT ign_rc EQUAL 0)
  message(FATAL_ERROR "--ignore energy_j exited ${ign_rc} (want 0):\n${ign_out}${ign_err}")
endif()

# 6. Malformed JSON -> exit 2 (distinct from "diffs found").
file(WRITE ${work_dir}/broken.json "{\"config\":{\"seed\":1,}\n")
execute_process(
  COMMAND ${METRICS_DIFF} --baseline ${work_dir}/base.json
          --candidate ${work_dir}/broken.json
  OUTPUT_VARIABLE bad_out ERROR_VARIABLE bad_err RESULT_VARIABLE bad_rc
)
if(NOT bad_rc EQUAL 2)
  message(FATAL_ERROR "malformed JSON exited ${bad_rc} (want 2):\n${bad_out}${bad_err}")
endif()

message(STATUS "metrics_diff behaviour test passed")

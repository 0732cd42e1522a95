# tools/bench_check behaviour test, run via ctest:
#   1. A candidate matching the baseline exits 0 and prints OK rows.
#   2. A candidate with a >20% slots/sec drop exits 1 and prints FAIL.
#   3. One identity rule: a row's identity is users, horizon, scheduler
#      and every other non-metric field. Rows pair only with an identical
#      row (a regressed tagged row FAILs while its differently-tagged
#      sibling stays OK), and a row whose tags changed prints SKIP + NEW,
#      never FAIL, however far its throughput moved.
#   4. Rows present on only one side degrade to SKIP/NEW notices.
#   5. A fleet whose "rng" tag flipped (legacy <-> stream) SKIPs both its
#      timing and RSS rows under the same rule.
#   6. A fleet whose process_peak_rss_mib grew beyond --max-rss-growth-pct
#      exits 1 with a FAIL row; growth inside the tolerance stays OK.
# Invoked as: cmake -DBENCH_CHECK=<binary> -P bench_check_test.cmake

if(NOT DEFINED BENCH_CHECK)
  message(FATAL_ERROR "BENCH_CHECK (path to the bench_check binary) not set")
endif()

set(work_dir ${CMAKE_CURRENT_BINARY_DIR}/bench_check_test_docs)
file(MAKE_DIRECTORY ${work_dir})

# Two-row baseline: an online and an offline row.
file(WRITE ${work_dir}/baseline.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")

# 1. Identical candidate -> exit 0, OK rows.
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/baseline.json
  OUTPUT_VARIABLE ok_out ERROR_VARIABLE ok_err RESULT_VARIABLE ok_rc
)
if(NOT ok_rc EQUAL 0)
  message(FATAL_ERROR "identical documents exited ${ok_rc}:\n${ok_out}${ok_err}")
endif()
if(NOT ok_out MATCHES "OK")
  message(FATAL_ERROR "identical documents printed no OK row:\n${ok_out}")
endif()

# 2. Regressed plain row -> exit 1, FAIL.
file(WRITE ${work_dir}/regressed.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":2.0,\"slots_per_sec\":300.0,\"user_slots_per_sec\":30000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/regressed.json
  OUTPUT_VARIABLE bad_out ERROR_VARIABLE bad_err RESULT_VARIABLE bad_rc
)
if(NOT bad_rc EQUAL 1)
  message(FATAL_ERROR "70% regression exited ${bad_rc} (want 1):\n${bad_out}${bad_err}")
endif()
if(NOT bad_out MATCHES "FAIL")
  message(FATAL_ERROR "regression printed no FAIL row:\n${bad_out}")
endif()

# 3. One identity rule. Per-tag pairing: the regressed folded row FAILs
#    while the identical sweep row stays OK. Tag changes: the events-on
#    row re-measured with an extra tag, and the churn-aware row
#    re-measured with a knapsack_grid tag and a 90% drop, each print
#    SKIP + NEW and never FAIL -> exactly one FAIL row, exit 1.
file(WRITE ${work_dir}/tags_base.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0,\"g_mode\":\"sweep\"},\
{\"scheduler\":\"Online\",\"seconds\":0.4,\"slots_per_sec\":1250.0,\"user_slots_per_sec\":125000.0,\"updates\":5,\"energy_kj\":1.0,\"g_mode\":\"folded\"},\
{\"scheduler\":\"Immediate\",\"seconds\":0.5,\"slots_per_sec\":900.0,\"user_slots_per_sec\":90000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Immediate\",\"seconds\":0.6,\"slots_per_sec\":850.0,\"user_slots_per_sec\":85000.0,\"updates\":5,\"energy_kj\":1.0,\"events\":true},\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Offline\",\"seconds\":0.6,\"slots_per_sec\":750.0,\"user_slots_per_sec\":75000.0,\"updates\":5,\"energy_kj\":1.0,\"churn_aware\":true}\
]}]}\n")
file(WRITE ${work_dir}/tags_cand.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0,\"g_mode\":\"sweep\"},\
{\"scheduler\":\"Online\",\"seconds\":4.0,\"slots_per_sec\":125.0,\"user_slots_per_sec\":12500.0,\"updates\":5,\"energy_kj\":1.0,\"g_mode\":\"folded\"},\
{\"scheduler\":\"Immediate\",\"seconds\":0.5,\"slots_per_sec\":900.0,\"user_slots_per_sec\":90000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Immediate\",\"seconds\":6.0,\"slots_per_sec\":85.0,\"user_slots_per_sec\":8500.0,\"updates\":5,\"energy_kj\":1.0,\"events\":true,\"planner\":\"serial\"},\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Offline\",\"seconds\":6.0,\"slots_per_sec\":75.0,\"user_slots_per_sec\":7500.0,\"updates\":5,\"energy_kj\":1.0,\"churn_aware\":true,\"knapsack_grid\":500}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/tags_base.json
          --candidate ${work_dir}/tags_cand.json
  OUTPUT_VARIABLE tags_out ERROR_VARIABLE tags_err RESULT_VARIABLE tags_rc
)
if(NOT tags_rc EQUAL 1)
  message(FATAL_ERROR "regressed folded row exited ${tags_rc} (want 1):\n${tags_out}${tags_err}")
endif()
string(REGEX MATCHALL "FAIL" tags_fails "${tags_out}")
list(LENGTH tags_fails tags_fail_count)
if(NOT tags_fail_count EQUAL 1 OR NOT tags_out MATCHES "FAIL  100 users x 600 slots / Online \\[g_mode=folded\\]")
  message(FATAL_ERROR "want exactly one FAIL, on the folded row:\n${tags_out}")
endif()
foreach(want
    "OK    100 users x 600 slots / Online \\[g_mode=sweep\\]"
    "OK    100 users x 600 slots / Immediate: "
    "OK    100 users x 600 slots / Offline: "
    "SKIP  100 users x 600 slots / Immediate \\[events=true\\]"
    "NEW   100 users x 600 slots / Immediate \\[events=true planner=serial\\]"
    "SKIP  100 users x 600 slots / Offline \\[churn_aware=true\\]"
    "NEW   100 users x 600 slots / Offline \\[churn_aware=true knapsack_grid=500\\]")
  if(NOT tags_out MATCHES "${want}")
    message(FATAL_ERROR "missing '${want}':\n${tags_out}")
  endif()
endforeach()

# 4. A candidate missing a baseline row (and adding a new one) degrades to
#    SKIP + NEW notices while the shared rows still gate -> exit 0.
file(WRITE ${work_dir}/regrown.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0}\
]},\
{\"num_users\":200,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":900.0,\"user_slots_per_sec\":180000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/regrown.json
  OUTPUT_VARIABLE grow_out ERROR_VARIABLE grow_err RESULT_VARIABLE grow_rc
)
if(NOT grow_rc EQUAL 0)
  message(FATAL_ERROR "grid growth exited ${grow_rc} (want 0):\n${grow_out}${grow_err}")
endif()
if(NOT grow_out MATCHES "SKIP" OR NOT grow_out MATCHES "NEW")
  message(FATAL_ERROR "grid growth printed no SKIP/NEW notices:\n${grow_out}")
endif()

# 5. The baseline fleet re-measured under the stream RNG layout must SKIP
#    every row of that fleet (timing and RSS), even with cratered numbers.
#    A second untagged fleet keeps the comparison non-empty -> exit 0.
file(WRITE ${work_dir}/rng_base.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"rng\":\"legacy\",\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0}\
]},\
{\"num_users\":200,\"horizon_slots\":600,\"rng\":\"legacy\",\"wall_seconds\":1.0,\"process_peak_rss_mib\":12.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":900.0,\"user_slots_per_sec\":180000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")
file(WRITE ${work_dir}/rng_flipped.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"rng\":\"stream\",\"wall_seconds\":9.0,\"process_peak_rss_mib\":90.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":5.0,\"slots_per_sec\":100.0,\"user_slots_per_sec\":10000.0,\"updates\":5,\"energy_kj\":1.0}\
]},\
{\"num_users\":200,\"horizon_slots\":600,\"rng\":\"legacy\",\"wall_seconds\":1.0,\"process_peak_rss_mib\":12.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":900.0,\"user_slots_per_sec\":180000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/rng_base.json
          --candidate ${work_dir}/rng_flipped.json
  OUTPUT_VARIABLE rng_out ERROR_VARIABLE rng_err RESULT_VARIABLE rng_rc
)
if(NOT rng_rc EQUAL 0)
  message(FATAL_ERROR "rng-flipped fleet exited ${rng_rc} (want 0 — mode change is not a regression):\n${rng_out}${rng_err}")
endif()
if(NOT rng_out MATCHES "SKIP  100 users x 600 slots / Online \\[rng=legacy\\]"
   OR NOT rng_out MATCHES "SKIP  100 users x 600 slots \\[rng=legacy\\] / peak RSS")
  message(FATAL_ERROR "rng-flipped fleet was not SKIPped:\n${rng_out}")
endif()
if(rng_out MATCHES "FAIL")
  message(FATAL_ERROR "rng-flipped fleet FAILed instead of SKIPping:\n${rng_out}")
endif()

# 6a. Peak RSS grown beyond the default 50% tolerance -> exit 1, FAIL,
#     even though every timing row is unchanged.
file(WRITE ${work_dir}/bloated.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":30.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/bloated.json
  OUTPUT_VARIABLE rss_out ERROR_VARIABLE rss_err RESULT_VARIABLE rss_rc
)
if(NOT rss_rc EQUAL 1)
  message(FATAL_ERROR "tripled peak RSS exited ${rss_rc} (want 1):\n${rss_out}${rss_err}")
endif()
if(NOT rss_out MATCHES "FAIL.*peak RSS")
  message(FATAL_ERROR "tripled peak RSS printed no FAIL row:\n${rss_out}")
endif()

# 6b. The same candidate passes when the operator widens the tolerance.
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/bloated.json --max-rss-growth-pct 300
  OUTPUT_VARIABLE wide_out ERROR_VARIABLE wide_err RESULT_VARIABLE wide_rc
)
if(NOT wide_rc EQUAL 0)
  message(FATAL_ERROR "widened RSS tolerance exited ${wide_rc} (want 0):\n${wide_out}${wide_err}")
endif()
if(NOT wide_out MATCHES "OK.*peak RSS")
  message(FATAL_ERROR "widened RSS tolerance printed no OK RSS row:\n${wide_out}")
endif()

message(STATUS "bench_check behaviour test passed")

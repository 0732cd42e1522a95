# Production-path archive contract, run via ctest. Three runs are archived
# with fedco_sim --save-result and compared by tools/metrics_diff at
# --abs-tol 1e-6 against archives committed under ci/, which were captured
# before the folded G(t) engine became the only one (the per-slot sweep
# under online, the lazy epsilon chain under offline):
#   1. the CI grid: online, 200 users x 3000 slots, arrival-p 0.002;
#   2. examples/scenarios/churn.json with 20% upload drops under online;
#   3. the same under offline.
# The engines differ by floating-point associativity only, so G/H drift
# stays far below 1e-6; every decision, update, drop, session and energy
# value must match, and any integer change (>= 1) trips the gate.
# Every committed ci/*.json document also reloads through
# fedco_sim --config <archive> --save-config: the retired engine switches
# it carries (folded_gap_accrual, online_batch_decide,
# pregenerate_streams) load, and the saved config writes none of them.
# Invoked as: cmake -DFEDCO_SIM=<binary> -DMETRICS_DIFF=<binary>
#             -DFEDCO_SOURCE=<repo root> -P ci_archive_test.cmake

foreach(var FEDCO_SIM METRICS_DIFF FEDCO_SOURCE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

set(work_dir ${CMAKE_CURRENT_BINARY_DIR}/ci_archive_test_docs)
file(MAKE_DIRECTORY ${work_dir})
set(churn ${FEDCO_SOURCE}/examples/scenarios/churn.json)

function(check_archive name)
  set(archive ${work_dir}/${name}.json)
  execute_process(
    COMMAND ${FEDCO_SIM} ${ARGN} --save-result ${archive}
    RESULT_VARIABLE run_rc OUTPUT_QUIET ERROR_VARIABLE run_err
  )
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${name}: fedco_sim exited ${run_rc}:\n${run_err}")
  endif()
  execute_process(
    COMMAND ${METRICS_DIFF} --baseline ${FEDCO_SOURCE}/ci/${name}.json
            --candidate ${archive} --abs-tol 1e-6
    OUTPUT_VARIABLE diff_out ERROR_VARIABLE diff_err RESULT_VARIABLE diff_rc
  )
  if(NOT diff_rc EQUAL 0 OR NOT diff_out MATCHES "0 out of tolerance")
    message(FATAL_ERROR
      "${name}: archive drifted beyond 1e-6 (${diff_rc}):\n${diff_out}${diff_err}")
  endif()
endfunction()

check_archive(online_archive --scheduler online --users 200 --horizon 3000
              --arrival-p 0.002 --seed 42)
check_archive(churn_online_archive --scenario ${churn} --scheduler online
              --drop-p 0.2 --seed 42)
check_archive(churn_offline_archive --scenario ${churn} --scheduler offline
              --drop-p 0.2 --seed 42)

file(GLOB archives ${FEDCO_SOURCE}/ci/*.json)
list(LENGTH archives archive_count)
if(archive_count LESS 5)
  message(FATAL_ERROR "expected the ci/*.json archives, found: ${archives}")
endif()
foreach(archive ${archives})
  get_filename_component(name ${archive} NAME_WE)
  set(saved ${work_dir}/${name}-config.json)
  execute_process(
    COMMAND ${FEDCO_SIM} --config ${archive} --save-config ${saved}
    RESULT_VARIABLE reload_rc OUTPUT_QUIET ERROR_VARIABLE reload_err
  )
  if(NOT reload_rc EQUAL 0)
    message(FATAL_ERROR
      "${name}: --config reload exited ${reload_rc}:\n${reload_err}")
  endif()
  file(READ ${saved} saved_text)
  foreach(key folded_gap_accrual online_batch_decide pregenerate_streams)
    if(saved_text MATCHES "\"${key}\"")
      message(FATAL_ERROR "${name}: the saved config still writes ${key}")
    endif()
  endforeach()
endforeach()

message(STATUS "ci archive contract passed")

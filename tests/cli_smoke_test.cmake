# CLI smoke test, run via ctest:
#   1. `fedco_sim --help` must exit 0 and print a usage string.
#   2. A tiny 60-slot online run must exit 0 and print a non-empty result.
#   3. --save-config / --config round-trip: a saved scenario reloads to the
#      byte-identical config and reproduces the byte-identical result
#      document of the flag-built run.
#   4. An unrecognised option (a probable typo) must exit non-zero.
#   5. The shipped example scenario specs (incl. the fault-injection
#      examples: regional_outage, congested_evenings, commute,
#      trace_replay) run green via --scenario; the --save-result archive
#      of a scenario run reloads through --config to the byte-identical
#      result document.
#   6. Observability: --events streams a parseable JSONL file and leaves
#      the result document byte-identical to the events-off run;
#      --save-summary writes a summary artifact; an unopenable events path
#      exits non-zero; --save-result with --replications archives one
#      document per replication.
#   7. Trace-driven fleets: a missing or malformed --arrival-trace-dir,
#      and a missing or malformed single trace (arrival_trace_path in a
#      --config file, --arrival-trace, including a bad first row that
#      no "slot" column marks as a header and an app index with trailing
#      junk), or a directory given as the single trace, is rejected up
#      front with exit 2 and a path-bearing message.
#   8. A malformed --config (a bad per_user entry) or --scenario file
#      exits 2, and stderr names both the file and the field (also for an
#      out-of-range per_user arrival law or a scenario horizon past
#      2^31 - 1 slots); --arrival-p outside [0, 1]
#      exits 2 naming the flag.
#   9. Out-of-range run knobs (epsilon, record_interval,
#      offline_window_slots, horizon_slots, offline_lb, V, lb,
#      upload_drop_probability, min_soc_to_train, num_users,
#      decision_interval_slots, decision_eval_seconds, eta, beta, the
#      thermal model's max_slowdown and cooling_fraction_per_s, and a
#      slot_seconds too short for the longest training session) exit 2
#      before the run starts: in a --config file naming file and field, as
#      a flag naming the flag. So do the usage errors (--replications 0,
#      --jobs -1, --events-sample without --events or below 1, --events
#      with several replications), naming the flag.
#  10. A flag that takes a value exits 2 naming the flag when the value is
#      missing (`--scenario --scheduler offline`, a bare `--V`) or
#      malformed (`--users abc`, `--scheduler bogus`, `--horizon 1e3`); a
#      value that follows no flag exits 2 naming it; a subnormal value
#      (`--epsilon 1e-310`) and a signed one (`--V +5`) run.
#  11. Flag-built configs save to pinned bytes: the defaults, one command
#      line that sets every config-bound flag, and the flag-only rules
#      (--min-soc implies --battery; real LeNet-small gets the 16x16
#      dataset).
# Invoked as: cmake -DFEDCO_SIM=<binary> -DFEDCO_SCENARIOS=<dir>
#             -P cli_smoke_test.cmake

if(NOT DEFINED FEDCO_SIM)
  message(FATAL_ERROR "FEDCO_SIM (path to the fedco_sim binary) not set")
endif()
if(NOT DEFINED FEDCO_SCENARIOS)
  message(FATAL_ERROR "FEDCO_SCENARIOS (examples/scenarios dir) not set")
endif()

execute_process(
  COMMAND ${FEDCO_SIM} --help
  OUTPUT_VARIABLE help_out
  ERROR_VARIABLE help_err
  RESULT_VARIABLE help_rc
)
if(NOT help_rc EQUAL 0)
  message(FATAL_ERROR "fedco_sim --help exited with ${help_rc}:\n${help_out}${help_err}")
endif()
string(STRIP "${help_out}${help_err}" help_all)
if(help_all STREQUAL "")
  message(FATAL_ERROR "fedco_sim --help produced no output")
endif()

execute_process(
  COMMAND ${FEDCO_SIM} --scheduler online --horizon 60 --users 4 --seed 7
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err
  RESULT_VARIABLE run_rc
)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "fedco_sim 60-slot online run exited with ${run_rc}:\n${run_out}${run_err}")
endif()
string(STRIP "${run_out}" run_stripped)
if(run_stripped STREQUAL "")
  message(FATAL_ERROR "fedco_sim 60-slot online run produced no result output")
endif()

# --- 3. config round-trip -------------------------------------------------
set(work_dir ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_roundtrip)
file(MAKE_DIRECTORY ${work_dir})
set(flags --scheduler online --horizon 120 --users 4 --seed 11 --V 8000)

execute_process(
  COMMAND ${FEDCO_SIM} ${flags} --save-config ${work_dir}/scenario.json
  RESULT_VARIABLE save_rc OUTPUT_QUIET ERROR_QUIET
)
if(NOT save_rc EQUAL 0)
  message(FATAL_ERROR "fedco_sim --save-config exited with ${save_rc}")
endif()

execute_process(
  COMMAND ${FEDCO_SIM} ${flags} --json ${work_dir}/from_flags.json
  RESULT_VARIABLE flags_rc OUTPUT_QUIET ERROR_QUIET
)
execute_process(
  COMMAND ${FEDCO_SIM} --config ${work_dir}/scenario.json
          --json ${work_dir}/from_config.json
  RESULT_VARIABLE config_rc OUTPUT_QUIET ERROR_QUIET
)
if(NOT flags_rc EQUAL 0 OR NOT config_rc EQUAL 0)
  message(FATAL_ERROR "round-trip runs exited with ${flags_rc}/${config_rc}")
endif()

file(READ ${work_dir}/from_flags.json from_flags)
file(READ ${work_dir}/from_config.json from_config)
if(NOT from_flags STREQUAL from_config)
  message(FATAL_ERROR "--config run did not reproduce the flag-built result")
endif()

# The saved config must also reload to the byte-identical config.
execute_process(
  COMMAND ${FEDCO_SIM} --config ${work_dir}/scenario.json
          --save-config ${work_dir}/scenario2.json
  RESULT_VARIABLE resave_rc OUTPUT_QUIET ERROR_QUIET
)
file(READ ${work_dir}/scenario.json scenario1)
file(READ ${work_dir}/scenario2.json scenario2)
if(NOT resave_rc EQUAL 0 OR NOT scenario1 STREQUAL scenario2)
  message(FATAL_ERROR "saved config did not reload to an identical config")
endif()

# --- 4. probable typos are fatal -------------------------------------------
execute_process(
  COMMAND ${FEDCO_SIM} --horizons 60 --users 4
  RESULT_VARIABLE typo_rc
  ERROR_VARIABLE typo_err
  OUTPUT_QUIET
)
if(typo_rc EQUAL 0)
  message(FATAL_ERROR "fedco_sim accepted the unknown option --horizons")
endif()
string(FIND "${typo_err}" "horizons" typo_mentioned)
if(typo_mentioned EQUAL -1)
  message(FATAL_ERROR "unknown-option error did not name the flag:\n${typo_err}")
endif()

# --- 5. example scenarios ---------------------------------------------------
foreach(spec churn heterogeneous_fleet global_diurnal homogeneous_paper
        regional_outage congested_evenings commute trace_replay vip_priority)
  execute_process(
    COMMAND ${FEDCO_SIM} --scenario ${FEDCO_SCENARIOS}/${spec}.json
            --scheduler online
    RESULT_VARIABLE spec_rc
    OUTPUT_VARIABLE spec_out
    ERROR_VARIABLE spec_err
  )
  if(NOT spec_rc EQUAL 0)
    message(FATAL_ERROR
      "fedco_sim --scenario ${spec}.json exited with ${spec_rc}:\n${spec_out}${spec_err}")
  endif()
endforeach()

# The churn-aware mode over the VIP fleet: the flag must parse, apply to
# both schedulers' configs, and run the priority fleet end to end.
foreach(sched offline online)
  execute_process(
    COMMAND ${FEDCO_SIM} --scenario ${FEDCO_SCENARIOS}/vip_priority.json
            --scheduler ${sched} --churn-aware
    RESULT_VARIABLE aware_rc
    OUTPUT_VARIABLE aware_out
    ERROR_VARIABLE aware_err
  )
  if(NOT aware_rc EQUAL 0)
    message(FATAL_ERROR
      "fedco_sim --churn-aware (${sched}) exited with ${aware_rc}:\n${aware_out}${aware_err}")
  endif()
endforeach()

# A --save-result archive of a scenario run embeds the expanded per-user
# config, so replaying the archive through --config reproduces the
# byte-identical result document.
execute_process(
  COMMAND ${FEDCO_SIM} --scenario ${FEDCO_SCENARIOS}/churn.json
          --scheduler offline --save-result ${work_dir}/scenario_archive.json
  RESULT_VARIABLE archive_rc OUTPUT_QUIET ERROR_QUIET
)
execute_process(
  COMMAND ${FEDCO_SIM} --config ${work_dir}/scenario_archive.json
          --save-result ${work_dir}/scenario_replay.json
  RESULT_VARIABLE replay_rc OUTPUT_QUIET ERROR_QUIET
)
if(NOT archive_rc EQUAL 0 OR NOT replay_rc EQUAL 0)
  message(FATAL_ERROR "scenario archive runs exited with ${archive_rc}/${replay_rc}")
endif()
file(READ ${work_dir}/scenario_archive.json archive_doc)
file(READ ${work_dir}/scenario_replay.json replay_doc)
if(NOT archive_doc STREQUAL replay_doc)
  message(FATAL_ERROR "--config replay of a scenario archive did not reproduce the run")
endif()

# --- 6. observability -------------------------------------------------------
# The event stream must not perturb the run: the --json documents of an
# events-on and an events-off invocation are byte-identical.
set(obs_flags --scheduler immediate --horizon 200 --users 6 --arrival-p 0.02
    --seed 3)
execute_process(
  COMMAND ${FEDCO_SIM} ${obs_flags} --json ${work_dir}/obs_off.json
  RESULT_VARIABLE obs_off_rc OUTPUT_QUIET ERROR_QUIET
)
execute_process(
  COMMAND ${FEDCO_SIM} ${obs_flags} --json ${work_dir}/obs_on.json
          --events ${work_dir}/events.jsonl --events-sample 2
          --save-summary ${work_dir}/summary.json
  RESULT_VARIABLE obs_on_rc OUTPUT_QUIET ERROR_QUIET
)
if(NOT obs_off_rc EQUAL 0 OR NOT obs_on_rc EQUAL 0)
  message(FATAL_ERROR "observability runs exited with ${obs_off_rc}/${obs_on_rc}")
endif()
file(READ ${work_dir}/obs_off.json obs_off_doc)
file(READ ${work_dir}/obs_on.json obs_on_doc)
if(NOT obs_off_doc STREQUAL obs_on_doc)
  message(FATAL_ERROR "--events perturbed the result document")
endif()
file(READ ${work_dir}/events.jsonl events_doc)
if(NOT events_doc MATCHES "\"e\":\"decision\"")
  message(FATAL_ERROR "event stream contains no decision events:\n${events_doc}")
endif()
file(READ ${work_dir}/summary.json summary_doc)
if(NOT summary_doc MATCHES "\"counts\"" OR NOT summary_doc MATCHES "\"timing\"")
  message(FATAL_ERROR "summary artifact is missing counts/timing:\n${summary_doc}")
endif()

# An unopenable events path is a hard error, not a silently dropped stream.
execute_process(
  COMMAND ${FEDCO_SIM} ${obs_flags}
          --events ${work_dir}/no-such-dir/events.jsonl
  RESULT_VARIABLE bad_events_rc ERROR_VARIABLE bad_events_err OUTPUT_QUIET
)
if(bad_events_rc EQUAL 0)
  message(FATAL_ERROR "fedco_sim accepted an unopenable --events path")
endif()
if(NOT bad_events_err MATCHES "events")
  message(FATAL_ERROR "unopenable --events error did not name the stream:\n${bad_events_err}")
endif()

# Campaigns archive one document per replication (out-r<k>.json).
execute_process(
  COMMAND ${FEDCO_SIM} ${obs_flags} --replications 2
          --save-result ${work_dir}/campaign.json
  RESULT_VARIABLE camp_rc OUTPUT_QUIET ERROR_QUIET
)
if(NOT camp_rc EQUAL 0)
  message(FATAL_ERROR "--save-result with --replications exited ${camp_rc}")
endif()
foreach(k 0 1)
  if(NOT EXISTS ${work_dir}/campaign-r${k}.json)
    message(FATAL_ERROR "campaign archive campaign-r${k}.json was not written")
  endif()
endforeach()

# --- 7. trace-dir failures --------------------------------------------------
# A missing trace directory fails fast (before the fleet is built) with
# exit 2 and an error naming the offending path.
execute_process(
  COMMAND ${FEDCO_SIM} --scheduler online --horizon 60 --users 4
          --arrival-trace-dir ${work_dir}/no-such-traces
  RESULT_VARIABLE no_dir_rc ERROR_VARIABLE no_dir_err OUTPUT_QUIET
)
if(NOT no_dir_rc EQUAL 2)
  message(FATAL_ERROR
    "missing --arrival-trace-dir exited ${no_dir_rc} (want 2):\n${no_dir_err}")
endif()
if(NOT no_dir_err MATCHES "no-such-traces")
  message(FATAL_ERROR
    "missing trace-dir error did not name the path:\n${no_dir_err}")
endif()

# A malformed trace CSV inside the directory is just as fatal, and the
# message pinpoints file and line.
set(bad_trace_dir ${work_dir}/bad_traces)
file(MAKE_DIRECTORY ${bad_trace_dir})
file(WRITE ${bad_trace_dir}/bad.csv "slot,app\n-5,Map\n")
execute_process(
  COMMAND ${FEDCO_SIM} --scheduler online --horizon 60 --users 4
          --arrival-trace-dir ${bad_trace_dir}
  RESULT_VARIABLE bad_csv_rc ERROR_VARIABLE bad_csv_err OUTPUT_QUIET
)
if(NOT bad_csv_rc EQUAL 2)
  message(FATAL_ERROR
    "malformed trace CSV exited ${bad_csv_rc} (want 2):\n${bad_csv_err}")
endif()
if(NOT bad_csv_err MATCHES "bad.csv")
  message(FATAL_ERROR
    "malformed trace-CSV error did not name the file:\n${bad_csv_err}")
endif()

# The single shared trace is preflighted the same way: a missing file
# named by a --config document, and a bad slot in a --arrival-trace file.
file(WRITE ${work_dir}/missing_trace.json
  "{\"num_users\":3,\"horizon_slots\":100,"
  "\"arrival_trace_path\":\"${work_dir}/no-such-trace.csv\"}\n")
execute_process(
  COMMAND ${FEDCO_SIM} --config ${work_dir}/missing_trace.json
  RESULT_VARIABLE no_trace_rc ERROR_VARIABLE no_trace_err OUTPUT_QUIET
)
if(NOT no_trace_rc EQUAL 2 OR NOT no_trace_err MATCHES "no-such-trace.csv")
  message(FATAL_ERROR
    "missing arrival_trace_path exited ${no_trace_rc} (want 2, naming the "
    "path):\n${no_trace_err}")
endif()
# Only a slot column named "slot" makes line 1 a header, so a malformed
# first data row fails as well; the app column is as strict as the slot
# column ("3x" is not app 3).
file(WRITE ${work_dir}/bad_trace.csv "slot,app\n12x,map\n")
file(WRITE ${work_dir}/bad_first_row.csv "12x,map\n")
file(WRITE ${work_dir}/bad_app.csv "slot,app\n5,3x\n")
foreach(trace bad_trace.csv bad_first_row.csv bad_app.csv)
  execute_process(
    COMMAND ${FEDCO_SIM} --scheduler online --horizon 60 --users 4
            --arrival-trace ${work_dir}/${trace}
    RESULT_VARIABLE bad_trace_rc ERROR_VARIABLE bad_trace_err OUTPUT_QUIET
  )
  if(NOT bad_trace_rc EQUAL 2 OR NOT bad_trace_err MATCHES "${trace}")
    message(FATAL_ERROR
      "malformed --arrival-trace ${trace} exited ${bad_trace_rc} (want 2, "
      "naming the file):\n${bad_trace_err}")
  endif()
endforeach()

# A directory is not a trace file, as a flag or as arrival_trace_path in a
# --config document: it fails naming the path instead of replaying nothing.
file(WRITE ${work_dir}/dir_trace.json
  "{\"num_users\":3,\"horizon_slots\":100,"
  "\"arrival_trace_path\":\"${bad_trace_dir}\"}\n")
foreach(source flag config)
  if(source STREQUAL "flag")
    set(dir_trace_args --scheduler online --horizon 60 --users 4
                       --arrival-trace ${bad_trace_dir})
  else()
    set(dir_trace_args --config ${work_dir}/dir_trace.json)
  endif()
  execute_process(
    COMMAND ${FEDCO_SIM} ${dir_trace_args}
    RESULT_VARIABLE dir_trace_rc ERROR_VARIABLE dir_trace_err OUTPUT_QUIET
  )
  if(NOT dir_trace_rc EQUAL 2 OR NOT dir_trace_err MATCHES "bad_traces")
    message(FATAL_ERROR
      "a directory as the single trace (${source}) exited ${dir_trace_rc} "
      "(want 2, naming the path):\n${dir_trace_err}")
  endif()
endforeach()

# --- 8. malformed --config / --scenario files -------------------------------
file(WRITE ${work_dir}/bad_per_user.json
  "{\"num_users\":2,\"per_user\":[{},{\"priority\":-1.0}]}\n")
file(WRITE ${work_dir}/bad_scenario.json
  "{\"num_users\":4,\"priority\":{\"vip_fraction\":1.5}}\n")
file(WRITE ${work_dir}/bad_arrival_law.json
  "{\"num_users\":3,\"per_user\":[{},{},{\"arrival_probability\":4}]}\n")
file(WRITE ${work_dir}/bad_scenario_horizon.json
  "{\"num_users\":4,\"horizon_slots\":3000000000}\n")
foreach(bad "--config;bad_per_user.json;per_user\\[1\\]\\.priority"
            "--scenario;bad_scenario.json;priority\\.vip_fraction"
            "--config;bad_arrival_law.json;per_user\\[2\\]\\.arrival_probability"
            "--scenario;bad_scenario_horizon.json;horizon_slots")
  list(GET bad 0 flag)
  list(GET bad 1 file)
  list(GET bad 2 field)
  execute_process(
    COMMAND ${FEDCO_SIM} ${flag} ${work_dir}/${file} --horizon 60
    RESULT_VARIABLE bad_rc ERROR_VARIABLE bad_err OUTPUT_QUIET
  )
  if(NOT bad_rc EQUAL 2)
    message(FATAL_ERROR "malformed ${flag} file exited ${bad_rc} (want 2):\n${bad_err}")
  endif()
  if(NOT bad_err MATCHES "${file}" OR NOT bad_err MATCHES "${field}")
    message(FATAL_ERROR
      "malformed ${flag} error did not name file and field:\n${bad_err}")
  endif()
endforeach()

execute_process(
  COMMAND ${FEDCO_SIM} --arrival-p 7 --horizon 60 --users 2
  RESULT_VARIABLE bad_p_rc ERROR_VARIABLE bad_p_err OUTPUT_QUIET
)
if(NOT bad_p_rc EQUAL 2 OR NOT bad_p_err MATCHES "--arrival-p")
  message(FATAL_ERROR
    "--arrival-p 7 exited ${bad_p_rc} (want 2, naming the flag):\n${bad_p_err}")
endif()

# --- 9. out-of-range run knobs ---------------------------------------------
foreach(bad "epsilon;-1" "record_interval;0" "offline_window_slots;0"
            "horizon_slots;0" "offline_lb;-5" "V;-1" "lb;-5"
            "upload_drop_probability;2" "min_soc_to_train;5" "num_users;0"
            "decision_interval_slots;0" "decision_interval_slots;-4"
            "decision_eval_seconds;-1" "horizon_slots;3000000000" "eta;0"
            "eta;-1" "beta;1.5" "beta;-0.1")
  list(GET bad 0 field)
  list(GET bad 1 value)
  file(WRITE ${work_dir}/bad_${field}.json
    "{\"scheduler\":\"offline\",\"horizon_slots\":60,\"${field}\":${value}}\n")
  execute_process(
    COMMAND ${FEDCO_SIM} --config ${work_dir}/bad_${field}.json
    RESULT_VARIABLE knob_rc ERROR_VARIABLE knob_err OUTPUT_QUIET
  )
  if(NOT knob_rc EQUAL 2 OR NOT knob_err MATCHES "bad_${field}\\.json"
     OR NOT knob_err MATCHES "'${field}'")
    message(FATAL_ERROR
      "${field}: ${value} in --config exited ${knob_rc} (want 2, naming file and field):\n${knob_err}")
  endif()
endforeach()

# A slowdown that would size the lag index past memory and a negative
# cooling rate that makes the thermal model diverge, both with the model on.
foreach(bad "max_slowdown;1e300" "cooling_fraction_per_s;-1")
  list(GET bad 0 field)
  list(GET bad 1 value)
  file(WRITE ${work_dir}/bad_thermal_${field}.json
    "{\"num_users\":2,\"horizon_slots\":300,\"enable_thermal\":true,\"thermal\":{\"${field}\":${value}}}\n")
  execute_process(
    COMMAND ${FEDCO_SIM} --config ${work_dir}/bad_thermal_${field}.json
    RESULT_VARIABLE knob_rc ERROR_VARIABLE knob_err OUTPUT_QUIET
  )
  if(NOT knob_rc EQUAL 2 OR NOT knob_err MATCHES "bad_thermal_${field}\\.json"
     OR NOT knob_err MATCHES "'thermal\\.${field}'")
    message(FATAL_ERROR
      "thermal.${field}: ${value} in --config exited ${knob_rc} (want 2, naming file and field):\n${knob_err}")
  endif()
endforeach()

# A slot so short that the longest training session spans more than
# 2^31 - 1 slots, so its slot count would overflow an int64 cast.
file(WRITE ${work_dir}/tiny_slot.json
  "{\"num_users\":3,\"horizon_slots\":100,\"slot_seconds\":1e-300}\n")
execute_process(
  COMMAND ${FEDCO_SIM} --config ${work_dir}/tiny_slot.json
  RESULT_VARIABLE knob_rc ERROR_VARIABLE knob_err OUTPUT_QUIET
)
if(NOT knob_rc EQUAL 2 OR NOT knob_err MATCHES "tiny_slot\\.json"
   OR NOT knob_err MATCHES "'slot_seconds'")
  message(FATAL_ERROR
    "slot_seconds: 1e-300 in --config exited ${knob_rc} (want 2, naming file and field):\n${knob_err}")
endif()

foreach(bad "--epsilon;-1" "--offline-window;0" "--horizon;0" "--offline-Lb;-5"
            "--V;nan" "--V;-1" "--Lb;-5" "--Lb;nan" "--drop-p;2" "--drop-p;-1"
            "--min-soc;5;--battery" "--users;-5" "--decision-interval;-3"
            "--horizon;3000000000" "--eta;nan" "--eta;-1" "--beta;1.5"
            "--beta;nan" "--replications;0" "--jobs;-1" "--events-sample;5"
            "--events-sample;0;--events;${work_dir}/usage.jsonl"
            "--events;${work_dir}/usage.jsonl;--replications;2")
  list(GET bad 0 flag)
  list(SUBLIST bad 1 -1 value)
  execute_process(
    COMMAND ${FEDCO_SIM} --scheduler offline --horizon 60 ${flag} ${value}
    RESULT_VARIABLE knob_rc ERROR_VARIABLE knob_err OUTPUT_QUIET
  )
  if(NOT knob_rc EQUAL 2 OR NOT knob_err MATCHES "${flag}")
    message(FATAL_ERROR
      "${flag} ${value} exited ${knob_rc} (want 2, naming the flag):\n${knob_err}")
  endif()
endforeach()

# --- 10. missing and malformed flag values ---------------------------------
# A bare value flag used to be ignored (`--scenario --scheduler offline` ran
# the default fleet), and a malformed number or token exited 1 naming
# nothing but `stoll`. Both are input errors now.
foreach(flag --scenario --config --V --users --json --save-result
             --save-summary --save-config --events --csv-dir --arrival-trace
             --arrival-trace-dir --scheduler --device --seed --replications)
  execute_process(
    COMMAND ${FEDCO_SIM} ${flag} --horizon 60
    RESULT_VARIABLE bare_rc ERROR_VARIABLE bare_err OUTPUT_QUIET
  )
  if(NOT bare_rc EQUAL 2 OR NOT bare_err MATCHES "${flag}: needs a value")
    message(FATAL_ERROR
      "bare ${flag} exited ${bare_rc} (want 2, naming the flag):\n${bare_err}")
  endif()
endforeach()

foreach(bad "--users;abc" "--users;99999999999999999999" "--horizon;1e3"
            "--V;4x" "--arrival-p;1e999" "--scheduler;bogus" "--device;foo"
            "--model;resnet" "--aggregation;mean" "--diurnal;maybe"
            "--jobs;two")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  execute_process(
    COMMAND ${FEDCO_SIM} --horizon 60 --users 2 ${flag} ${value}
    RESULT_VARIABLE bad_value_rc ERROR_VARIABLE bad_value_err OUTPUT_QUIET
  )
  if(NOT bad_value_rc EQUAL 2 OR NOT bad_value_err MATCHES "${flag}: ")
    message(FATAL_ERROR
      "${flag} ${value} exited ${bad_value_rc} (want 2, naming the flag):\n"
      "${bad_value_err}")
  endif()
endforeach()

# Every number the JSON config loader accepts is a flag value too, a
# subnormal included; an explicit plus sign parses as well.
foreach(good "--epsilon;1e-310" "--V;+5")
  list(GET good 0 flag)
  list(GET good 1 value)
  execute_process(
    COMMAND ${FEDCO_SIM} --horizon 60 --users 2 ${flag} ${value}
    RESULT_VARIABLE good_value_rc ERROR_VARIABLE good_value_err OUTPUT_QUIET
  )
  if(NOT good_value_rc EQUAL 0)
    message(FATAL_ERROR
      "${flag} ${value} exited ${good_value_rc} (want 0):\n${good_value_err}")
  endif()
endforeach()

# A value no flag takes (say, a scenario file given without --scenario)
# used to be dropped silently, running the default fleet.
execute_process(
  COMMAND ${FEDCO_SIM} --horizon 60 --users 2 stray_scenario.json
  RESULT_VARIABLE stray_rc ERROR_VARIABLE stray_err OUTPUT_QUIET
)
if(NOT stray_rc EQUAL 2 OR NOT stray_err MATCHES "stray_scenario\\.json")
  message(FATAL_ERROR
    "a stray argument exited ${stray_rc} (want 2, naming it):\n${stray_err}")
endif()

# --- 11. flag-built configs save to pinned bytes ----------------------------
# Hashes of --save-config documents; the trace paths are relative so the
# bytes do not depend on the build directory.
set(pin_dir ${work_dir}/pinned)
file(MAKE_DIRECTORY ${pin_dir}/traces)
file(WRITE ${pin_dir}/trace.csv "slot,app\n5,Map\n")
file(WRITE ${pin_dir}/traces/a.csv "slot,app\n7,Map\n")
set(pin_args_every_flag --scheduler offline --users 7 --horizon 321 --arrival-p 0.004
    --diurnal --arrival-trace trace.csv --arrival-trace-dir traces
    --device pixel2 --seed 9 --V 123.5 --Lb 77 --epsilon 0.07
    --decision-interval 3 --offline-window 50 --offline-Lb 900 --churn-aware
    --eta 0.03 --beta 0.8 --real-training --model mlp --aggregation fedasync
    --thermal --battery --min-soc 0.2 --drop-p 0.1)
set(pin_args_flag_rules --real-training --min-soc 0.3)
foreach(pin
    "defaults|7cb62f4ce65e0ab1d606105b91fefbc3582f448e825864f99dece245fef139aa"
    "every_flag|9482f877512ffa731745368f31529382d82335a98b3c7ce33ac3233510db2036"
    "flag_rules|4531e97e07c68ea4cdde1df7dacc678044abb53e354b69b8381698bbeb92b18f")
  string(REPLACE "|" ";" pin "${pin}")
  list(GET pin 0 name)
  list(GET pin 1 want)
  execute_process(
    COMMAND ${FEDCO_SIM} ${pin_args_${name}} --save-config ${name}.json
    WORKING_DIRECTORY ${pin_dir}
    RESULT_VARIABLE pin_rc ERROR_VARIABLE pin_err OUTPUT_QUIET
  )
  if(NOT pin_rc EQUAL 0)
    message(FATAL_ERROR "--save-config (${name}) exited ${pin_rc}:\n${pin_err}")
  endif()
  file(SHA256 ${pin_dir}/${name}.json got)
  if(NOT got STREQUAL want)
    file(READ ${pin_dir}/${name}.json pin_doc)
    message(FATAL_ERROR
      "--save-config (${name}) hashes to ${got}, pinned ${want}:\n${pin_doc}")
  endif()
endforeach()

message(STATUS "cli_smoke_test OK")

# CLI docs test, run via ctest: README's CLI reference must list exactly
# the flags `fedco_sim --help` prints, in the same order and sections, with
# the same metavars and defaults. --help is generated from the CLI's flag
# table, so this keeps the hand-written README table in step with it.
#
# Each flag reduces to one entry "<section>|--<flag> <METAVAR>|<default>",
# where a flag without a default (a path) reads "—" on both sides.
# Invoked as: cmake -DFEDCO_SIM=<binary> -DFEDCO_README=<README.md>
#             -P cli_docs_test.cmake

if(NOT DEFINED FEDCO_SIM OR NOT DEFINED FEDCO_README)
  message(FATAL_ERROR "FEDCO_SIM and FEDCO_README must be set")
endif()

# CMake lists split on ';' and keep '[...]' together, so both documents
# lose those characters before they are split into lines.
function(lines_of text out)
  string(REGEX REPLACE "[][;]" "_" text "${text}")
  string(REPLACE "\n" ";" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

# --- --help ----------------------------------------------------------------
execute_process(
  COMMAND ${FEDCO_SIM} --help
  OUTPUT_VARIABLE help_out ERROR_VARIABLE help_err RESULT_VARIABLE help_rc
)
if(NOT help_rc EQUAL 0)
  message(FATAL_ERROR "fedco_sim --help exited ${help_rc}:\n${help_err}")
endif()
# Continuation lines are indented to column 25; joining them puts each
# flag's whole entry, "(default X)" included, on one line.
string(REPLACE "\n                         " " " help_out "${help_out}")
lines_of("${help_out}" help_lines)
set(help_flags)
set(section "")
foreach(line IN LISTS help_lines)
  if(line MATCHES "^([A-Z][A-Za-z]*):$")
    set(section "${CMAKE_MATCH_1}")
  elseif(line MATCHES "^  (--[A-Za-z-]+( [A-Z]+)?)  ")
    set(flag "${CMAKE_MATCH_1}")
    set(default "—")
    if(line MATCHES "\\(default ([^)]*)\\)$")
      set(default "${CMAKE_MATCH_1}")
    endif()
    list(APPEND help_flags "${section}|${flag}|${default}")
  endif()
endforeach()

# --- README ----------------------------------------------------------------
file(READ ${FEDCO_README} readme)
string(FIND "${readme}" "## CLI reference" begin)
if(begin EQUAL -1)
  message(FATAL_ERROR "README has no \"## CLI reference\" section")
endif()
string(SUBSTRING "${readme}" ${begin} -1 reference)
string(FIND "${reference}" "\n## " end)
string(SUBSTRING "${reference}" 0 ${end} reference)
lines_of("${reference}" readme_lines)
set(readme_flags)
set(section "")
foreach(line IN LISTS readme_lines)
  if(line MATCHES "^([A-Z][A-Za-z]*)( \\(.*\\))?:$")
    set(section "${CMAKE_MATCH_1}")
  elseif(line MATCHES "^\\| `(--[A-Za-z-]+( [A-Z]+)?)` \\| ([^|]*) \\|")
    set(flag "${CMAKE_MATCH_1}")
    string(REPLACE "`" "" default "${CMAKE_MATCH_3}")
    list(APPEND readme_flags "${section}|${flag}|${default}")
  endif()
endforeach()

if(NOT help_flags STREQUAL readme_flags)
  string(REPLACE ";" "\n  " help_list "${help_flags}")
  string(REPLACE ";" "\n  " readme_list "${readme_flags}")
  message(FATAL_ERROR
    "README's CLI reference differs from fedco_sim --help.\n"
    "--help:\n  ${help_list}\nREADME:\n  ${readme_list}")
endif()
list(LENGTH help_flags count)
if(count LESS 30)
  message(FATAL_ERROR "--help lists only ${count} flags:\n${help_out}")
endif()
message(STATUS "cli_docs_test OK (${count} flags)")

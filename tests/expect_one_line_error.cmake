# Runs PROGRAM with the ;-separated ARGS and fails unless it exits with
# status 1 and prints exactly the line EXPECT on stderr (and nothing else):
# the swarmfuzz CLI's error contract. An abort (a signal, status 134 from a
# shell) fails it.
#
#   cmake -DPROGRAM=<exe> -DARGS=<a;b> -DEXPECT=<line> -P expect_one_line_error.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1" OR NOT err STREQUAL "${EXPECT}\n")
  message(FATAL_ERROR "expected exit status 1 and stderr '${EXPECT}', got "
                      "status '${status}' and stderr '${err}'")
endif()

# Run a binary with flags it must reject, and require exit status 2
# with a usage line on stderr (the shared sweep-CLI convention).
#
#   cmake -DBIN=<binary> -DARGS=<;-list of flags> -P expect_usage_error.cmake

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT stderr MATCHES "usage:")
    message(FATAL_ERROR "${BIN} ${ARGS}: expected exit 2 with usage, "
                        "got '${rc}'\n${stderr}")
endif()

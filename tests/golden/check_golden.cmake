# Rerun one bench and byte-compare its stdout with a committed golden.
#
#   cmake -DBIN=<bench binary> [-DARGS=<;-list of flags>]
#         -DGOLDEN=<committed output> -DACTUAL=<where to keep a diff>
#         -P check_golden.cmake
#
# On a mismatch the fresh output is written to ACTUAL so the two files
# can be diffed; re-record a golden only when a change of output is
# intended, and say why in the commit.

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}\n${stderr}")
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    message(FATAL_ERROR "output of ${BIN} ${ARGS} differs from the "
                        "golden; compare with\n  diff ${GOLDEN} ${ACTUAL}")
endif()

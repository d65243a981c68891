# Runs a bench binary with `--json OUTPUT` and fails unless OUTPUT is
# byte-identical to the checked-in EXPECTED snapshot.
#
#   cmake -DBINARY=<exe> -DOUTPUT=<file> -DEXPECTED=<file> -P snapshot_test.cmake
execute_process(COMMAND ${BINARY} --json ${OUTPUT} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with status ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${EXPECTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUTPUT} differs from ${EXPECTED}")
endif()

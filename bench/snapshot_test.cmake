# Runs a bench binary and fails unless what it writes is byte-identical
# to checked-in snapshots. Two modes:
#
# JSON mode runs `BINARY --json OUTPUT` and compares OUTPUT with EXPECTED:
#
#   cmake -DBINARY=<exe> -DOUTPUT=<file> -DEXPECTED=<file> -P snapshot_test.cmake
#
# Stdout mode runs BINARY with no arguments, writes its stdout to OUTPUT,
# and compares it with GOLDEN_DIR/<exhibit>.txt for each name in EXHIBITS
# (comma separated), concatenated in that order. A mismatch names the
# first exhibit whose bytes differ:
#
#   cmake -DBINARY=<exe> -DOUTPUT=<file> -DGOLDEN_DIR=<dir>
#         -DEXHIBITS=<a,b,...> -P snapshot_test.cmake
if(DEFINED EXPECTED)
  execute_process(COMMAND ${BINARY} --json ${OUTPUT} RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BINARY} exited with status ${status}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT}
                          ${EXPECTED}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUTPUT} differs from ${EXPECTED}")
  endif()
  return()
endif()

execute_process(COMMAND ${BINARY} RESULT_VARIABLE status
                OUTPUT_FILE ${OUTPUT})
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with status ${status}")
endif()
file(READ ${OUTPUT} actual)
string(REPLACE "," ";" exhibits "${EXHIBITS}")
string(LENGTH "${actual}" actual_length)
set(offset 0)
foreach(exhibit IN LISTS exhibits)
  file(READ ${GOLDEN_DIR}/${exhibit}.txt expected)
  string(LENGTH "${expected}" length)
  math(EXPR end "${offset} + ${length}")
  set(got "")
  if(end LESS_EQUAL actual_length)
    string(SUBSTRING "${actual}" ${offset} ${length} got)
  endif()
  if(NOT got STREQUAL expected)
    message(FATAL_ERROR "${exhibit}: output differs from "
                        "${GOLDEN_DIR}/${exhibit}.txt (first differing "
                        "exhibit; the whole run is in ${OUTPUT})")
  endif()
  set(offset ${end})
endforeach()
if(NOT offset EQUAL actual_length)
  message(FATAL_ERROR "${OUTPUT} has output after the last exhibit")
endif()

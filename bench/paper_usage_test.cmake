# `paper` with an unknown exhibit name must exit 2 and list every exhibit
# in EXHIBITS (comma separated) on stderr.
#
#   cmake -DBINARY=<paper> -DEXHIBITS=<a,b,...> -P paper_usage_test.cmake
execute_process(COMMAND ${BINARY} no_such_exhibit RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "paper no_such_exhibit exited with ${status}, want 2")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "paper no_such_exhibit printed to stdout: ${out}")
endif()
string(REPLACE "," ";" exhibits "${EXHIBITS}")
foreach(exhibit IN LISTS exhibits)
  string(FIND "${err}" "  ${exhibit}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not list ${exhibit}: ${err}")
  endif()
endforeach()

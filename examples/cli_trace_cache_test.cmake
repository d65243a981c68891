# GREEN_TRACE does not depend on the transform cache: a transform-cache
# hit re-issues the charges of the chain it reuses under the same charge
# scopes, so a one-job sweep writes the same trace, byte for byte, with
# the cache on and off.
#
#   cmake -DCLI=<green_automl_cli> -DWORK_DIR=<dir> -P cli_trace_cache_test.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
foreach(cache 1 0)
  set(trace ${WORK_DIR}/trace_cache${cache}.jsonl)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env GREEN_TRACE=${trace}
                          ${CLI} --sweep caml,flaml --budgets 30 --jobs 1
                          --transform-cache ${cache}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "--transform-cache ${cache} sweep exited ${status}")
  endif()
  file(SIZE ${trace} bytes)
  if(bytes EQUAL 0)
    message(FATAL_ERROR "--transform-cache ${cache} wrote an empty trace")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/trace_cache1.jsonl
                        ${WORK_DIR}/trace_cache0.jsonl
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "GREEN_TRACE differs with the transform cache on "
                      "and off")
endif()

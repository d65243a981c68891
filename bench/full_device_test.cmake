# A bench binary whose --json write fails must say so and exit nonzero.
# /dev/full accepts buffered writes and fails the flush, which is where an
# unchecked fclose loses the error. Prints "SKIP" where there is no
# /dev/full (the test's SKIP_REGULAR_EXPRESSION).
#
#   cmake -DMICROBENCH=<microbench> -DSERVE_TRACE=<serve_trace>
#         -P full_device_test.cmake
if(NOT EXISTS /dev/full)
  message("SKIP: no /dev/full")
  return()
endif()
foreach(command
        "${MICROBENCH};--benchmark_filter=^BM_EnergyMeterOverhead$;--benchmark_min_time=0.01"
        "${SERVE_TRACE}")
  execute_process(COMMAND ${command} --json /dev/full
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "cannot write /dev/full" at)
  if(status EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "${command} --json /dev/full exited with "
                        "${status}; want nonzero and an error: ${err}")
  endif()
endforeach()

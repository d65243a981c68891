# --cell-timeout end to end, from the flag to each cell's cancel token: a
# 1 ns limit times out every cell of a 4-job sweep, none is ok, and the
# CLI exits 1 for a sweep that measured nothing.
#
#   cmake -DCLI=<green_automl_cli> -P cli_cell_timeout_test.cmake
execute_process(COMMAND ${CLI} --sweep caml,flaml --budgets 10
                        --cell-timeout 0.000000001 --jobs 4
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_QUIET)
# Failure-table rows: | system | cells | ok | failed | timeout | skipped |
string(REGEX MATCHALL "\\| (caml|flaml) +\\| 16 +\\| 0 +\\| 0 +\\| 16 +\\| 0 +\\|"
       all_timeout "${out}")
list(LENGTH all_timeout systems)
string(FIND "${out}" "sweep complete: 0/32 cells measured ok" summary)
if(NOT status EQUAL 1 OR NOT systems EQUAL 2 OR summary EQUAL -1)
  message(FATAL_ERROR "want exit 1, every cell a timeout and 0/32 cells "
                      "ok; got exit ${status}:\n${out}")
endif()

# --json in single-run mode appends the run's record and keeps whatever
# the file already holds, even a line that is not a record: a file
# starting with "garbage" ends with that line first and one record after.
#
#   cmake -DCLI=<green_automl_cli> -DWORK_DIR=<dir> -P cli_json_append_test.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(json ${WORK_DIR}/records.jsonl)
file(WRITE ${json} "garbage\n")
execute_process(COMMAND ${CLI} --system flaml --budget 5 --json ${json}
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--json run exited ${status}")
endif()
file(STRINGS ${json} lines)
list(LENGTH lines count)
list(GET lines 0 first)
if(NOT count EQUAL 2 OR NOT first STREQUAL "garbage")
  message(FATAL_ERROR "want \"garbage\" on line 1 and 2 lines in all; "
                      "got ${count} line(s), line 1: ${first}")
endif()

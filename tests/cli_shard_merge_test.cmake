# The sharded-sweep round trip, one process at a time: a single-process
# reference sweep, three --shard i/3 sweeps each journaling its slice,
# then --merge-journals, whose output must equal the reference byte for
# byte.
#
#   cmake -DCLI=<green_automl_cli> -DWORK_DIR=<dir> -P cli_shard_merge_test.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(sweep --sweep caml,flaml --budgets 10,30)
function(run)
  execute_process(COMMAND ${CLI} ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE status OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "green_automl_cli ${ARGN} exited with ${status}")
  endif()
endfunction()
run(${sweep} --jobs 1 --json single.jsonl)
foreach(i 0 1 2)
  run(${sweep} --shard ${i}/3 --jobs 2 --journal shard${i}.jsonl)
endforeach()
run(--merge-journals shard0.jsonl shard1.jsonl shard2.jsonl -o merged.jsonl)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/single.jsonl ${WORK_DIR}/merged.jsonl
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "merged shard journals differ from the single-process "
                      "sweep")
endif()

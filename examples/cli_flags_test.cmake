# Hostile flag values must stop green_automl_cli with exit code 2 and a
# message naming the flag, before any work starts; each --task and --trace
# name must reach the run as the value it names.
#
#   cmake -DCLI=<green_automl_cli> -P cli_flags_test.cmake
set(cases
  "--serve --rps nan"
  "--rps inf"
  "--trace-seconds nan"
  "--budget nan"
  "--budget -5"
  "--retries x"
  "--serve-policy bogus"
  "--trace tsunami"
  "--transform-cache yes")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  list(GET args -2 flag)
  execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE status
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "'${case}' exited with ${status}, want 2")
  endif()
  string(FIND "${err}" "${flag}:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${case}': stderr does not name ${flag}: ${err}")
  endif()
endforeach()

# Flags|stdout line the run must print.
set(accepted
  "--task binary|features, 2 classes)"
  "--task multiclass|features, 3 classes)"
  "--task regression|features, regression)"
  "--serve --trace-seconds 2 --trace constant|trace             : constant ("
  "--serve --trace-seconds 2 --trace diurnal|trace             : diurnal ("
  "--serve --trace-seconds 2 --trace burst|trace             : burst (")
foreach(case IN LISTS accepted)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 extra)
  list(GET parts 1 want)
  separate_arguments(args UNIX_COMMAND "--budget 1 ${extra}")
  execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${out}" "${want}" at)
  if(NOT status EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "'${extra}' exited with ${status} without "
                        "'${want}':\n${out}${err}")
  endif()
endforeach()

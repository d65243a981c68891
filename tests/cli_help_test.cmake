# README.md's knob table (between the knobs:begin/end markers) must be
# exactly the output of `green_automl_cli --help`, which exits 0.
#
#   cmake -DCLI=<green_automl_cli> -DREADME=<README.md> -P cli_help_test.cmake
execute_process(COMMAND ${CLI} --help RESULT_VARIABLE status
                OUTPUT_VARIABLE help)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--help exited with ${status}")
endif()
file(READ ${README} readme)
set(begin_marker "<!-- knobs:begin -->\n")
string(FIND "${readme}" "${begin_marker}" begin)
string(FIND "${readme}" "<!-- knobs:end -->" end)
if(begin EQUAL -1 OR end EQUAL -1)
  message(FATAL_ERROR "${README} lacks the knobs:begin/end markers")
endif()
string(LENGTH "${begin_marker}" marker_length)
math(EXPR begin "${begin} + ${marker_length}")
math(EXPR length "${end} - ${begin}")
string(SUBSTRING "${readme}" ${begin} ${length} table)
if(NOT table STREQUAL help)
  message(FATAL_ERROR "${README}'s knob table differs from --help; paste "
                      "the output of `green_automl_cli --help` between "
                      "the markers")
endif()

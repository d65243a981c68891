# Every GREEN_* variable is read through the knob table, so getenv( may
# appear in src/, examples/ and bench/ only in src/green/common/knobs.cc.
#
#   cmake -DROOT=<repository root> -P single_getenv.cmake
file(GLOB_RECURSE files ${ROOT}/src/* ${ROOT}/examples/* ${ROOT}/bench/*)
set(offenders "")
foreach(file IN LISTS files)
  if(file STREQUAL "${ROOT}/src/green/common/knobs.cc")
    continue()
  endif()
  file(STRINGS ${file} hits REGEX "getenv\\(")
  if(hits)
    list(APPEND offenders ${file})
  endif()
endforeach()
if(offenders)
  message(FATAL_ERROR "getenv( outside common/knobs.cc: ${offenders}")
endif()

# Run TOOL with ARGS (a single space-separated string) and require the
# exact exit code EXPECTED. Plain ctest entries can only distinguish
# zero from non-zero (WILL_FAIL), so the metrics_diff exit-code contract
# (0 ok / 1 mismatch / 2 usage / 3 baseline missing / 4 candidate
# missing) is asserted through this script. Optional EXPECT_STDOUT and
# EXPECT_STDERR are comma-separated lists of substrings stdout or stderr
# must each contain; optional FORBID_OUTPUT lists substrings neither may
# contain.
if(NOT DEFINED TOOL OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "run_exitcode.cmake: TOOL and EXPECTED are required")
endif()
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${arg_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL ${EXPECTED})
  message(FATAL_ERROR
    "${TOOL} ${ARGS}: expected exit ${EXPECTED}, got ${rc}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
string(REPLACE "," ";" wanted "${EXPECT_STDOUT}")
foreach(w IN LISTS wanted)
  string(FIND "${out}" "${w}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${TOOL} ${ARGS}: stdout lacks '${w}'\n"
      "stdout:\n${out}")
  endif()
endforeach()
string(REPLACE "," ";" wanted "${EXPECT_STDERR}")
foreach(w IN LISTS wanted)
  string(FIND "${err}" "${w}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${TOOL} ${ARGS}: stderr lacks '${w}'\n"
      "stderr:\n${err}")
  endif()
endforeach()
string(REPLACE "," ";" forbidden "${FORBID_OUTPUT}")
foreach(w IN LISTS forbidden)
  string(FIND "${out}${err}" "${w}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${TOOL} ${ARGS}: output mentions '${w}'\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
endforeach()

# Configure, build and ctest the suite with -DGPUDDT_SANITIZE=ON (ASan +
# UBSan) in a nested build tree. Invoked by the sanitize_suite CTest entry
# (gated behind GPUDDT_CI_TESTS).
#
# cmake -DSRC_DIR=... -DBIN_DIR=... -P run_sanitize.cmake

if(NOT SRC_DIR OR NOT BIN_DIR)
  message(FATAL_ERROR "run_sanitize.cmake: SRC_DIR and BIN_DIR required")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SRC_DIR} -B ${BIN_DIR}
          -DGPUDDT_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sanitize configure failed")
endif()

include(ProcessorCount)
ProcessorCount(NPROC)
if(NPROC EQUAL 0)
  set(NPROC 4)
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BIN_DIR} -j ${NPROC}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sanitize build failed")
endif()

execute_process(
  COMMAND ctest --test-dir ${BIN_DIR} --output-on-failure -j ${NPROC}
          -E sanitize_suite
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sanitize test run failed")
endif()

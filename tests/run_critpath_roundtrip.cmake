# Round-trip + determinism check for the critical-path profiler: run the
# fig9 benchmark twice with --trace-out (a chrome array), feed both traces
# through trace_critpath, and require
#   - overlap efficiency in (0, 1] on real pipeline output
#     (--check-efficiency), and
#   - the two gpuddt-critpath-v1 documents byte-identical (virtual time
#     is deterministic; docs/determinism.md).
# Invoked by the trace_critpath_roundtrip CTest entry.
#
# cmake -DBENCH=<bench_fig9 path> -DTOOL=<trace_critpath path>
#       -DWORK_DIR=<scratch dir> -P run_critpath_roundtrip.cmake

if(NOT BENCH OR NOT TOOL OR NOT WORK_DIR)
  message(FATAL_ERROR
    "run_critpath_roundtrip.cmake: BENCH, TOOL and WORK_DIR required")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})

foreach(run 1 2)
  execute_process(
    COMMAND ${BENCH} --benchmark_filter=BM_Fig9_V/1024/
            --trace-out=${WORK_DIR}/critpath_trace_${run}.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "benchmark run ${run} failed")
  endif()
  execute_process(
    COMMAND ${TOOL} --check-efficiency
            --json-out=${WORK_DIR}/critpath_${run}.json
            ${WORK_DIR}/critpath_trace_${run}.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "trace_critpath failed on run ${run} (efficiency outside (0, 1]?)")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/critpath_1.json ${WORK_DIR}/critpath_2.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "critpath reports differ between identical runs (determinism break)")
endif()

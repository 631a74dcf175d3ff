# Gate a bench's google-benchmark results against a checked-in baseline.
#
# Reduces a --benchmark_out JSON document to what a run models: each
# benchmark's name, real_time (virtual time, set with SetIterationTime),
# time_unit and user counters - every key google-benchmark does not set
# itself. cpu_time and the context block are host measurements and are
# dropped. Virtual time is deterministic, so the reduced text must match
# the baseline byte for byte. With -DWRITE=1 the reduced text is written
# to BASELINE instead (tools/regen_baselines.sh).
#
# cmake -DRESULTS=<benchmark_out json> -DBASELINE=<reduced json>
#       [-DWRITE=1] -P run_results_gate.cmake

cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT RESULTS OR NOT BASELINE)
  message(FATAL_ERROR "run_results_gate.cmake: RESULTS and BASELINE required")
endif()

# Keys google-benchmark writes for every run; the rest are user counters.
set(library_keys name family_index per_family_instance_index run_name
    run_type repetitions repetition_index threads iterations real_time
    cpu_time time_unit aggregate_name aggregate_unit error_occurred
    error_message label)

file(READ ${RESULTS} doc)
string(JSON n LENGTH "${doc}" benchmarks)
set(text "{\"benchmarks\": [")
if(n GREATER 0)
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON b GET "${doc}" benchmarks ${i})
    string(JSON name GET "${b}" name)
    string(JSON real_time GET "${b}" real_time)
    string(JSON time_unit GET "${b}" time_unit)
    set(counters "")
    string(JSON keys LENGTH "${b}")
    math(EXPR last_key "${keys} - 1")
    foreach(k RANGE ${last_key})
      string(JSON key MEMBER "${b}" ${k})
      if(NOT key IN_LIST library_keys)
        string(JSON value GET "${b}" ${key})
        string(APPEND counters "${sep}\"${key}\": ${value}")
        set(sep ", ")
      endif()
    endforeach()
    unset(sep)
    if(i GREATER 0)
      string(APPEND text ",")
    endif()
    string(APPEND text "\n  {\"name\": \"${name}\", \"real_time\": ${real_time},"
           " \"time_unit\": \"${time_unit}\", \"counters\": {${counters}}}")
  endforeach()
endif()
string(APPEND text "\n]}\n")

if(WRITE)
  file(WRITE ${BASELINE} "${text}")
  return()
endif()
if(NOT EXISTS ${BASELINE})
  message(FATAL_ERROR "baseline ${BASELINE} missing")
endif()
file(READ ${BASELINE} want)
if(NOT text STREQUAL want)
  file(WRITE ${RESULTS}.reduced "${text}")
  message(FATAL_ERROR "results differ from ${BASELINE}: compare it with "
                      "${RESULTS}.reduced")
endif()

# ssdrr_sim --bench-json must carry the same counters the text table
# prints: runs a windowed RAID-5 scenario with a failed drive and
# requires, per mechanism, the JSON "degradedReads" to equal the
# degraded(r) row's count and "executorWindowsRun" to be non-zero (the
# run executes on the windowed engine). The JSON keys are the RunStats
# field names (RunStats::forEachField).
#
# Inputs (all -D):
#   SIM_TOOL   path to the ssdrr_sim binary
#   SCENARIO   a windowed scenario with degraded reads
#   WORK_DIR   scratch directory for the JSON

foreach(var SIM_TOOL SCENARIO WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bench_json_counters.cmake: ${var} not set")
    endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(json "${WORK_DIR}/bench.json")

execute_process(
    COMMAND "${SIM_TOOL}" --scenario "${SCENARIO}" --bench-json "${json}"
    OUTPUT_VARIABLE table
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE code)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "ssdrr_sim exit ${code}\n${stderr_text}")
endif()
file(READ "${json}" bench)

string(REGEX MATCHALL "degraded\\(r\\) +- +[0-9]+" rows "${table}")
string(REGEX MATCHALL "\"degradedReads\": [0-9]+" fields "${bench}")
list(LENGTH rows n_rows)
list(LENGTH fields n_fields)
if(n_rows EQUAL 0 OR NOT n_rows EQUAL n_fields)
    message(FATAL_ERROR "expected one degraded(r) row per bench entry, "
                        "got ${n_rows} rows and ${n_fields} entries")
endif()
math(EXPR last "${n_rows} - 1")
foreach(i RANGE ${last})
    list(GET rows ${i} row)
    list(GET fields ${i} field)
    string(REGEX MATCH "[0-9]+$" printed "${row}")
    string(REGEX MATCH "[0-9]+$" written "${field}")
    if(NOT printed EQUAL written)
        message(FATAL_ERROR "entry ${i}: the table prints ${printed} "
                            "degraded reads, the bench JSON writes "
                            "${written}")
    endif()
endforeach()

string(REGEX MATCHALL "\"executorWindowsRun\": [0-9]+" windows "${bench}")
foreach(w ${windows})
    if(w MATCHES ": 0$")
        message(FATAL_ERROR "windowed run wrote ${w} to the bench JSON")
    endif()
endforeach()
message(STATUS "bench JSON counters match the text table")

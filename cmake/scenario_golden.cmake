# Result goldens for the example scenarios: the full stdout of
# `ssdrr_sim --scenario <name>.json` must be byte-identical to the
# checked-in <name>.golden next to it. Every table row is a
# deterministic simulation result, so any drift in what is simulated
# (a refactor that changes an event order, a stats fold that loses a
# field) fails here with the first differing line.
#
# Inputs (all -D):
#   SIM_TOOL   path to the ssdrr_sim binary
#   SCENARIO   one scenario .json to check against its .golden
#   UPDATE     if true, rewrite the .golden of every scenario in
#              SCENARIO_DIR instead of checking
#   SCENARIO_DIR  directory of scenarios for UPDATE mode
#
# Regenerate every golden after a deliberate result change (and say
# why in CHANGES.md):
#   cmake --build build --target update_scenario_goldens

if(NOT DEFINED SIM_TOOL)
    message(FATAL_ERROR "scenario_golden.cmake: SIM_TOOL not set")
endif()

function(run_scenario scenario out_var)
    execute_process(
        COMMAND "${SIM_TOOL}" --scenario "${scenario}"
        OUTPUT_VARIABLE stdout_text
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR
            "ssdrr_sim --scenario ${scenario}: exit ${code}\n"
            "${stderr_text}")
    endif()
    set(${out_var} "${stdout_text}" PARENT_SCOPE)
endfunction()

if(UPDATE)
    if(NOT DEFINED SCENARIO_DIR)
        message(FATAL_ERROR "scenario_golden.cmake: UPDATE needs "
                            "SCENARIO_DIR")
    endif()
    file(GLOB scenarios "${SCENARIO_DIR}/*.json")
    foreach(scenario ${scenarios})
        string(REGEX REPLACE "\\.json$" ".golden" golden "${scenario}")
        run_scenario("${scenario}" out)
        file(WRITE "${golden}" "${out}")
        message(STATUS "wrote ${golden}")
    endforeach()
    return()
endif()

if(NOT DEFINED SCENARIO)
    message(FATAL_ERROR "scenario_golden.cmake: SCENARIO not set")
endif()
string(REGEX REPLACE "\\.json$" ".golden" golden "${SCENARIO}")
if(NOT EXISTS "${golden}")
    message(FATAL_ERROR "no golden for ${SCENARIO}: expected ${golden}")
endif()
run_scenario("${SCENARIO}" actual)
file(READ "${golden}" expected)
if(NOT actual STREQUAL expected)
    # Keep the actual output (in the working directory) and show the
    # difference, so the failure is readable from the ctest log.
    get_filename_component(name "${SCENARIO}" NAME_WE)
    set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
    file(WRITE "${actual_file}" "${actual}")
    find_program(DIFF_TOOL diff)
    set(diff_text "")
    if(DIFF_TOOL)
        execute_process(COMMAND "${DIFF_TOOL}" -u "${golden}" "${actual_file}"
                        OUTPUT_VARIABLE diff_text)
    endif()
    message(FATAL_ERROR
        "${SCENARIO}: output differs from ${golden} (actual output "
        "kept in ${actual_file})\n${diff_text}"
        "After a deliberate result change: cmake --build <build> "
        "--target update_scenario_goldens")
endif()
message(STATUS "${SCENARIO}: matches ${golden}")

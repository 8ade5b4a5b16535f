# Result goldens: the full stdout of `<tool> <args>` must be
# byte-identical to a checked-in golden file. Every table row is a
# deterministic simulation result, so any drift in what is simulated
# (a refactor that changes an event order, a stats fold that loses a
# field, an error-model rewrite that moves one retry step) fails here
# with the first differing line. The cases are the example scenarios
# (`ssdrr_sim --scenario examples/scenarios/<name>.json` against
# <name>.golden), the single-SSD paper-table replays under
# tests/data/, and the default output of every paper bench
# (bench/goldens/<bench>.golden).
#
# Inputs (all -D):
#   TOOL       path to the binary to run
#   TOOL_ARGS  its arguments, one space-separated string (may be empty)
#   GOLDEN     the golden file the stdout must match
#   WORK_DIR   directory the tool runs in (relative paths in TOOL_ARGS
#              resolve against it, and stay relative in the output)
#   UPDATE     if true, rewrite GOLDEN from the run instead of checking
#
# Regenerate every golden after a deliberate result change (and say
# why in CHANGES.md):
#   cmake --build build --target update_scenario_goldens

foreach(var TOOL TOOL_ARGS GOLDEN WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "scenario_golden.cmake: ${var} not set")
    endif()
endforeach()

separate_arguments(tool_args UNIX_COMMAND "${TOOL_ARGS}")
get_filename_component(tool_name "${TOOL}" NAME)
string(STRIP "${tool_name} ${TOOL_ARGS}" run)
execute_process(
    COMMAND "${TOOL}" ${tool_args}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE actual
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE code)
if(NOT code EQUAL 0)
    message(FATAL_ERROR
        "${run}: exit ${code}\n${stderr_text}")
endif()

if(UPDATE)
    file(WRITE "${GOLDEN}" "${actual}")
    message(STATUS "wrote ${GOLDEN}")
    return()
endif()

if(NOT EXISTS "${GOLDEN}")
    message(FATAL_ERROR "no golden for ${run}: expected "
                        "${GOLDEN}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    # Keep the actual output (in the working directory of the test)
    # and show the difference, so the failure is readable from the
    # ctest log.
    get_filename_component(name "${GOLDEN}" NAME_WE)
    set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
    file(WRITE "${actual_file}" "${actual}")
    find_program(DIFF_TOOL diff)
    set(diff_text "")
    if(DIFF_TOOL)
        execute_process(COMMAND "${DIFF_TOOL}" -u "${GOLDEN}" "${actual_file}"
                        OUTPUT_VARIABLE diff_text)
    endif()
    message(FATAL_ERROR
        "${run}: output differs from ${GOLDEN} (actual "
        "output kept in ${actual_file})\n${diff_text}"
        "After a deliberate result change: cmake --build <build> "
        "--target update_scenario_goldens")
endif()
message(STATUS "${run}: matches ${GOLDEN}")

# Serve overhead gate: an observer flag (--trace-spans, --telemetry)
# must stay cheap. Run the same serve workload without and with
# FLAG (writing OUT), interleaved off, on, off, on, off, on so host
# drift lands on both sides, read each wall time from the "# serve
# wall" line the CLI prints to stderr, and fail if the best "on" run
# exceeds the best "off" run by more than 10% plus a fixed 40 ms
# allowance for small-number timing noise. Invoked as:
#   cmake -DESPSIM_CLI=<path> -DWORK_DIR=<dir> -DFLAG=<flag>
#         -DOUT=<file> -P this-file

file(MAKE_DIRECTORY ${WORK_DIR})

# Keep in best_var the smaller of its value and the wall time of one
# serve run with the extra arguments ARGN.
function(run_serve best_var)
    execute_process(
        COMMAND ${ESPSIM_CLI} serve --profile memcached
            --configs base --events 120000 ${ARGN}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET
        WORKING_DIRECTORY ${WORK_DIR})
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "espsim serve ${ARGN} failed (${rc}): ${err}")
    endif()
    string(REGEX MATCH "# serve wall ([0-9]+) ms" _ "${err}")
    if(CMAKE_MATCH_1 STREQUAL "")
        message(FATAL_ERROR "no wall-time line in serve stderr (${ARGN})")
    endif()
    if(${best_var} EQUAL 0 OR CMAKE_MATCH_1 LESS ${best_var})
        set(${best_var} ${CMAKE_MATCH_1} PARENT_SCOPE)
    endif()
endfunction()

set(off_ms 0)
set(on_ms 0)
foreach(attempt RANGE 1 3)
    run_serve(off_ms)
    run_serve(on_ms ${FLAG} ${OUT})
endforeach()

message(STATUS "serve wall: ${FLAG} off ${off_ms} ms, on ${on_ms} ms")

# on <= off * 1.10 + 40 ms, in integer milliseconds.
math(EXPR bound "${off_ms} + ${off_ms} / 10 + 40")
if(on_ms GREATER bound)
    message(FATAL_ERROR
        "${FLAG} is not cheap: the run with it took ${on_ms} ms, over "
        "the bound of ${bound} ms from the run without it")
endif()

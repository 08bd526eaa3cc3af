# Span-tracing overhead gate: --trace-spans (the core's per-event span
# build plus the worst-K sink) must stay cheap. Run the same serve
# workload with tracing off and on (best wall time of 3 runs each,
# read from the "# serve wall" line the CLI prints to stderr) and fail
# if the tracing-on time exceeds the tracing-off time by more than 10%
# plus a fixed 40 ms allowance for small-number timing noise. Invoked
# as:
#   cmake -DESPSIM_CLI=<path> -DWORK_DIR=<dir> -P this-file

file(MAKE_DIRECTORY ${WORK_DIR})

function(run_serve tag extra_args out_var)
    set(best_ms 0)
    foreach(attempt RANGE 1 3)
        execute_process(
            COMMAND ${ESPSIM_CLI} serve --profile memcached
                --configs base --events 120000 ${extra_args}
            RESULT_VARIABLE rc
            ERROR_VARIABLE err
            OUTPUT_QUIET
            WORKING_DIRECTORY ${WORK_DIR})
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "espsim serve (${tag}) failed (${rc}): ${err}")
        endif()
        string(REGEX MATCH "# serve wall ([0-9]+) ms" _ "${err}")
        if(CMAKE_MATCH_1 STREQUAL "")
            message(FATAL_ERROR
                "no wall-time line in serve stderr (${tag})")
        endif()
        if(best_ms EQUAL 0 OR CMAKE_MATCH_1 LESS best_ms)
            set(best_ms ${CMAKE_MATCH_1})
        endif()
    endforeach()
    set(${out_var} ${best_ms} PARENT_SCOPE)
endfunction()

run_serve(tracing-off "" off_ms)
run_serve(tracing-on "--trace-spans;overhead_spans.json" on_ms)

message(STATUS
    "serve wall: tracing off ${off_ms} ms, tracing on ${on_ms} ms")

# on <= off * 1.10 + 40 ms, in integer milliseconds.
math(EXPR bound "${off_ms} + ${off_ms} / 10 + 40")
if(on_ms GREATER bound)
    message(FATAL_ERROR
        "span tracing is not cheap: tracing-on wall ${on_ms} ms "
        "exceeds tracing-off bound ${bound} ms")
endif()

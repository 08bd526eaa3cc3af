# Produce the artifacts the artifact_validate / diff ctests check: a
# reduced suite sweep (one app, two configs), the Figure 8 table
# artifact, a per-event timeline, a telemetry stream, and the same
# sweep at --jobs 1 and --jobs 8 (the determinism gate diffs them; the
# --jobs 1 one is also the golden-gate candidate), via the espsim CLI
# and the fig08_hw_budget binary. Invoked as:
#   cmake -DESPSIM_CLI=<path> -DFIG08=<path> -DARTIFACT_DIR=<dir>
#         -P this-file

file(MAKE_DIRECTORY ${ARTIFACT_DIR})

# Run the command ARGN; fail the fixture if it fails.
function(produce)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        list(JOIN ARGN " " command)
        message(FATAL_ERROR "${command} failed (${rc})")
    endif()
endfunction()

produce(${ESPSIM_CLI} suite --apps amazon --configs base,NL --jobs 2
    --json ${ARTIFACT_DIR}/suite.json)

# A descriptive figure's espsim-table-artifact.
produce(${FIG08} --json ${ARTIFACT_DIR}/fig08.json)

# The thread-pool sweep promises artifacts byte-identical at any
# --jobs count; espsim diff (exact tolerance) enforces it.
foreach(jobs 1 8)
    produce(${ESPSIM_CLI} suite --apps amazon,bing --configs base,ESP+NL
        --jobs ${jobs} --json ${ARTIFACT_DIR}/suite_jobs${jobs}.json)
endforeach()

produce(${ESPSIM_CLI} run --app amazon --config ESP+NL
    --timeline ${ARTIFACT_DIR}/timeline.trace.json)

# The counter time series: a telemetry stream at a 50k-cycle pace.
# espsim_validate checks its contract (contiguous seq, monotone
# counters, one final line); plot_intervals.py draws phases from it.
produce(${ESPSIM_CLI} run --app amazon --config ESP+NL
    --telemetry ${ARTIFACT_DIR}/intervals.jsonl --telemetry-period 50000)

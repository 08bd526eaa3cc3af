# Produce the artifacts the artifact_validate / diff ctests check: a
# reduced suite sweep (one app, two configs), a per-event timeline, a
# telemetry stream, the same sweep at --jobs 1 and --jobs 8 (the determinism gate diffs
# them), and the golden-gate candidate sweep, all via the espsim CLI.
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -DARTIFACT_DIR=<dir> -P this-file

file(MAKE_DIRECTORY ${ARTIFACT_DIR})

execute_process(
    COMMAND ${ESPSIM_CLI} suite --apps amazon --configs base,NL
        --jobs 2 --json ${ARTIFACT_DIR}/suite.json
    RESULT_VARIABLE suite_rc)
if(NOT suite_rc EQUAL 0)
    message(FATAL_ERROR "espsim suite failed (${suite_rc})")
endif()

# The thread-pool sweep promises artifacts byte-identical at any
# --jobs count; espsim diff (exact tolerance) enforces it.
execute_process(
    COMMAND ${ESPSIM_CLI} suite --apps amazon,bing --configs base,ESP+NL
        --jobs 1 --json ${ARTIFACT_DIR}/suite_jobs1.json
    RESULT_VARIABLE jobs1_rc)
if(NOT jobs1_rc EQUAL 0)
    message(FATAL_ERROR "espsim suite --jobs 1 failed (${jobs1_rc})")
endif()

execute_process(
    COMMAND ${ESPSIM_CLI} suite --apps amazon,bing --configs base,ESP+NL
        --jobs 8 --json ${ARTIFACT_DIR}/suite_jobs8.json
    RESULT_VARIABLE jobs8_rc)
if(NOT jobs8_rc EQUAL 0)
    message(FATAL_ERROR "espsim suite --jobs 8 failed (${jobs8_rc})")
endif()

execute_process(
    COMMAND ${ESPSIM_CLI} run --app amazon --config ESP+NL
        --timeline ${ARTIFACT_DIR}/timeline.trace.json
    RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "espsim run --timeline failed (${run_rc})")
endif()

# The counter time series: a telemetry stream at a 50k-cycle pace.
# The validator checks its contract (contiguous seq, monotone
# counters, one final line); plot_intervals.py draws phases from it.
execute_process(
    COMMAND ${ESPSIM_CLI} run --app amazon --config ESP+NL
        --telemetry ${ARTIFACT_DIR}/intervals.jsonl
        --telemetry-period 50000
    RESULT_VARIABLE intervals_rc)
if(NOT intervals_rc EQUAL 0)
    message(FATAL_ERROR
        "espsim run --telemetry failed (${intervals_rc})")
endif()

# Live-telemetry end-to-end gate. Three contracts, each checked from
# outside the process the way a real operator would see them:
#
#   1. Byte-identity: a telemetry-on serve run must write a latency
#      artifact byte-identical to the telemetry-off run (telemetry
#      only *reads* counters).
#   2. Streaming: the telemetry-on run must report a positive snapshot
#      count on stderr and leave a JSONL stream behind (validated
#      separately by the telemetry_validate test).
#   3. An unopenable stream path fails `run` and `serve` with exit 1,
#      naming the path, before any simulation; a run that silently
#      drops its stream looks like a stream that was never asked for.
#
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -DWORK_DIR=<dir> -P this-file

file(MAKE_DIRECTORY ${WORK_DIR})

# --- 1 + 2: byte-identity and streaming ------------------------------

execute_process(
    COMMAND ${ESPSIM_CLI} serve --profile testsrv --events 400
        --configs base,ESP+NL
        --telemetry telemetry_smoke.jsonl --telemetry-period 20000
        --json telemetry_on.json
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET
    WORKING_DIRECTORY ${WORK_DIR})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "telemetry-on serve failed (${rc}): ${err}")
endif()
string(REGEX MATCH "# telemetry: ([0-9]+) snapshots" _ "${err}")
if(CMAKE_MATCH_1 STREQUAL "" OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR
        "telemetry-on serve streamed no snapshots: ${err}")
endif()

execute_process(
    COMMAND ${ESPSIM_CLI} serve --profile testsrv --events 400
        --configs base,ESP+NL
        --json telemetry_off.json
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET
    WORKING_DIRECTORY ${WORK_DIR})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "telemetry-off serve failed (${rc}): ${err}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/telemetry_on.json ${WORK_DIR}/telemetry_off.json
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR
        "latency artifact is not byte-identical with telemetry on")
endif()

# --- 3: unopenable stream path -----------------------------------------

set(bad_path ${WORK_DIR}/no_such_dir/telemetry.jsonl)
foreach(cmd "run;--app;amazon;--config;base"
            "serve;--profile;testsrv;--events;50;--configs;base")
    execute_process(
        COMMAND ${ESPSIM_CLI} ${cmd} --telemetry ${bad_path}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET
        WORKING_DIRECTORY ${WORK_DIR})
    string(REPLACE ";" " " cmd "${cmd}")
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
            "espsim ${cmd} with an unopenable telemetry path: expected "
            "exit 1, got ${rc}: ${err}")
    endif()
    string(FIND "${err}" "${bad_path}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "espsim ${cmd}: error does not name ${bad_path}: ${err}")
    endif()
endforeach()

message(STATUS "telemetry gate: byte-identity, streaming and "
    "open-failure contracts hold")

# Observatory hermeticity gate: `espsim report` over a copy of one
# build's artifacts must exit 0 whatever order their file mtimes put
# them in. The copies get scrambled mtimes twice, ascending and then
# descending by file name, and each order must report no regression.
#
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -DPYTHON=<python3> -DSRC_DIR=<artifacts>
#         -DWORK_DIR=<scratch dir> -P this-file

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/out)
file(GLOB artifacts ${SRC_DIR}/*.json)
if(NOT artifacts)
    message(FATAL_ERROR "no artifacts in ${SRC_DIR}")
endif()
file(COPY ${artifacts} DESTINATION ${WORK_DIR})

foreach(order ascending descending)
    execute_process(
        COMMAND ${PYTHON} -c
            "import os, sys
d, order = sys.argv[1], sys.argv[2]
names = sorted(n for n in os.listdir(d) if n.endswith('.json'))
if order == 'descending':
    names.reverse()
for i, name in enumerate(names):
    t = 1e9 + 3600 * i
    os.utime(os.path.join(d, name), (t, t))"
            ${WORK_DIR} ${order}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "could not set mtimes (${rc})")
    endif()
    execute_process(
        COMMAND ${ESPSIM_CLI} report --dir ${WORK_DIR}
            --json ${WORK_DIR}/out/report.json
            --md ${WORK_DIR}/out/report.md
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "espsim report failed with ${order} mtimes (${rc}): ${err}")
    endif()
    file(READ ${WORK_DIR}/out/report.md md)
    if(NOT md MATCHES "runs ingested: [2-9]")
        message(FATAL_ERROR "report ingested fewer than 2 runs: ${md}")
    endif()
endforeach()

message(STATUS "observatory: no regression in either mtime order")

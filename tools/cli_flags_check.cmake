# Flag-rejection gate: `espsim` must exit 2 and name the offending
# flag when a subcommand gets a flag it does not take, or a flag that
# would do nothing without another one. Each case would otherwise run
# to completion with the flag silently ignored.
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -P this-file

function(expect_rejected flag)
    execute_process(
        COMMAND ${ESPSIM_CLI} ${ARGN}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "espsim ${ARGN}: expected exit 2, got ${rc}: ${err}")
    endif()
    string(FIND "${err}" "${flag}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "espsim ${ARGN}: error does not name ${flag}: ${err}")
    endif()
endfunction()

# A misspelled flag.
expect_rejected(--watchdog-m
    serve --profile testsrv --events 50 --configs base --watchdog-m 100)
# The retired metrics endpoint.
expect_rejected(--metrics-port
    serve --profile testsrv --events 50 --configs base --metrics-port 0)
# A flag that does nothing without --telemetry.
expect_rejected(--telemetry-period
    run --app amazon --config base --telemetry-period 1000)

# Input-rejection gate: `espsim` must exit 2 and name the offending
# input when it gets an unknown or retired subcommand, a flag the
# subcommand does not take, a flag that would do nothing without
# another one, a signed value for an unsigned option, or a non-finite
# or negative value for a real-valued option. Each case
# would otherwise run with the input silently ignored, print the usage
# text with a regression gate's exit 1, or (for a wrapped negative
# count) abort or run effectively forever; the timeout catches that.
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -P this-file

function(expect_rejected flag)
    execute_process(
        COMMAND ${ESPSIM_CLI} ${ARGN}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET
        TIMEOUT 60)
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
# The retired interval-series flags of `run`: the telemetry stream
# (--telemetry, --telemetry-period) is the one counter time series.
expect_rejected(--sample-cycles
    run --app amazon --config base --sample-cycles 1000)
expect_rejected(--sample-events
    run --app amazon --config base --sample-events 1)
expect_rejected(--json run --app amazon --config base --json x)
# A flag that does nothing without --telemetry.
expect_rejected(--telemetry-period
    run --app amazon --config base --telemetry-period 1000)

# Unknown subcommands, including the retired throughput and
# cross-run report commands.
expect_rejected("unknown command 'frob'" frob)
expect_rejected("unknown command 'bench'" bench --apps amazon)
expect_rejected("unknown command 'report'" report --dir .)

# strtoul skips leading whitespace and wraps a minus sign: " -5" must
# not read as a huge event count.
expect_rejected("invalid value"
    gen --app amazon --out never_written.espw --events " -5")
expect_rejected("invalid value"
    serve --profile testsrv --configs base --events " -1")

# strtod accepts "nan" and "inf", and a real-valued option is a gap,
# threshold, budget or tolerance: a NaN gap once ran with a wrapped
# cycle count, and a negative one ran as if it were valid.
expect_rejected("invalid value"
    serve --profile testsrv --events 50 --configs base --gap nan)
expect_rejected("invalid value"
    serve --profile testsrv --events 50 --configs base --gap -5)
expect_rejected("invalid value"
    serve --profile testsrv --events 50 --configs base
    --anomaly-threshold -3)
expect_rejected("invalid value"
    diff never_read.json never_read.json --rel-tol nan)

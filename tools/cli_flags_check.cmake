# Input-rejection gate: `espsim` must exit 2 and name the offending
# input when it gets an unknown or retired subcommand, a flag the
# subcommand does not take, a flag that would do nothing without
# another one, a signed value for an unsigned option, a value too large
# for an option stored in 32 bits or below an option's floor, or a
# non-finite or negative value for a real-valued option. Each case
# would otherwise run with the input silently ignored, print the usage
# text with a regression gate's exit 1, or (for a wrapped negative
# count) abort or run effectively forever; the timeout catches that.
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -P this-file
# With -DFIGURE=ON, ESPSIM_CLI names a figure binary instead, and only
# the figure binaries' flag parser (bench/bench_util.hh) is checked.

function(expect_rejected flag)
    execute_process(
        COMMAND ${ESPSIM_CLI} ${ARGN}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET
        TIMEOUT 60)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "${ESPSIM_CLI} ${ARGN}: expected exit 2, got ${rc}: ${err}")
    endif()
    string(FIND "${err}" "${flag}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "${ESPSIM_CLI} ${ARGN}: error does not name ${flag}: ${err}")
    endif()
endfunction()

# The accepting side of a bound: @p ARGN must run and exit 0.
function(expect_accepted)
    execute_process(
        COMMAND ${ESPSIM_CLI} ${ARGN}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET
        TIMEOUT 60)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${ESPSIM_CLI} ${ARGN}: expected exit 0, got ${rc}: ${err}")
    endif()
endfunction()

# A figure binary takes --jobs N, --json [path] and --version only. A
# negative --jobs once ran as 1 and 2^32 as auto, and an unknown flag
# (a misspelled --json, the retired --csv) was ignored with exit 0.
if(FIGURE)
    expect_rejected("invalid value" --jobs -3)
    expect_rejected("invalid value" --jobs 4294967296)
    expect_rejected("invalid value" --jobs 2x)
    expect_rejected(--jsonn --jsonn)
    expect_rejected(--csv --csv x)
    return()
endif()

# A misspelled flag.
expect_rejected(--telemetry-perod
    serve --profile testsrv --events 50 --configs base
    --telemetry --telemetry-perod 1000)
# The retired host self-monitoring flags: the suite's per-cell host
# profile (perfbench --trace 1 reports those phases) and the serve
# stall monitor (a hang is caught by the ctest TIMEOUT).
expect_rejected(--profile
    suite --apps amazon --configs base --profile)
# The retired streaming sweep: a stream has one reader, so the suite
# shares only the resident workload across its config jobs.
expect_rejected(--streaming
    suite --apps amazon --configs base --streaming)
expect_rejected(--watchdog-m
    serve --profile testsrv --events 50 --configs base --watchdog-m 100)
expect_rejected(--watchdog-ms
    serve --profile testsrv --events 50 --configs base --watchdog-ms 100)
expect_rejected(--watchdog-dump
    serve --profile testsrv --events 50 --configs base --watchdog-dump x)
# The retired span flight recorder, tail-anomaly detector and spike
# injection: a deterministic run is re-run with --timeline instead.
expect_rejected(--flight-recorder
    serve --profile testsrv --events 50 --configs base --trace-spans x
    --flight-recorder 64)
expect_rejected(--anomaly-threshold
    serve --profile testsrv --events 50 --configs base --trace-spans x
    --anomaly-threshold 4)
expect_rejected(--anomaly-min
    serve --profile testsrv --events 50 --configs base --trace-spans x
    --anomaly-min 50)
expect_rejected(--flight-dump
    serve --profile testsrv --events 50 --configs base --trace-spans x
    --flight-dump x)
expect_rejected(--spike-event
    serve --profile testsrv --events 50 --configs base --spike-event 10)
expect_rejected(--spike-scale
    serve --profile testsrv --events 50 --configs base
    --spike-scale 4294967296)
expect_rejected(--anomaly-threshold
    serve --profile testsrv --events 50 --configs base
    --anomaly-threshold -3)
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
# The retired wall-clock telemetry pacing: snapshots are taken only at
# event retires either way, and a cycle-paced stream is deterministic.
expect_rejected(--telemetry-wall-ms
    run --app amazon --config base --telemetry --telemetry-wall-ms 100)
expect_rejected(--telemetry-wall-ms
    serve --profile testsrv --events 50 --configs base --telemetry
    --telemetry-wall-ms 100)
# The retired bursty and closed-loop arrival disciplines: serve runs
# the Poisson schedule it is measured on (--gap, --seed) and nothing
# else.
expect_rejected(--arrival
    serve --profile testsrv --events 50 --configs base --arrival bursty)
expect_rejected(--concurrency
    serve --profile testsrv --events 50 --configs base --concurrency 4)
expect_rejected(--think
    serve --profile testsrv --events 50 --configs base --think 2000)
# The retired CSV view of the suite artifact: nothing read it, and the
# JSON artifact carries the same stats.
expect_rejected(--csv suite --apps amazon --configs base --csv x.csv)
# The retired headline-only diff gate: any stat drift fails
# `espsim diff`, so there is no headline set or headline tolerance.
expect_rejected(--headline
    diff never_read.json never_read.json --headline core.cycles)
expect_rejected(--headline-rel-tol
    diff never_read.json never_read.json --headline-rel-tol 0.01)
# A flag that does nothing without --telemetry, --timeline or
# --trace-spans.
expect_rejected(--telemetry-period
    run --app amazon --config base --telemetry-period 1000)
expect_rejected(--timeline-limit
    run --app bing --config base --timeline-limit 5)
expect_rejected(--worst
    serve --profile testsrv --events 50 --configs base --worst 3)

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

# Options stored in an `unsigned` must reject 2^32 rather than pass the
# range check on the 64-bit value and wrap to 0 in the cast.
expect_rejected("invalid value"
    suite --apps amazon --configs base --jobs 4294967296)

# The streaming window's floor: below 4 the workload would clamp the
# window while the latency artifact recorded the value asked for.
expect_rejected("invalid value"
    serve --profile testsrv --events 50 --configs base --window 3)
expect_accepted(
    serve --window 4 --events 50 --profile testsrv --configs base)

# strtod accepts "nan" and "inf", and a real-valued option is a gap,
# threshold, budget or tolerance: a NaN gap once ran with a wrapped
# cycle count, and a negative one ran as if it were valid.
expect_rejected("invalid value"
    serve --profile testsrv --events 50 --configs base --gap nan)
expect_rejected("invalid value"
    serve --profile testsrv --events 50 --configs base --gap -5)
expect_rejected("invalid value"
    diff never_read.json never_read.json --rel-tol nan)

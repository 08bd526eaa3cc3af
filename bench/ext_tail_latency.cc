/**
 * @file
 * Extension study: server-side tail latency under load. The paper
 * evaluates ESP on client-side web apps; this figure asks the
 * datacenter question instead — when a memcached-style request stream
 * arrives faster than the core drains it, how much does ESP's
 * stall-shadow pre-execution shave off the p50/p99/p99.9 queue+service
 * latency?
 *
 * Sweeps a Poisson open-loop arrival rate from "mostly idle" to
 * "saturated" and prints base vs ESP+NL tail latency at each load
 * point. Everything streams through the bounded-window workload core,
 * so the sweep's memory footprint is flat in the event count.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "server/serve.hh"

using namespace espsim;

int
main(int argc, char **argv)
{
    const auto report = benchutil::reportSetup(argc, argv,
                                               "ext_tail_latency",
                                               "ext_tail_latency");
    const ServerProfile profile = ServerProfile::memcached();
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::espFull(true)};

    TextTable table("Extension: memcached tail latency under Poisson "
                    "load — base vs ESP+NL (cycles)");
    table.header({"mean gap", "base p50", "ESP p50", "base p99",
                  "ESP p99", "base p99.9", "ESP p99.9", "p99 cut %"});

    for (const double gap : {4000.0, 2000.0, 1000.0, 500.0, 250.0}) {
        ServeOptions opts;
        opts.events = 2000;
        opts.arrival.meanGapCycles = gap;
        const ServeReport r = runServe(profile, configs, opts);
        const LatencySummary &base = r.cells[0].total;
        const LatencySummary &esp = r.cells[1].total;
        const double cut = base.p99 > 0.0
            ? 100.0 * (base.p99 - esp.p99) / base.p99
            : 0.0;
        table.row({
            TextTable::num(gap, 0),
            TextTable::num(base.p50, 0),
            TextTable::num(esp.p50, 0),
            TextTable::num(base.p99, 0),
            TextTable::num(esp.p99, 0),
            TextTable::num(base.p999, 0),
            TextTable::num(esp.p999, 0),
            TextTable::num(cut, 1),
        });
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("\nserver check: ESP's stall-shadow pre-execution "
              "shortens per-request service time, which drains queues "
              "faster — the tail (p99/p99.9) improves most near "
              "saturation, where queueing dominates.");

    // Blame decomposition at the near-saturation point: re-run the
    // heaviest load with span tracing on and show where the worst
    // ESP+NL requests actually spend their cycles — queueing behind
    // the loop vs executing, and how much of the execute window the
    // ESP pre-exec shadow covers.
    {
        ServeOptions opts;
        opts.events = 2000;
        opts.arrival.meanGapCycles = 250.0;
        opts.spans.enabled = true;
        opts.spans.worstK = 5;
        const ServeReport r = runServe(
            profile, {SimConfig::espFull(true)}, opts);

        TextTable blame("Worst ESP+NL requests at mean gap 250 — "
                        "span blame decomposition (cycles)");
        blame.header({"event", "handler", "total", "queue", "service",
                      "esp pre-exec", "timely pf", "late pf"});
        for (const RequestSpan &span : r.cells[0].worstSpans) {
            std::uint64_t timely = 0;
            std::uint64_t late = 0;
            for (const SpanPrefetchDelta &d : span.prefetch) {
                timely += d.timely;
                late += d.late;
            }
            blame.row({
                TextTable::num(static_cast<double>(span.index), 0),
                TextTable::num(static_cast<double>(span.handlerType),
                               0),
                TextTable::num(static_cast<double>(span.totalCycles()),
                               0),
                TextTable::num(static_cast<double>(span.queueCycles()),
                               0),
                TextTable::num(
                    static_cast<double>(span.serviceCycles()), 0),
                TextTable::num(
                    static_cast<double>(span.espPreExecCycles()), 0),
                TextTable::num(static_cast<double>(timely), 0),
                TextTable::num(static_cast<double>(late), 0),
            });
        }
        std::fputs(blame.render().c_str(), stdout);
        std::puts("\nspan check: near saturation the tail is mostly "
                  "queueing — the per-request span deltas separate "
                  "\"slow to execute\" from \"stuck in line\", which "
                  "aggregate percentiles cannot.");
    }
    benchutil::reportFinishTable(report, table);
    return 0;
}

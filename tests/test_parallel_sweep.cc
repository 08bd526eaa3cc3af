/**
 * @file
 * Tests for the parallel sweep engine: JobPool basics, bit-identical
 * suite results at any thread count, and concurrent replay of one
 * shared resident workload from multiple simulator threads.
 * A simulation run itself is single-threaded; threads exist only in
 * JobPool sweeps.
 *
 * These tests carry the "tsan" ctest label; build with
 * -DESPSIM_SANITIZE=thread and run `ctest -L tsan` to check them for
 * data races.
 */

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/job_pool.hh"
#include "report/artifact.hh"
#include "sim/stats_report.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

/** Two small, distinct apps — enough to exercise per-app sharing. */
std::vector<AppProfile>
twoAppSuite()
{
    AppProfile a = AppProfile::testProfile();
    a.name = "alpha";
    a.numEvents = 30;

    AppProfile b = AppProfile::testProfile();
    b.name = "beta";
    b.seed = a.seed + 17;
    b.numEvents = 30;
    b.avgEventLen *= 1.5;

    return {a, b};
}

/** The Figure 9 design-point set. */
std::vector<SimConfig>
fig9Configs()
{
    return {
        SimConfig::baseline(),       SimConfig::nextLine(),
        SimConfig::nextLineStride(), SimConfig::runaheadExec(false),
        SimConfig::runaheadExec(true), SimConfig::espFull(false),
        SimConfig::espFull(true),
    };
}

} // namespace

TEST(JobPool, RunsEveryJob)
{
    JobPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(JobPool, SingleThreadRunsInline)
{
    JobPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&] { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, caller); // executed during submit, serially
    pool.wait();
}

TEST(JobPool, WaitIsReusable)
{
    JobPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&] { ++count; });
    pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelSweep, DeterministicAcrossJobCounts)
{
    const auto configs = fig9Configs();
    SuiteRunner runner(twoAppSuite());

    runner.setJobs(1);
    const auto serial = runner.run(configs);
    runner.setJobs(4);
    const auto parallel = runner.run(configs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
        EXPECT_EQ(serial[r].app, parallel[r].app);
        ASSERT_EQ(serial[r].results.size(), parallel[r].results.size());
        for (std::size_t c = 0; c < serial[r].results.size(); ++c) {
            const SimResult &s = serial[r].results[c];
            const SimResult &p = parallel[r].results[c];
            EXPECT_EQ(s.configName, p.configName) << r << "," << c;
            EXPECT_EQ(s.workloadName, p.workloadName);
            // Bit-identical, not approximately equal.
            EXPECT_EQ(s.cycles, p.cycles) << r << "," << c;
            EXPECT_EQ(s.ipc, p.ipc) << r << "," << c;
            EXPECT_EQ(s.l1iMpki, p.l1iMpki);
            EXPECT_EQ(s.mispredictRate, p.mispredictRate);
        }
    }
}

TEST(ParallelSweep, MoreJobsThanPoints)
{
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::espFull(true)};
    SuiteRunner runner(twoAppSuite());
    runner.setJobs(64); // clamped to the 4 points internally
    const auto rows = runner.run(configs);
    ASSERT_EQ(rows.size(), 2u);
    for (const SuiteRow &row : rows) {
        ASSERT_EQ(row.results.size(), 2u);
        EXPECT_GT(row.results[0].cycles, 0u);
        EXPECT_GT(row.results[1].cycles, 0u);
    }
}

TEST(ParallelSweep, SharedEagerWorkloadConcurrentReplay)
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 30;
    const auto workload = SyntheticGenerator(p).generate();

    const SimResult ref_a =
        Simulator(SimConfig::espFull(true)).run(*workload);
    const SimResult ref_b =
        Simulator(SimConfig::nextLineStride()).run(*workload);

    SimResult par_a, par_b;
    std::thread ta([&] {
        par_a = Simulator(SimConfig::espFull(true)).run(*workload);
    });
    std::thread tb([&] {
        par_b = Simulator(SimConfig::nextLineStride()).run(*workload);
    });
    ta.join();
    tb.join();

    EXPECT_EQ(par_a.cycles, ref_a.cycles);
    EXPECT_EQ(par_a.ipc, ref_a.ipc);
    EXPECT_EQ(par_b.cycles, ref_b.cycles);
    EXPECT_EQ(par_b.ipc, ref_b.ipc);
}

TEST(JobPool, ThrowingJobPropagatesFromWait)
{
    // A throwing job must not terminate the process, deadlock wait(),
    // or stop the other jobs from running.
    JobPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 32; ++i) {
        pool.submit([&count, i] {
            if (i == 7)
                throw std::runtime_error("job 7 exploded");
            ++count;
        });
    }
    bool threw = false;
    try {
        pool.wait();
    } catch (const std::runtime_error &e) {
        threw = true;
        EXPECT_STREQ(e.what(), "job 7 exploded");
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(count.load(), 31);

    // The pool is clean and reusable after the rethrow.
    pool.submit([&count] { ++count; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(count.load(), 32);
}

TEST(JobPool, InlinePoolFollowsTheSameExceptionContract)
{
    JobPool pool(1);
    std::atomic<int> count{0};
    pool.submit([] { throw std::logic_error("inline boom"); });
    pool.submit([&count] { ++count; }); // still runs
    bool threw = false;
    try {
        pool.wait();
    } catch (const std::logic_error &e) {
        threw = true;
        EXPECT_STREQ(e.what(), "inline boom");
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(count.load(), 1);
    EXPECT_NO_THROW(pool.wait());
}

TEST(JobPool, LaterExceptionsAreCountedNotLost)
{
    JobPool pool(1); // inline: deterministic job order
    pool.submit([] { throw std::runtime_error("first"); });
    pool.submit([] { throw std::runtime_error("second"); });
    EXPECT_EQ(pool.droppedExceptions(), 1u);
    try {
        pool.wait();
        FAIL() << "wait() should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(ParallelSweep, FaultInjectedCellDegradesToErrorCell)
{
    ::setenv("ESPSIM_FAULT_INJECT", "alpha:NL", 1);
    SuiteRunner runner(twoAppSuite());
    runner.setJobs(4);
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::nextLine()};
    const auto rows = runner.run(configs);
    ::unsetenv("ESPSIM_FAULT_INJECT");

    ASSERT_EQ(rows.size(), 2u);
    EXPECT_TRUE(suiteHasErrors(rows));

    // Only the targeted cell failed; it carries message + config hash.
    EXPECT_FALSE(rows[0].ok(1));
    EXPECT_NE(rows[0].errors[1].message.find("injected fault"),
              std::string::npos);
    EXPECT_EQ(rows[0].errors[1].configHash.size(), 16u);

    // Every other cell completed with a real result.
    EXPECT_TRUE(rows[0].ok(0));
    EXPECT_TRUE(rows[1].ok(0));
    EXPECT_TRUE(rows[1].ok(1));
    EXPECT_GT(rows[0].results[0].cycles, 0u);
    EXPECT_GT(rows[1].results[1].cycles, 0u);

    // Aggregates skip the failed cell instead of crashing on it.
    const double agg = hmeanImprovementPct(rows, 1, 0);
    EXPECT_TRUE(std::isfinite(agg));

    // The artifact grows an errors block naming the failed cell.
    ArtifactManifest manifest;
    manifest.source = "test";
    const std::string json =
        renderSuiteArtifactJson(manifest, configs, rows);
    EXPECT_NE(json.find("\"errors\""), std::string::npos);
    EXPECT_NE(json.find("injected fault"), std::string::npos);
}

TEST(ParallelSweep, CleanSweepEmitsNoErrorsBlock)
{
    SuiteRunner runner(twoAppSuite());
    runner.setJobs(2);
    const std::vector<SimConfig> configs{SimConfig::baseline()};
    const auto rows = runner.run(configs);
    EXPECT_FALSE(suiteHasErrors(rows));
    ArtifactManifest manifest;
    manifest.source = "test";
    const std::string json =
        renderSuiteArtifactJson(manifest, configs, rows);
    // Golden-baseline compatibility: clean artifacts carry no block.
    EXPECT_EQ(json.find("\"errors\""), std::string::npos);
}

TEST(ParallelSweep, WildcardFaultInjectionHitsEveryCell)
{
    ::setenv("ESPSIM_FAULT_INJECT", "*:*", 1);
    SuiteRunner runner(twoAppSuite());
    runner.setJobs(1); // inline path degrades identically
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::nextLine()};
    const auto rows = runner.run(configs);
    ::unsetenv("ESPSIM_FAULT_INJECT");
    for (const SuiteRow &row : rows) {
        for (std::size_t c = 0; c < configs.size(); ++c)
            EXPECT_FALSE(row.ok(c)) << row.app << "," << c;
    }
}

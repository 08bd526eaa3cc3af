/**
 * @file
 * Test helper: run a simulation whose timeline streams its Chrome
 * trace to a file, and read the file back.
 */

#ifndef ESPSIM_TESTS_TRACED_RUN_HH
#define ESPSIM_TESTS_TRACED_RUN_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "report/timeline.hh"
#include "sim/simulator.hh"

namespace espsim
{

/** One run's result and the trace its timeline streamed. */
struct TracedRun
{
    SimResult result;
    std::string trace;
};

/**
 * Run @p workload on @p sim with @p timeline streaming to a file under
 * the test temp directory, named after the running test so parallel
 * tests never share one, plus @p inst's other observers.
 */
inline TracedRun
runTraced(const Simulator &sim, const Workload &workload,
          EventTimeline &timeline, RunInstrumentation inst = {})
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = ::testing::TempDir() +
        test->test_suite_name() + "." + test->name() + ".trace.json";
    TracedRun run;
    EXPECT_TRUE(timeline.streamTo(path));
    inst.timeline = &timeline;
    run.result = sim.run(workload, inst);
    EXPECT_TRUE(timeline.closeStream());
    std::ifstream in(path, std::ios::binary);
    run.trace.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return run;
}

} // namespace espsim

#endif // ESPSIM_TESTS_TRACED_RUN_HH

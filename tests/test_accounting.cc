/**
 * @file
 * Tests for the observability layer added with cycle accounting: the
 * top-down cycle attributor's sum invariant across configurations,
 * per-handler attribution, prefetch-lifecycle classification on
 * synthetic streams, the suite artifact's --jobs determinism, and the
 * `espsim diff` tolerance / exit-code contract.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "esp/lists.hh"
#include "report/artifact.hh"
#include "report/diff.hh"
#include "report/json_reader.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

#include "traced_run.hh"

using namespace espsim;

namespace
{

AppProfile
tinyProfile()
{
    AppProfile p = AppProfile::byName("amazon");
    p.name = "amazon-tiny";
    p.numEvents = 6;
    p.avgEventLen = 3000;
    return p;
}

Cycle
bucket(const CoreStats &stats, CycleBucket b)
{
    return stats.bucketCycles[static_cast<unsigned>(b)];
}

SimResult
runTiny(const SimConfig &config)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    return Simulator(config).run(*workload);
}

} // namespace

// --------------------------------------------------------------------
// Cycle-accounting invariant
// --------------------------------------------------------------------

TEST(Accounting, BucketsSumToTotalCyclesAcrossConfigs)
{
    const std::vector<SimConfig> configs{
        SimConfig::baseline(),      SimConfig::nextLineStride(),
        SimConfig::runaheadExec(true), SimConfig::espFull(true),
        SimConfig::espNaive(true),
    };
    for (const SimConfig &config : configs) {
        const SimResult r = runTiny(config);
        EXPECT_EQ(r.core.bucketSum(), r.core.cycles)
            << "config " << config.name;
        EXPECT_GT(bucket(r.core, CycleBucket::Retiring), 0u)
            << "config " << config.name;
    }
}

TEST(Accounting, SpeculationBucketsFollowTheEngine)
{
    const SimResult base = runTiny(SimConfig::baseline());
    EXPECT_EQ(bucket(base.core, CycleBucket::EspPreExec), 0u);
    EXPECT_EQ(bucket(base.core, CycleBucket::Runahead), 0u);

    // ESP pre-executes inside stall shadows; those cycles move out of
    // the miss buckets into the ESP bucket.
    const SimResult esp = runTiny(SimConfig::espFull(true));
    EXPECT_GT(bucket(esp.core, CycleBucket::EspPreExec), 0u);
    EXPECT_EQ(bucket(esp.core, CycleBucket::Runahead), 0u);

    const SimResult ra = runTiny(SimConfig::runaheadExec(true));
    EXPECT_GT(bucket(ra.core, CycleBucket::Runahead), 0u);
    EXPECT_EQ(bucket(ra.core, CycleBucket::EspPreExec), 0u);
}

TEST(Accounting, HandlerAttributionCoversEveryCycleAndEvent)
{
    const SimResult r = runTiny(SimConfig::espFull(true));
    CycleBucketArray summed{};
    std::uint64_t events = 0;
    for (const auto &[handler, ha] : r.core.handlerAccounting) {
        (void)handler;
        events += ha.events;
        for (unsigned b = 0; b < numCycleBuckets; ++b)
            summed[b] += ha.buckets[b];
    }
    EXPECT_EQ(events, r.core.events);
    for (unsigned b = 0; b < numCycleBuckets; ++b)
        EXPECT_EQ(summed[b], r.core.bucketCycles[b]) << "bucket " << b;
}

TEST(Accounting, StallSlicesCloseAgainstTheBuckets)
{
    // The core records each stall once: its bucket charge and its
    // timeline slice come from one call, so per event the slices sum
    // to the buckets. A miss slice spans the whole stall, so under a
    // speculation engine it also covers the shadow the engine
    // consumed. The slice names are the literal bucket names.
    const char *const miss_names[] = {"icache_miss", "dcache_miss",
                                      "lsq_full"};
    const std::set<std::string> stall_names{
        "icache_miss", "dcache_miss", "lsq_full", "mispredict_redirect"};
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    for (const SimConfig &config :
         {SimConfig::baseline(), SimConfig::espFull(true),
          SimConfig::runaheadExec(true)}) {
        SCOPED_TRACE(config.name);
        const bool engine = config.engine != SpeculationEngine::None;
        EventTimeline timeline;
        const TracedRun run =
            runTraced(Simulator(config), *workload, timeline);
        std::string err;
        const auto root = parseJson(run.trace, &err);
        ASSERT_TRUE(root) << err;

        // Per event: the slice sums by name, and the span's buckets.
        std::map<std::size_t, std::map<std::string, double>> slices;
        std::map<std::size_t, const JsonValue *> buckets;
        for (const JsonValue &e : root->at("traceEvents").array) {
            const JsonValue *cat = e.find("cat");
            if (cat == nullptr || e.at("ph").string != "X")
                continue;
            if (cat->string == "stall") {
                const std::string &name = e.at("name").string;
                EXPECT_EQ(stall_names.count(name), 1u) << name;
                const auto idx = static_cast<std::size_t>(
                    e.at("args").at("event").number);
                slices[idx][name] += e.at("dur").number;
            } else if (cat->string == "event" &&
                       e.at("name").string != "execute") {
                const auto idx = static_cast<std::size_t>(
                    e.at("args").at("index").number);
                buckets[idx] = &e.at("args").at("cycle_buckets");
            }
        }
        ASSERT_EQ(buckets.size(), workload->numEvents());

        double redirect_total = 0;
        double miss_total = 0;
        double shadow_total = 0;
        for (const auto &[idx, b] : buckets) {
            SCOPED_TRACE("event " + std::to_string(idx));
            std::map<std::string, double> &s = slices[idx];
            EXPECT_EQ(s["mispredict_redirect"],
                      b->at("mispredict_redirect").number);
            double miss_slices = 0;
            double miss_buckets = 0;
            for (const char *name : miss_names) {
                miss_slices += s[name];
                miss_buckets += b->at(name).number;
                if (!engine) {
                    EXPECT_EQ(s[name], b->at(name).number) << name;
                }
            }
            const double shadow = b->at("esp_pre_exec").number +
                b->at("runahead").number;
            if (!engine) {
                EXPECT_EQ(shadow, 0.0);
            }
            EXPECT_EQ(miss_slices, miss_buckets + shadow);
            redirect_total += s["mispredict_redirect"];
            miss_total += miss_slices;
            shadow_total += shadow;
        }
        // The tiny profile hits both kinds of stall, and each engine
        // consumes some shadow.
        EXPECT_GT(redirect_total, 0.0);
        EXPECT_GT(miss_total, 0.0);
        EXPECT_EQ(shadow_total > 0, engine);
    }
}

TEST(Accounting, BucketStatsLandInTheRegistrySnapshot)
{
    const SimResult r = runTiny(SimConfig::espFull(true));
    EXPECT_GT(r.stats.get("core.cycle_bucket.retiring"), 0.0);
    EXPECT_GT(r.stats.get("core.cycle_bucket.esp_pre_exec"), 0.0);
    double sum = 0.0;
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        sum += r.stats.get(
            std::string("core.cycle_bucket.") +
            cycleBucketName(static_cast<CycleBucket>(b)));
    }
    EXPECT_DOUBLE_EQ(sum, r.stats.get("core.cycles"));
}

// --------------------------------------------------------------------
// Prefetch lifecycle classification (synthetic streams)
// --------------------------------------------------------------------

TEST(Accounting, TimelyPrefetchEarnsLeadCycles)
{
    MemoryHierarchy mem{HierarchyConfig{}};
    mem.prefetchData(0x400000, 0, PrefetchSource::StrideData);
    // Demand arrives long after the fill completed: timely.
    mem.accessData(0x400000, false, 500);
    const PrefetchSourceStats s =
        mem.prefetchLifecycle(PrefetchSource::StrideData);
    EXPECT_EQ(s.issued, 1u);
    EXPECT_EQ(s.timely, 1u);
    EXPECT_EQ(s.late, 0u);
    EXPECT_GT(s.avgLeadCycles(), 0.0);
    EXPECT_DOUBLE_EQ(s.accuracy(), 1.0);
}

TEST(Accounting, LatePrefetchStillCountsAsUsed)
{
    MemoryHierarchy mem{HierarchyConfig{}};
    mem.prefetchData(0x410000, 0, PrefetchSource::StrideData);
    // Demand lands one cycle later, far before the memory fill: late.
    mem.accessData(0x410000, false, 1);
    const PrefetchSourceStats s =
        mem.prefetchLifecycle(PrefetchSource::StrideData);
    EXPECT_EQ(s.timely, 0u);
    EXPECT_EQ(s.late, 1u);
    EXPECT_DOUBLE_EQ(s.accuracy(), 1.0);
}

TEST(Accounting, UntouchedPrefetchScoresUselessAtFinalize)
{
    MemoryHierarchy mem{HierarchyConfig{}};
    mem.prefetchData(0x420000, 0, PrefetchSource::EspDList);
    mem.finalizePrefetchLifecycles();
    const PrefetchSourceStats s =
        mem.prefetchLifecycle(PrefetchSource::EspDList);
    EXPECT_EQ(s.issued, 1u);
    EXPECT_EQ(s.useless, 1u);
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.0);
}

TEST(Accounting, PrefetchEvictingDemandLiveBlockIsHarmful)
{
    MemoryHierarchy mem{HierarchyConfig{}};
    // L1-D: 32 KB, 2-way, 64 B blocks -> 256 sets; addresses 16 KB
    // apart share a set. Two demand blocks fill the set, then two
    // prefetches displace them while still demand-live.
    constexpr Addr setStride = 256 * blockBytes;
    const Addr d0 = 0x800000;
    const Addr d1 = d0 + setStride;
    mem.accessData(d0, false, 0);
    mem.accessData(d1, false, 1);
    mem.prefetchData(d0 + 2 * setStride, 2, PrefetchSource::EspDList);
    mem.prefetchData(d0 + 3 * setStride, 3, PrefetchSource::EspDList);
    const PrefetchSourceStats s =
        mem.prefetchLifecycle(PrefetchSource::EspDList);
    EXPECT_EQ(s.issued, 2u);
    EXPECT_EQ(s.harmful, 2u);
}

TEST(Accounting, LifecycleStatsAppearInSimulatorSnapshot)
{
    const SimResult r = runTiny(SimConfig::espFull(true));
    // ESP ran with its lists on, so the I-list issued prefetches and
    // their lifecycle stats are part of the canonical surface.
    EXPECT_GT(r.stats.get("mem.prefetch.esp_ilist.issued"), 0.0);
    const double timely = r.stats.get("mem.prefetch.esp_ilist.timely");
    const double late = r.stats.get("mem.prefetch.esp_ilist.late");
    const double useless =
        r.stats.get("mem.prefetch.esp_ilist.useless");
    EXPECT_LE(timely + late + useless,
              r.stats.get("mem.prefetch.esp_ilist.issued") + 0.5);
}

// --------------------------------------------------------------------
// ESP list encoding outcomes
// --------------------------------------------------------------------

TEST(Accounting, AppendOutcomesClassifyEncoding)
{
    AddressList list(0); // unbounded
    AppendOutcome out;
    EXPECT_TRUE(list.append(0x1000, 0, &out));
    EXPECT_EQ(out, AppendOutcome::NewRecord);
    EXPECT_TRUE(list.append(0x1004, 1, &out)); // same block
    EXPECT_EQ(out, AppendOutcome::Retouch);
    EXPECT_TRUE(list.append(0x1040, 2, &out)); // next block
    EXPECT_EQ(out, AppendOutcome::RunExtended);
    EXPECT_TRUE(list.append(0x2000, 3, &out)); // small delta
    EXPECT_EQ(out, AppendOutcome::NewRecord);
    EXPECT_TRUE(list.append(0x200000, 4, &out)); // > 127 blocks away
    EXPECT_EQ(out, AppendOutcome::NewRecordEscaped);
}

TEST(Accounting, AppendReportsRejectedWhenFull)
{
    // 64 bits: room for the first (full-address, 3x19-bit) entry
    // only; a second far-away entry cannot be charged.
    AddressList list(8);
    AppendOutcome out;
    EXPECT_TRUE(list.append(0x1000, 0, &out));
    EXPECT_EQ(out, AppendOutcome::NewRecord);
    EXPECT_FALSE(list.append(0x900000, 1, &out));
    EXPECT_EQ(out, AppendOutcome::Rejected);
}

// --------------------------------------------------------------------
// Artifact determinism across --jobs
// --------------------------------------------------------------------

TEST(Accounting, SuiteArtifactIdenticalAcrossJobs)
{
    const std::vector<AppProfile> apps{tinyProfile()};
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::espFull(true)};
    SuiteRunner serial(apps);
    serial.setJobs(1);
    SuiteRunner parallel(apps);
    parallel.setJobs(8);
    const auto rows1 = serial.run(configs);
    const auto rows8 = parallel.run(configs);

    ArtifactManifest manifest;
    manifest.source = "test";
    manifest.toolVersion = "fixed";
    manifest.buildType = "fixed";
    const std::string a1 =
        renderSuiteArtifactJson(manifest, configs, rows1);
    const std::string a8 =
        renderSuiteArtifactJson(manifest, configs, rows8);
    EXPECT_EQ(a1, a8);

    const auto j1 = parseJson(a1);
    const auto j8 = parseJson(a8);
    ASSERT_TRUE(j1 && j8);
    const DiffResult d = diffSuiteArtifacts(*j1, *j8);
    EXPECT_EQ(d.exitCode(), 0);
    EXPECT_TRUE(d.drifts.empty());
    EXPECT_GT(d.statsCompared, 0u);
}

// --------------------------------------------------------------------
// espsim diff: tolerance and exit-code matrix
// --------------------------------------------------------------------

namespace
{

std::string
fakeArtifact(const std::string &hash, double cycles,
             double dcacheBucket, double ipc,
             bool includeSecondPoint = false,
             const std::string &extraStat = "")
{
    std::string s =
        R"({"schema":"espsim-suite-artifact","format_version":1,)";
    s += R"("manifest":{"source":"test","tool_version":"v1",)";
    s += R"("build_type":"Release","config_hash":")" + hash +
        R"(","apps":["a"],"configs":["c"],"points":1},"results":[)";
    s += R"({"app":"a","config":"c","stats":{)";
    s += R"("core.cycles":)" + std::to_string(cycles);
    s += R"(,"core.cycle_bucket.dcache_miss":)" +
        std::to_string(dcacheBucket);
    s += R"(,"core.cycle_bucket.retiring":)" +
        std::to_string(cycles - dcacheBucket);
    s += R"(,"derived.ipc":)" + std::to_string(ipc);
    if (!extraStat.empty())
        s += "," + extraStat;
    s += "}}";
    if (includeSecondPoint)
        s += R"(,{"app":"b","config":"c","stats":{"core.cycles":100}})";
    s += "]}";
    return s;
}

DiffResult
diffStrings(const std::string &base, const std::string &cand,
            const DiffOptions &opts = {})
{
    const auto b = parseJson(base);
    const auto c = parseJson(cand);
    EXPECT_TRUE(b && c);
    return diffSuiteArtifacts(*b, *c, opts);
}

} // namespace

TEST(Diff, IdenticalArtifactsExitZero)
{
    const std::string a = fakeArtifact("h", 1000, 200, 1.5);
    const DiffResult d = diffStrings(a, a);
    EXPECT_EQ(d.exitCode(), 0);
    EXPECT_TRUE(d.drifts.empty());
    EXPECT_EQ(d.pointsCompared, 1u);
}

TEST(Diff, CyclesDriftFailsAndIsAttributedToBuckets)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5);
    const std::string cand = fakeArtifact("h", 1100, 300, 1.5);
    const DiffResult d = diffStrings(base, cand);
    EXPECT_EQ(d.exitCode(), 1);
    bool found = false;
    for (const StatDrift &drift : d.drifts) {
        if (drift.stat != "core.cycles")
            continue;
        found = true;
        EXPECT_NEAR(drift.relDrift, 0.1, 1e-9);
        // The drift is explained through the accounting buckets.
        EXPECT_NE(drift.attribution.find("dcache_miss +100"),
                  std::string::npos)
            << drift.attribution;
    }
    EXPECT_TRUE(found);
}

TEST(Diff, RelativeToleranceAbsorbsDrift)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5);
    const std::string cand = fakeArtifact("h", 1100, 300, 1.5);
    DiffOptions opts;
    opts.relTol = 0.6; // covers even the 50% bucket move
    const DiffResult d = diffStrings(base, cand, opts);
    EXPECT_EQ(d.exitCode(), 0);
    EXPECT_TRUE(d.drifts.empty());
}

TEST(Diff, AnyStatDriftFailsTheGate)
{
    // Every stat gates, not only cycles, IPC and energy: a moved,
    // added or removed counter each fail with exit 1.
    const std::string base = fakeArtifact("h", 1000, 200, 1.5, false,
                                          R"("mem.extra":10)");
    const std::string moved = fakeArtifact("h", 1000, 200, 1.5, false,
                                           R"("mem.extra":20)");
    const DiffResult d = diffStrings(base, moved);
    EXPECT_EQ(d.exitCode(), 1);
    ASSERT_EQ(d.drifts.size(), 1u);
    EXPECT_EQ(d.drifts[0].stat, "mem.extra");

    const std::string removed = fakeArtifact("h", 1000, 200, 1.5);
    const DiffResult r = diffStrings(base, removed);
    EXPECT_EQ(r.exitCode(), 1);
    ASSERT_EQ(r.drifts.size(), 1u);
    EXPECT_TRUE(r.drifts[0].onlyInBaseline);

    const DiffResult a = diffStrings(removed, base);
    EXPECT_EQ(a.exitCode(), 1);
    ASSERT_EQ(a.drifts.size(), 1u);
    EXPECT_TRUE(a.drifts[0].onlyInCandidate);
}

TEST(Diff, ConfigHashMismatchFailsUnlessIgnored)
{
    const std::string base = fakeArtifact("aaaa", 1000, 200, 1.5);
    const std::string cand = fakeArtifact("bbbb", 1000, 200, 1.5);
    const DiffResult strict = diffStrings(base, cand);
    EXPECT_EQ(strict.exitCode(), 1);
    EXPECT_FALSE(strict.configHashMatch);

    DiffOptions opts;
    opts.ignoreConfigHash = true;
    const DiffResult relaxed = diffStrings(base, cand, opts);
    EXPECT_EQ(relaxed.exitCode(), 0);
}

TEST(Diff, MissingPointFailsTheGate)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5, true);
    const std::string cand = fakeArtifact("h", 1000, 200, 1.5, false);
    const DiffResult d = diffStrings(base, cand);
    EXPECT_EQ(d.exitCode(), 1);
    bool found = false;
    for (const StatDrift &drift : d.drifts)
        found |= drift.onlyInBaseline && drift.app == "b";
    EXPECT_TRUE(found);
}

TEST(Diff, UnreadableInputExitsTwo)
{
    const DiffResult d = diffSuiteArtifactFiles(
        "/nonexistent/base.json", "/nonexistent/cand.json");
    EXPECT_EQ(d.exitCode(), 2);
    EXPECT_FALSE(d.loaded);
    EXPECT_FALSE(d.error.empty());
}

TEST(Diff, NonArtifactDocumentExitsTwo)
{
    const auto bogus = parseJson(R"({"schema":"something-else"})");
    const auto good = parseJson(fakeArtifact("h", 1000, 200, 1.5));
    ASSERT_TRUE(bogus && good);
    const DiffResult d = diffSuiteArtifacts(*bogus, *good);
    EXPECT_EQ(d.exitCode(), 2);
}

TEST(Diff, ReportRendersDriftTable)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5);
    const std::string cand = fakeArtifact("h", 1100, 300, 1.5);
    const DiffResult d = diffStrings(base, cand);
    const std::string report = renderDiffReport(d);
    EXPECT_NE(report.find("core.cycles"), std::string::npos);
    EXPECT_NE(report.find("dcache_miss +100"), std::string::npos);
    EXPECT_NE(report.find("2 drifts beyond tolerance"), std::string::npos);
}

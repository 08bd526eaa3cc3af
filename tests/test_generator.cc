/**
 * @file
 * Tests for the synthetic workload generator: bit-exact determinism,
 * structural properties of generated traces (instruction mix, PC
 * consistency of the static program, call/return pairing), the
 * inter-event dependence model, and the warm set.
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "server/profile.hh"
#include "workload/app_profile.hh"
#include "workload/generator.hh"

using namespace espsim;

TEST(Generator, EventRegeneratesBitIdentically)
{
    SyntheticGenerator gen(AppProfile::testProfile());
    for (std::uint64_t id : {0u, 1u, 7u, 23u}) {
        const EventTrace a = gen.generateEvent(id);
        const EventTrace b = gen.generateEvent(id);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_TRUE(a.ops[i] == b.ops[i]) << "op " << i;
        ASSERT_EQ(a.divergencePoint, b.divergencePoint);
        ASSERT_EQ(a.divergedTail.size(), b.divergedTail.size());
    }
}

TEST(Generator, DifferentSeedsProduceDifferentTraces)
{
    AppProfile p1 = AppProfile::testProfile();
    AppProfile p2 = p1;
    p2.seed = p1.seed + 1;
    const EventTrace a = SyntheticGenerator(p1).generateEvent(0);
    const EventTrace b = SyntheticGenerator(p2).generateEvent(0);
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a.ops[i] != b.ops[i];
    EXPECT_TRUE(differs);
}

TEST(Generator, RespectsEventCountAndMinLength)
{
    const AppProfile p = AppProfile::testProfile();
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    EXPECT_EQ(w->numEvents(), p.numEvents);
    for (std::size_t i = 0; i < w->numEvents(); ++i)
        EXPECT_GE(w->event(i).size(), p.minEventLen);
}

TEST(Generator, AverageLengthInRange)
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 200;
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    const double avg = static_cast<double>(w->totalInstructions()) /
        static_cast<double>(w->numEvents());
    // Exponential-ish distribution around avgEventLen with a floor.
    EXPECT_GT(avg, 0.5 * p.avgEventLen);
    EXPECT_LT(avg, 2.5 * p.avgEventLen);
}

TEST(Generator, InstructionMixNearProfile)
{
    AppProfile p = AppProfile::testProfile();
    p.avgEventLen = 5000;
    p.numEvents = 8;
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    std::map<OpType, std::size_t> counts;
    std::size_t total = 0;
    for (std::size_t e = 0; e < w->numEvents(); ++e) {
        for (const MicroOp &op : w->event(e).ops) {
            ++counts[op.type()];
            ++total;
        }
    }
    const double loads =
        static_cast<double>(counts[OpType::Load]) / total;
    const double stores =
        static_cast<double>(counts[OpType::Store]) / total;
    std::size_t branches = 0;
    for (auto type : {OpType::BranchCond, OpType::BranchDirect,
                      OpType::BranchIndirect, OpType::Call,
                      OpType::Return}) {
        branches += counts[type];
    }
    // The plain-op fractions exclude terminators; allow slack.
    EXPECT_NEAR(loads, p.loadFrac * 0.87, 0.05);
    EXPECT_NEAR(stores, p.storeFrac * 0.87, 0.04);
    EXPECT_GT(static_cast<double>(branches) / total, 0.08);
    EXPECT_LT(static_cast<double>(branches) / total, 0.30);
}

TEST(Generator, StaticProgramIsConsistent)
{
    // The instruction at a PC must decode identically everywhere it is
    // executed: same type, and for calls the same target.
    AppProfile p = AppProfile::testProfile();
    p.avgEventLen = 3000;
    p.numEvents = 6;
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    std::unordered_map<Addr, OpType> type_at;
    std::unordered_map<Addr, Addr> call_target_at;
    for (std::size_t e = 0; e < w->numEvents(); ++e) {
        for (const MicroOp &op : w->event(e).ops) {
            auto [it, inserted] = type_at.emplace(op.pc, op.type());
            if (!inserted) {
                ASSERT_EQ(it->second, op.type()) << std::hex << op.pc;
            }
            if (op.type() == OpType::Call) {
                auto [ct, cins] =
                    call_target_at.emplace(op.pc, op.branchTarget());
                if (!cins) {
                    ASSERT_EQ(ct->second, op.branchTarget());
                }
            }
        }
    }
    EXPECT_GT(type_at.size(), 100u);
}

TEST(Generator, CallsAndReturnsPairUp)
{
    const AppProfile p = AppProfile::testProfile();
    SyntheticGenerator gen(p);
    const EventTrace t = gen.generateEvent(3);
    std::vector<Addr> stack;
    for (const MicroOp &op : t.ops) {
        if (op.type() == OpType::Call) {
            // The generator drops the oldest frame at the depth bound.
            if (stack.size() >= p.maxCallDepth)
                stack.erase(stack.begin());
            stack.push_back(op.pc + 4);
        } else if (op.type() == OpType::Return) {
            if (stack.empty())
                continue; // dispatcher return: free target
            ASSERT_EQ(op.branchTarget(), stack.back());
            stack.pop_back();
        }
    }
}

TEST(Generator, TakenBranchesRedirectThePc)
{
    SyntheticGenerator gen(AppProfile::testProfile());
    const EventTrace t = gen.generateEvent(5);
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        const MicroOp &op = t.ops[i];
        if (op.isBranchOp() && op.taken()) {
            ASSERT_EQ(t.ops[i + 1].pc, op.branchTarget());
        } else {
            ASSERT_EQ(t.ops[i + 1].pc, op.pc + 4);
        }
    }
}

TEST(Generator, DependencyRateApproximatesProfile)
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 600;
    p.avgEventLen = 220;
    p.minEventLen = 60;
    p.dependencyRate = 0.10;
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    const double indep = w->independentEventFraction();
    EXPECT_NEAR(indep, 0.90, 0.035);
}

TEST(Generator, DependentEventsHaveDivergedTails)
{
    AppProfile p = AppProfile::testProfile();
    p.dependencyRate = 1.0; // every event (but the first) depends
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    EXPECT_TRUE(w->event(0).independent());
    for (std::size_t i = 1; i < w->numEvents(); ++i) {
        const EventTrace &t = w->event(i);
        ASSERT_FALSE(t.independent());
        ASSERT_LT(t.divergencePoint, t.size());
        ASSERT_FALSE(t.divergedTail.empty());
        // The diverged tail starts at the divergence PC.
        EXPECT_EQ(t.divergedTail[0].pc, t.ops[t.divergencePoint].pc);
        EXPECT_LT(t.speculativeMatchFraction(), 1.0);
    }
}

TEST(Generator, SpeculationAccuracyMatchesPaperAtDefaultRate)
{
    // With the default ~2% dependence rate, the average speculative
    // match fraction across events is > 98% (paper: >99% match and
    // ~98% of forked pre-executions run to completion).
    SyntheticGenerator gen(AppProfile::byName("amazon"));
    double sum = 0;
    const std::size_t n = 40;
    for (std::size_t i = 0; i < n; ++i)
        sum += gen.generateEvent(i).speculativeMatchFraction();
    EXPECT_GT(sum / static_cast<double>(n), 0.98);
}

TEST(Generator, WarmSetCoversSharedAndAppCode)
{
    const AppProfile p = AppProfile::testProfile();
    SyntheticGenerator gen(p);
    const auto ranges = gen.warmSet();
    ASSERT_GE(ranges.size(), 3u);
    // Shared code range.
    EXPECT_EQ(ranges[0].first, layout::sharedCodeBase);
    // All hot-pool code PCs of a generated event fall inside some
    // warm range; cold-region PCs do not have to.
    const auto w = gen.generate();
    const Addr pool_end = layout::appCodeBase +
        Addr{p.codeRegionPool} * p.blocksPerRegion * blockBytes;
    std::size_t in_warm = 0, total = 0;
    for (const MicroOp &op : w->event(0).ops) {
        ++total;
        if (op.pc >= layout::sharedCodeBase && op.pc < pool_end)
            ++in_warm;
    }
    EXPECT_GT(static_cast<double>(in_warm) / total, 0.8);
}

TEST(Generator, ArgObjectsDistinctPerEvent)
{
    SyntheticGenerator gen(AppProfile::testProfile());
    const EventTrace a = gen.generateEvent(0);
    const EventTrace b = gen.generateEvent(1);
    EXPECT_NE(a.argObjectAddr, b.argObjectAddr);
}

// pixlr allocates the most blocks per event, so its allocation slots
// reach furthest: unwrapped, event id eventSlots would put its argument
// object at allocBase.
TEST(Generator, EventIdsWrapOntoSlotsInsideTheOpRecord)
{
    // Every event slot's argument object and allocations stay inside
    // their own region, and the shared heap below the KV heap, so no
    // event id aliases another region's data.
    const AppProfile p = AppProfile::byName("pixlr");
    ASSERT_EQ(p.allocBlocksPerEvent, layout::maxAllocBlocksPerEvent);
    const Addr slot_bytes = 2 * Addr{p.allocBlocksPerEvent} * blockBytes;
    EXPECT_EQ(layout::eventSlots, 65'536u);
    EXPECT_LE(layout::argObjectBase +
                  layout::eventSlots * layout::argObjectBytes,
              layout::allocBase);
    EXPECT_LE(layout::allocBase + layout::eventSlots * slot_bytes,
              layout::sharedHeapBase);
    for (const AppProfile &app : AppProfile::webSuite()) {
        EXPECT_LE(layout::sharedHeapBase +
                      Addr{app.sharedHeapBlocks} * blockBytes,
                  layout::kvHeapBase)
            << app.name;
    }

    SyntheticGenerator gen(p);
    for (const std::uint64_t id :
         {layout::eventSlots - 1, layout::eventSlots,
          (std::uint64_t{1} << 40) + 3}) {
        const std::uint64_t slot = id % layout::eventSlots;
        const EventTrace t = gen.generateEvent(id);
        const Addr arg_lo =
            layout::argObjectBase + slot * layout::argObjectBytes;
        EXPECT_EQ(t.argObjectAddr, arg_lo);
        const Addr alloc_lo = layout::allocBase + slot * slot_bytes;
        std::size_t in_slot = 0;
        for (const MicroOp &op : t.ops) {
            if (!op.isMemoryOp())
                continue;
            EXPECT_LT(op.memAddr, OpSequence::dataAddrLimit);
            if (op.memAddr >= alloc_lo && op.memAddr < alloc_lo + slot_bytes)
                ++in_slot;
            else if (op.memAddr >= layout::argObjectBase &&
                     op.memAddr < layout::sharedHeapBase) {
                EXPECT_GE(op.memAddr, arg_lo) << "event " << id;
                EXPECT_LT(op.memAddr, arg_lo + layout::argObjectBytes)
                    << "event " << id;
            }
        }
        EXPECT_GT(in_slot, 0u) << "event " << id;
    }
}

TEST(Generator, SuiteProfilesAreWellFormed)
{
    const auto suite = AppProfile::webSuite();
    ASSERT_EQ(suite.size(), 7u);
    std::unordered_set<std::string> names;
    for (const AppProfile &p : suite) {
        names.insert(p.name);
        EXPECT_GT(p.numEvents, 0u);
        EXPECT_GT(p.avgEventLen, 1000.0);
        EXPECT_GT(p.paperEvents, 0.0);
        EXPECT_GT(p.paperInstMillions, 0.0);
        EXPECT_LE(p.loadFrac + p.storeFrac, 1.0);
        EXPECT_LE(p.argFrac + p.sharedHeapFrac + p.allocFrac +
                      p.coldDataFrac,
                  1.0);
    }
    EXPECT_EQ(names.size(), 7u);
    EXPECT_TRUE(names.count("amazon"));
    EXPECT_TRUE(names.count("pixlr"));
}

TEST(GeneratorDeathTest, UnknownProfileNameFatals)
{
    EXPECT_DEATH((void)AppProfile::byName("netscape"), "unknown");
}

TEST(GeneratorDeathTest, ZeroEventsFatal)
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 0;
    EXPECT_DEATH(SyntheticGenerator{p}, "zero events");
}

TEST(GeneratorDeathTest, AllocBlocksBeyondTheLayoutFatal)
{
    AppProfile p = AppProfile::testProfile();
    p.allocBlocksPerEvent = layout::maxAllocBlocksPerEvent + 1;
    EXPECT_DEATH(SyntheticGenerator{p}, "blocks per event");
}

namespace
{

/** FNV-1a 64 over a sequence of 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(const OpSequence &ops)
    {
        add(ops.size());
        for (const MicroOp &op : ops) {
            add(op.pc);
            add(static_cast<std::uint64_t>(op.type()));
            add(op.taken());
            add(op.srcA);
            add(op.srcB);
            add(op.dest);
            add(op.memAddr);
            add(op.branchTarget());
        }
    }

    void
    add(const EventTrace &t)
    {
        add(t.id);
        add(t.handlerType);
        add(t.handlerPc);
        add(t.argObjectAddr);
        add(t.divergencePoint);
        add(t.ops);
        add(t.divergedTail);
    }
};

} // namespace

TEST(Generator, OutputDigestIsPinned)
{
    // Every field of a fixed event window, for every shipped profile,
    // hashed and pinned: a generator change that is meant to be a pure
    // speed-up must leave these digests unchanged. The server profiles
    // go through the shaped path (EventShape handler, length and
    // key-value overlay). A digest moves only with an intended change
    // to the generated workload; record the new value then.
    struct Window
    {
        std::string name;
        std::uint64_t digest;
        std::size_t diverged; //!< dependent events inside the window
    };
    std::vector<Window> got;
    auto digestOf = [&](const std::string &name, std::uint64_t events,
                        auto &&make) {
        Fnv f;
        std::size_t diverged = 0;
        for (std::uint64_t id = 0; id < events; ++id) {
            const EventTrace t = make(id);
            f.add(t);
            diverged += t.independent() ? 0 : 1;
        }
        got.push_back({name, f.h, diverged});
    };
    for (const AppProfile &p : AppProfile::webSuite()) {
        SyntheticGenerator gen(p);
        digestOf(p.name, 8,
                 [&](std::uint64_t id) { return gen.generateEvent(id); });
    }
    {
        SyntheticGenerator gen(AppProfile::testProfile());
        digestOf("test", AppProfile::testProfile().numEvents,
                 [&](std::uint64_t id) { return gen.generateEvent(id); });
    }
    {
        // The shipped rates leave few dependent events in a short
        // window; these variants pin the diverged-tail walk too.
        AppProfile p = AppProfile::testProfile();
        p.dependencyRate = 0.5;
        SyntheticGenerator gen(p);
        digestOf("test-dep", p.numEvents,
                 [&](std::uint64_t id) { return gen.generateEvent(id); });
        AppProfile a = AppProfile::byName("amazon");
        a.dependencyRate = 0.5;
        SyntheticGenerator agen(a);
        digestOf("amazon-dep", 6,
                 [&](std::uint64_t id) { return agen.generateEvent(id); });
    }
    std::vector<ServerProfile> servers = ServerProfile::all();
    servers.push_back(ServerProfile::testProfile());
    for (const ServerProfile &sp : servers) {
        ServerTraceSource src(sp);
        digestOf(sp.name, 300,
                 [&](std::uint64_t id) { return src.makeEvent(id); });
    }

    const std::vector<Window> want = {
        {"amazon", 0x497e071ab1ad3c7fULL, 0},
        {"bing", 0x3ec6a7a2776171a0ULL, 0},
        {"cnn", 0x9fd88cd4d33062f2ULL, 0},
        {"facebook", 0x333147243cf25ae5ULL, 0},
        {"gmaps", 0x09bf41f896afc4f6ULL, 0},
        {"gdocs", 0x235d87052413639fULL, 0},
        {"pixlr", 0xf0245faab3d30383ULL, 0},
        {"test", 0x67daa8835aeb29a6ULL, 0},
        {"test-dep", 0x7a5a9b0371d313ccULL, 9},
        {"amazon-dep", 0xaf7ddd202db1afa8ULL, 4},
        {"memcached", 0x61d34feced41642aULL, 0},
        {"testsrv", 0xdd00dac519f0eb0aULL, 7},
    };
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(want[i].name);
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].digest, want[i].digest)
            << std::hex << "0x" << got[i].digest;
        EXPECT_EQ(got[i].diverged, want[i].diverged);
    }
}

TEST(Generator, IntegerCutsMatchDoubleForms)
{
    // Each static-hash cut against the double expression it replaces,
    // over its whole domain, for every shipped profile; and each
    // profile Bernoulli cut at its threshold (real() is x * 2^-53).
    std::vector<AppProfile> profiles = AppProfile::webSuite();
    profiles.push_back(AppProfile::testProfile());
    for (const ServerProfile &sp : ServerProfile::all())
        profiles.push_back(sp.app);
    profiles.push_back(ServerProfile::testProfile().app);

    const auto check = [](const char *what, std::uint64_t domain,
                          std::uint64_t cut, auto &&holds) {
        SCOPED_TRACE(what);
        ASSERT_LE(cut, domain);
        for (std::uint64_t k = 0; k < domain; ++k)
            ASSERT_EQ(k < cut, holds(k)) << "k = " << k;
    };
    const auto frac = [](std::uint64_t domain, double f) {
        return [=](std::uint64_t k) {
            return static_cast<double>(k) / static_cast<double>(domain) <
                f;
        };
    };
    const auto bernoulli = [](const char *what, std::uint64_t cut,
                              double p) {
        SCOPED_TRACE(what);
        constexpr std::uint64_t top = std::uint64_t{1} << 53;
        const auto holds = [&](std::uint64_t x) {
            return static_cast<double>(x) * 0x1.0p-53 < p;
        };
        ASSERT_LE(cut, top);
        if (cut > 0) {
            EXPECT_TRUE(holds(cut - 1));
        }
        if (cut < top) {
            EXPECT_FALSE(holds(cut));
        }
    };

    constexpr std::uint64_t kd = WalkConstants::kindDomain;
    constexpr std::uint64_t fd = WalkConstants::fracDomain;
    for (const AppProfile &p : profiles) {
        SCOPED_TRACE(p.name);
        const SyntheticGenerator gen(p);
        const WalkConstants &c = gen.constants();
        const double p_term = 1.0 / (p.avgBasicBlockLen + 1.0);
        check("terminator", kd, c.terminator, [&](std::uint64_t k) {
            return static_cast<double>(k) < 16384.0 * p_term;
        });
        double acc = p.callFrac;
        check("call", kd, c.call, frac(kd, acc));
        acc += p.returnFrac;
        check("return", kd, c.ret, frac(kd, acc));
        acc += p.indirectFrac;
        check("indirect", kd, c.indirect, frac(kd, acc));
        acc += p.loopFrac;
        check("loop", kd, c.loop, frac(kd, acc));
        check("biased", fd, c.biased, frac(fd, p.biasedBranchFrac));
        check("correlated", fd, c.correlated,
              frac(fd, p.biasedBranchFrac + p.correlatedBranchFrac));
        check("shared code", fd, c.sharedCode,
              frac(fd, p.sharedCodeFraction));
        check("cold code", fd, c.coldCode, frac(fd, p.coldCodeFraction));
        check("load", fd, c.load, frac(fd, p.loadFrac));
        check("store", fd, c.store, frac(fd, p.loadFrac + p.storeFrac));
        check("fp", fd, c.fp,
              frac(fd, p.loadFrac + p.storeFrac +
                           p.fpFrac * (1.0 - p.loadFrac - p.storeFrac)));

        bernoulli("data repeat", c.dataRepeat, p.dataRepeatFrac);
        bernoulli("shared hot", c.sharedHot, p.sharedHotFrac);
        bernoulli("branch bias", c.branchBias, p.branchBias);
        bernoulli("dependency", c.dependency, p.dependencyRate);
        double data = p.argFrac;
        bernoulli("arg", c.arg, data);
        data += p.sharedHeapFrac;
        bernoulli("shared heap", c.sharedHeap, data);
        data += p.allocFrac;
        bernoulli("alloc", c.alloc, data);
        data += p.coldDataFrac;
        bernoulli("cold data", c.coldData, data);
    }
}

/**
 * @file
 * Tests for workload serialization: lossless round-trips (including
 * divergence tails and warm sets), format validation, and robustness
 * against corrupt or truncated input.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/simulator.hh"
#include "trace/trace_io.hh"
#include "workload/builder.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

void
expectEqualWorkloads(const Workload &a, const Workload &b)
{
    ASSERT_EQ(a.numEvents(), b.numEvents());
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.warmSet().size(), b.warmSet().size());
    for (std::size_t r = 0; r < a.warmSet().size(); ++r) {
        EXPECT_EQ(a.warmSet()[r].first, b.warmSet()[r].first);
        EXPECT_EQ(a.warmSet()[r].second, b.warmSet()[r].second);
    }
    for (std::size_t e = 0; e < a.numEvents(); ++e) {
        const EventTrace &x = a.event(e);
        const EventTrace &y = b.event(e);
        ASSERT_EQ(x.size(), y.size()) << "event " << e;
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.handlerType, y.handlerType);
        EXPECT_EQ(x.handlerPc, y.handlerPc);
        EXPECT_EQ(x.argObjectAddr, y.argObjectAddr);
        EXPECT_EQ(x.divergencePoint, y.divergencePoint);
        ASSERT_EQ(x.divergedTail.size(), y.divergedTail.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            ASSERT_TRUE(x.ops[i] == y.ops[i]);
        for (std::size_t i = 0; i < x.divergedTail.size(); ++i)
            ASSERT_TRUE(x.divergedTail[i] == y.divergedTail[i]);
    }
}

/** Serialized size of one op: pc, memAddr, target, then five bytes. */
constexpr std::size_t opRecordBytes = 29;

/**
 * Serialize the one-op workload @p w, set bit @p bit of its op record
 * (the little-endian pc from bit 0, memAddr from bit 64, target from
 * bit 128) and read the result back. The clean bytes must load, so a
 * rejection is the corruption's doing.
 */
std::unique_ptr<InMemoryWorkload>
readWithOpBitSet(const Workload &w, std::size_t bit)
{
    std::stringstream buf;
    writeWorkload(buf, w);
    std::string bytes = buf.str();
    std::stringstream clean(bytes);
    EXPECT_NE(readWorkload(clean), nullptr);
    bytes[bytes.size() - opRecordBytes + bit / 8] |=
        static_cast<char>(1 << (bit % 8));
    std::stringstream bad(bytes);
    return readWorkload(bad);
}

} // namespace

TEST(TraceIo, RoundTripsBuilderWorkload)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000, 0x9000);
    b.aluBlock(0x1000, 5).load(0x1014, 0x5000, 3).branch(0x1018, true,
                                                         0x1100);
    b.beginEvent(0x2000);
    b.store(0x2000, 0x6000);
    b.dependsOnPrevious(0, {MicroOp{}});
    auto original = b.build("roundtrip");
    original->setWarmSet({{0x1000, 0x2000}, {0x5000, 0x7000}});

    std::stringstream buf;
    ASSERT_TRUE(writeWorkload(buf, *original));
    auto loaded = readWorkload(buf);
    ASSERT_NE(loaded, nullptr);
    expectEqualWorkloads(*original, *loaded);
}

TEST(TraceIo, RoundTripsGeneratedWorkload)
{
    AppProfile p = AppProfile::testProfile();
    p.dependencyRate = 0.3; // exercise diverged tails
    const auto original = SyntheticGenerator(p).generate();

    std::stringstream buf;
    ASSERT_TRUE(writeWorkload(buf, *original));
    auto loaded = readWorkload(buf);
    ASSERT_NE(loaded, nullptr);
    expectEqualWorkloads(*original, *loaded);
}

TEST(TraceIo, LoadedWorkloadSimulatesIdentically)
{
    const auto original =
        SyntheticGenerator(AppProfile::testProfile()).generate();
    std::stringstream buf;
    writeWorkload(buf, *original);
    auto loaded = readWorkload(buf);
    ASSERT_NE(loaded, nullptr);
    // Identical traces must produce bit-identical simulations.
    const auto a = Simulator(SimConfig::espFull(true)).run(*original);
    const auto b = Simulator(SimConfig::espFull(true)).run(*loaded);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.core.mispredicts, b.core.mispredicts);
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream buf;
    buf << "NOPE-this-is-not-a-trace";
    EXPECT_EQ(readWorkload(buf), nullptr);
}

TEST(TraceIo, RejectsWrongVersion)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).alu(0x1000);
    auto w = b.build("v");
    std::stringstream buf;
    writeWorkload(buf, *w);
    std::string bytes = buf.str();
    bytes[4] = static_cast<char>(0x7f); // clobber version
    std::stringstream bad(bytes);
    EXPECT_EQ(readWorkload(bad), nullptr);
}

TEST(TraceIo, RejectsTruncation)
{
    const auto w =
        SyntheticGenerator(AppProfile::testProfile()).generate();
    std::stringstream buf;
    writeWorkload(buf, *w);
    const std::string bytes = buf.str();
    // Cut the stream at several points; every cut must fail cleanly.
    for (std::size_t cut :
         {bytes.size() / 7, bytes.size() / 3, bytes.size() - 5}) {
        std::stringstream truncated(bytes.substr(0, cut));
        EXPECT_EQ(readWorkload(truncated), nullptr) << "cut " << cut;
    }
}

TEST(TraceIo, RejectsCorruptOpType)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).alu(0x1000);
    auto w = b.build("c");
    std::stringstream buf;
    writeWorkload(buf, *w);
    std::string bytes = buf.str();
    bytes[bytes.size() - 5] = 0x66; // op-type byte of the only op
    std::stringstream bad(bytes);
    EXPECT_EQ(readWorkload(bad), nullptr);
}

TEST(TraceIo, RejectsPcBeyondThirtyTwoBits)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).alu(0x1000);
    // Bit 32 of the pc: the op claims pc 0x1'0000'1000.
    EXPECT_EQ(readWithOpBitSet(*b.build("pc"), 32), nullptr);
}

TEST(TraceIo, RejectsAddressBeyondThirtyFiveBits)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).load(0x1000, 0x5000);
    // Bit 35 of memAddr: the load claims address 0x8'0000'5000.
    EXPECT_EQ(readWithOpBitSet(*b.build("wide"), 64 + 35), nullptr);
}

TEST(TraceIo, RejectsAddressOnNonMemoryOp)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).branch(0x1000, true, 0x1100);
    EXPECT_EQ(readWithOpBitSet(*b.build("mem"), 64), nullptr);
}

TEST(TraceIo, RejectsTargetOnNonControlOp)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).load(0x1000, 0x5000);
    EXPECT_EQ(readWithOpBitSet(*b.build("tgt"), 128), nullptr);
}

TEST(TraceIo, RejectsInsaneDivergencePoint)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).alu(0x1000);
    b.beginEvent(0x2000).alu(0x2000).alu(0x2004);
    b.dependsOnPrevious(1, {MicroOp{}});
    auto w = b.build("d");
    std::stringstream buf;
    writeWorkload(buf, *w);
    std::string bytes = buf.str();
    // Find the second event's divergence field and blow it up: easier
    // to just flip a high byte somewhere in it via re-encode — instead
    // rewrite the whole stream with a divergence >= opCount by hand.
    // (Cheap approach: corrupt every plausible location and require
    // that no corruption yields a workload with an out-of-range
    // divergence point.)
    for (std::size_t pos = 0; pos + 1 < bytes.size(); pos += 9) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(0xff);
        std::stringstream in(mutated);
        auto loaded = readWorkload(in);
        if (loaded) {
            for (std::size_t e = 0; e < loaded->numEvents(); ++e) {
                const EventTrace &ev = loaded->event(e);
                if (!ev.independent()) {
                    EXPECT_LT(ev.divergencePoint, ev.size());
                }
            }
        }
    }
}

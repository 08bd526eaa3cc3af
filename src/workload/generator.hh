/**
 * @file
 * Synthetic asynchronous-program trace generator.
 *
 * Produces, deterministically from an AppProfile seed, the event-trace
 * stream of an asynchronous application: short varied events drawn from
 * a set of handler types, random-walking a large static code image
 * (hot handler regions + a shared runtime + continually-touched fresh
 * code, which yields the compulsory LLC misses ESP feeds on), with a
 * calibrated mix of loads/stores/branches and a small rate of
 * read-after-write dependences between adjacent events (which make
 * speculative pre-execution diverge).
 *
 * Every event regenerates bit-identically from (profile.seed, eventId),
 * which is what lets ESP's pre-execution observe "the same event" the
 * normal execution will later run — exactly the property the paper got
 * from forking off a second Chromium renderer.
 */

#ifndef ESPSIM_WORKLOAD_GENERATOR_HH
#define ESPSIM_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <memory>

#include "trace/workload.hh"
#include "workload/app_profile.hh"

namespace espsim
{

/** Simulated virtual-address-space layout used by generated traces. */
namespace layout
{
/** Shared runtime/JS-engine code (hot across all events). */
constexpr Addr sharedCodeBase = 0x1000'0000;
/** Application code image (handler regions live here). */
constexpr Addr appCodeBase = 0x2000'0000;
/** Call stack (grows down). */
constexpr Addr stackBase = 0x7fff'0000;
/** Event argument objects (one argObjectBytes slot per event). */
constexpr Addr argObjectBase = 0x9000'0000;
constexpr Addr argObjectBytes = 4096;
/** Per-event fresh allocations (bump allocated, twice
 *  allocBlocksPerEvent blocks per event). */
constexpr Addr allocBase = 0xa000'0000;
/** Largest AppProfile::allocBlocksPerEvent the layout holds. */
constexpr unsigned maxAllocBlocksPerEvent = 32;
/** Application shared heap. */
constexpr Addr sharedHeapBase = 0xc000'0000;
/** Key/value store heap (request-serving profiles, src/server). */
constexpr Addr kvHeapBase = 0xd000'0000;
/** Streaming / never-reused data, coldDataBytes of it. */
constexpr Addr coldDataBase = 0x1'0000'0000;
constexpr Addr coldDataBytes = Addr{1} << 30;

/**
 * Per-event slots. Event id i takes argument-object and allocation
 * slot i % eventSlots: as many argument objects as fit below
 * allocBase, 65,536. Every event id below that keeps its own slots; a
 * longer stream reuses them instead of running into the next region.
 */
constexpr std::uint64_t eventSlots =
    (allocBase - argObjectBase) / argObjectBytes;
static_assert(argObjectBase + eventSlots * argObjectBytes <= allocBase &&
                  allocBase + eventSlots * 2 * maxAllocBlocksPerEvent *
                          blockBytes <=
                      sharedHeapBase &&
                  sharedHeapBase < kvHeapBase &&
                  kvHeapBase < coldDataBase &&
                  coldDataBase + coldDataBytes <= OpSequence::dataAddrLimit,
              "the synthetic data regions must be disjoint and fit the "
              "packed op record");
} // namespace layout

/**
 * External shaping of one generated event. Request-serving profiles
 * (src/server) pick the handler (GET/SET/DEL op, HTTP route), the
 * length class and the key's value object per request, then delegate
 * the instruction-level walk to the synthetic generator. Unshaped
 * generation is untouched: the browser profiles' random streams (and
 * thus every committed golden artifact) are bit-identical with or
 * without this struct existing.
 */
struct EventShape
{
    /** Handler type to run (must be < profile.numHandlerTypes). */
    std::uint32_t handler = 0;
    /** Target instruction count (0 = draw from the profile). */
    std::size_t targetLen = 0;
    /** Base of the value object this request touches (0 = none). */
    Addr keyRegion = 0;
    /** Size of the value object in bytes. */
    std::size_t keyBytes = 0;
    /** Fraction of memory ops redirected onto the value object. */
    double keyFrac = 0.0;
};

/**
 * The walk's per-generator constants, computed once from the profile
 * (never per event or per op).
 *
 * Every decision is an integer comparison equal to the double form
 * it replaces, so the generated trace is bit-identical to it:
 *  - a static-hash decision once written `double(h % D) / D < f` is
 *    `h % D < cut`, with cut the smallest k in [0, D] at which the
 *    double form turns false (D when it never does);
 *  - a Bernoulli draw `rng.real() < p` is `rng.trial(bernoulliCut(p))`.
 * Cumulative chains keep the double sums they compared against.
 */
struct WalkConstants
{
    explicit WalkConstants(const AppProfile &p);

    /** Domain of the terminator and terminator-kind hashes. */
    static constexpr std::uint64_t kindDomain = 16384;
    /** Domain of the branch-class, call, indirect and plain-op hashes. */
    static constexpr std::uint64_t fracDomain = 10000;

    // --- static-hash cuts over h % kindDomain.
    std::uint64_t terminator; //!< 16384 / (avgBasicBlockLen + 1)
    std::uint64_t call;       //!< callFrac
    std::uint64_t ret;        //!< + returnFrac
    std::uint64_t indirect;   //!< + indirectFrac
    std::uint64_t loop;       //!< + loopFrac

    // --- static-hash cuts over h % fracDomain.
    std::uint64_t biased;     //!< biasedBranchFrac
    std::uint64_t correlated; //!< + correlatedBranchFrac
    std::uint64_t sharedCode; //!< sharedCodeFraction
    std::uint64_t coldCode;   //!< coldCodeFraction
    std::uint64_t load;       //!< loadFrac
    std::uint64_t store;      //!< + storeFrac
    std::uint64_t fp;         //!< + fpFrac of the non-memory rest

    // --- Bernoulli cuts (bernoulliCut of the profile's rates).
    std::uint64_t dataRepeat;
    std::uint64_t sharedHot;
    std::uint64_t branchBias;
    std::uint64_t dependency;
    std::uint64_t arg;        //!< argFrac
    std::uint64_t sharedHeap; //!< + sharedHeapFrac
    std::uint64_t alloc;      //!< + allocFrac
    std::uint64_t coldData;   //!< + coldDataFrac

    // --- the (seed, constant) half of each static hash of a PC.
    std::uint64_t saltTerm;
    std::uint64_t saltKind;
    std::uint64_t saltClass;
    std::uint64_t saltCall;
    std::uint64_t saltIndirect;
    std::uint64_t saltBiasDir;
    std::uint64_t saltCorrelated;
    std::uint64_t saltPlain;
    std::uint64_t saltLoop;
    std::uint64_t saltForward;
};

/** Deterministic generator of an application's event stream. */
class SyntheticGenerator
{
  public:
    explicit SyntheticGenerator(AppProfile profile);

    /** The profile driving this generator. */
    const AppProfile &profile() const { return profile_; }

    /** The walk's integer decision cuts and hash salts. */
    const WalkConstants &constants() const { return constants_; }

    /** Generate the complete workload (profile.numEvents events). */
    std::unique_ptr<InMemoryWorkload> generate() const;

    /**
     * Generate the trace of one event. Bit-identical for the same
     * (profile.seed, id) pair.
     */
    EventTrace generateEvent(std::uint64_t id) const;

    /**
     * Generate one event with externally chosen handler / length /
     * key-value footprint. Bit-identical for the same
     * (profile.seed, id, shape) triple.
     */
    EventTrace generateEvent(std::uint64_t id,
                             const EventShape &shape) const;

    /**
     * The application's standing memory image: shared runtime code,
     * every handler's hot code regions, and the shared heap. Installed
     * as the workload's warm set (resident in the LLC at session
     * start, like the long-running browser the paper traces).
     */
    std::vector<AddrRange> warmSet() const;

  private:
    AppProfile profile_;
    WalkConstants constants_;

    EventTrace generateShaped(std::uint64_t id,
                              const EventShape *shape) const;
};

} // namespace espsim

#endif // ESPSIM_WORKLOAD_GENERATOR_HH

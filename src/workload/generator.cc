#include "workload/generator.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/addr_map.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace espsim
{

namespace
{

/** The (b, c) half of mix(a, b, c), hoisted where b and c are fixed. */
std::uint64_t
mixSalt(std::uint64_t b, std::uint64_t c)
{
    return 0x9e3779b97f4a7c15ULL * (b + 1) + c * 0xbf58476d1ce4e5b9ULL;
}

/** mix(a, b, c) given salt = mixSalt(b, c). */
std::uint64_t
mixSalted(std::uint64_t a, std::uint64_t salt)
{
    std::uint64_t z = a + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** splitmix64-style stateless mixer for deriving static properties. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return mixSalted(a, mixSalt(b, c));
}

/** Bernoulli cuts of the walk's fixed probabilities. */
constexpr std::uint64_t cutHalf = bernoulliCut(0.5);
constexpr std::uint64_t cutAllocReuse = bernoulliCut(0.55);
constexpr std::uint64_t cutLoadChain = bernoulliCut(0.30);
constexpr std::uint64_t cutStoreChain = bernoulliCut(0.40);
constexpr std::uint64_t cutAluChain = bernoulliCut(0.45);
constexpr std::uint64_t cutBranchChain = bernoulliCut(0.2);

/**
 * Smallest k in [0, domain] at which @p holds(k) turns false (domain
 * when it never does). @p holds must be true on a prefix of the
 * domain and false after it.
 */
template <typename Pred>
std::uint64_t
firstFalse(std::uint64_t domain, Pred holds)
{
    std::uint64_t lo = 0;
    std::uint64_t hi = domain;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (holds(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/** Cut of the static-hash decision `double(h % domain) / domain < frac`;
 *  the quotient only grows with k, so the decision holds on a prefix. */
std::uint64_t
fracCut(std::uint64_t domain, double frac)
{
    return firstFalse(domain, [&](std::uint64_t k) {
        return static_cast<double>(k) / static_cast<double>(domain) < frac;
    });
}

/** Behaviour classes of conditional-branch PCs. */
enum class BranchClass
{
    Biased,     //!< almost always one direction
    Correlated, //!< function of recent outcome history
    Random,     //!< data dependent, unpredictable by tables
};

/** Static kinds of block-terminator instructions. */
enum class TermKind
{
    Call,
    Return,
    Indirect,
    CondForward,
    CondBackward, //!< loop branch
};

/** In-progress state of one event-trace random walk. */
struct Walk
{
    Rng rng;
    OpSequence out;
    std::size_t targetLen = 0;
    Addr pc = 0;
    std::vector<Addr> callStack;
    std::uint64_t histReg = 0; //!< recent conditional outcomes
    Addr argObject = 0;
    std::uint64_t eventId = 0;
    std::uint32_t handler = 0;
    unsigned eventPhase = 0; //!< steadies indirect targets per event
    Addr allocRegion = 0;
    Addr allocOff = 0;
    Addr lastDataBlock = 0; //!< previous memory-op block (reuse model)
    Addr keyRegion = 0;     //!< value object of this request (server)
    std::size_t keyBytes = 0;
    std::uint64_t keyCut = 0; //!< bernoulliCut of the shape's keyFrac
    std::uint8_t lastDest = noReg;
    unsigned opsSinceTerm = 0;
    AddrMap<unsigned> loopCounts;

    explicit Walk(std::uint64_t seed) : rng(seed) {}

    unsigned depth() const
    {
        return static_cast<unsigned>(callStack.size());
    }
};

} // namespace

WalkConstants::WalkConstants(const AppProfile &p)
{
    const double p_term = 1.0 / (p.avgBasicBlockLen + 1.0);
    terminator = firstFalse(kindDomain, [&](std::uint64_t k) {
        return static_cast<double>(k) < 16384.0 * p_term;
    });
    double acc = p.callFrac;
    call = fracCut(kindDomain, acc);
    acc += p.returnFrac;
    ret = fracCut(kindDomain, acc);
    acc += p.indirectFrac;
    indirect = fracCut(kindDomain, acc);
    acc += p.loopFrac;
    loop = fracCut(kindDomain, acc);

    biased = fracCut(fracDomain, p.biasedBranchFrac);
    correlated =
        fracCut(fracDomain, p.biasedBranchFrac + p.correlatedBranchFrac);
    sharedCode = fracCut(fracDomain, p.sharedCodeFraction);
    coldCode = fracCut(fracDomain, p.coldCodeFraction);
    load = fracCut(fracDomain, p.loadFrac);
    store = fracCut(fracDomain, p.loadFrac + p.storeFrac);
    fp = fracCut(fracDomain,
                 p.loadFrac + p.storeFrac +
                     p.fpFrac * (1.0 - p.loadFrac - p.storeFrac));

    dataRepeat = bernoulliCut(p.dataRepeatFrac);
    sharedHot = bernoulliCut(p.sharedHotFrac);
    branchBias = bernoulliCut(p.branchBias);
    dependency = bernoulliCut(p.dependencyRate);
    double data = p.argFrac;
    arg = bernoulliCut(data);
    data += p.sharedHeapFrac;
    sharedHeap = bernoulliCut(data);
    data += p.allocFrac;
    alloc = bernoulliCut(data);
    data += p.coldDataFrac;
    coldData = bernoulliCut(data);

    saltTerm = mixSalt(p.seed, 0x7e12);
    saltKind = mixSalt(p.seed, 0x7e57);
    saltClass = mixSalt(p.seed, 0xbc);
    saltCall = mixSalt(p.seed, 0xca11);
    saltIndirect = mixSalt(p.seed, 0x19d);
    saltBiasDir = mixSalt(p.seed, 0xd1);
    saltCorrelated = mixSalt(p.seed, 0xc0);
    saltPlain = mixSalt(p.seed, 0x0b);
    saltLoop = mixSalt(p.seed, 0x100b);
    saltForward = mixSalt(p.seed, 0x5c1);
}

SyntheticGenerator::SyntheticGenerator(AppProfile profile)
    : profile_(std::move(profile)), constants_(profile_)
{
    if (profile_.numEvents == 0)
        fatal("profile '%s' has zero events", profile_.name.c_str());
    if (profile_.blocksPerRegion == 0 || profile_.codeRegionPool == 0)
        fatal("profile '%s' has an empty code image",
              profile_.name.c_str());
    if (profile_.allocBlocksPerEvent > layout::maxAllocBlocksPerEvent)
        fatal("profile '%s' allocates %u blocks per event, above %u",
              profile_.name.c_str(), profile_.allocBlocksPerEvent,
              layout::maxAllocBlocksPerEvent);
}

namespace
{

/**
 * Generator internals bound to one profile.
 *
 * The *static program* is a pure function of (PC, seed): whether a PC
 * is a block terminator, its instruction type, a branch's kind/class/
 * target, a call's destination — all derived by hashing the PC. Only
 * the *dynamics* vary per visit: conditional outcomes, indirect-target
 * selection (per-event phase), memory addresses, loop exits. Branch
 * predictors therefore see stable, learnable static branches exactly
 * as they would in real code, while the footprint and path coverage
 * vary event to event.
 */
class WalkEngine
{
  public:
    WalkEngine(const AppProfile &p, const WalkConstants &c)
        : p_(p), c_(c)
    {
    }

    /** Run a walk until it reaches its target length. step() emits
     *  exactly one op per call, so the reservation is exact; the call
     *  stack never outgrows maxCallDepth. */
    void
    run(Walk &st) const
    {
        st.out.reserve(st.targetLen);
        st.callStack.reserve(p_.maxCallDepth);
        while (st.out.size() < st.targetLen)
            step(st);
    }

    /** Draw this event's target length (exponential-ish, floored). */
    std::size_t
    drawLength(Rng &rng) const
    {
        const double u = std::max(rng.real(), 1e-12);
        double len = p_.avgEventLen * -std::log(1.0 - u);
        len = std::min(len, 12.0 * p_.avgEventLen);
        return std::max<std::size_t>(static_cast<std::size_t>(len),
                                     p_.minEventLen);
    }

    /** Entry PC of handler @p h (its base region). */
    Addr
    handlerEntry(std::uint32_t h) const
    {
        return entryAt(handlerBaseSlot(h), 0);
    }

  private:
    const AppProfile &p_;
    const WalkConstants &c_;

    /** Function entries are quantised to 128 B boundaries. */
    static constexpr Addr entryStride = 64;

    Addr
    regionBase(std::uint64_t slot) const
    {
        return layout::appCodeBase +
            slot * p_.blocksPerRegion * blockBytes;
    }

    Addr
    regionBytes() const
    {
        return p_.blocksPerRegion * blockBytes;
    }

    /** Region-slot index containing @p pc (app code space only). */
    std::uint64_t
    slotOf(Addr pc) const
    {
        return (pc - layout::appCodeBase) / regionBytes();
    }

    /** First slot index of the cold (never-warm) code space. */
    std::uint64_t
    coldSlotBase() const
    {
        return p_.codeRegionPool;
    }

    /** Quantised entry inside region @p slot selected by hash @p h. */
    Addr
    entryAt(std::uint64_t slot, std::uint64_t h) const
    {
        const Addr entries = std::max<Addr>(regionBytes() / entryStride, 1);
        return regionBase(slot) + (h % entries) * entryStride;
    }

    std::uint64_t
    handlerBaseSlot(std::uint32_t handler) const
    {
        return mix(p_.seed, handler, 0x1000) % p_.codeRegionPool;
    }

    /** Quantised entry in the shared runtime, skew-selected. */
    Addr
    sharedEntry(std::uint64_t h) const
    {
        // Square the hash fraction for skew: a few runtime entry
        // points (dispatch, GC barriers, DOM glue) dominate.
        const double u = static_cast<double>(h % 65536) / 65536.0;
        const auto span =
            static_cast<std::uint64_t>(p_.sharedCodeBlocks) * blockBytes /
            entryStride;
        const auto idx = static_cast<std::uint64_t>(
            u * u * static_cast<double>(span));
        return layout::sharedCodeBase + idx * entryStride;
    }

    // --- static decode ----------------------------------------------

    bool
    isTerminator(Addr pc) const
    {
        // Every 24th instruction slot terminates unconditionally so
        // straight-line runs are bounded; this is a *static* property
        // (the decode at a PC never depends on how it was reached).
        if ((pc >> 2) % 24 == 23)
            return true;
        return mixSalted(pc, c_.saltTerm) % WalkConstants::kindDomain <
            c_.terminator;
    }

    TermKind
    termKind(Addr pc) const
    {
        const std::uint64_t k =
            mixSalted(pc, c_.saltKind) % WalkConstants::kindDomain;
        if (k < c_.call)
            return TermKind::Call;
        if (k < c_.ret)
            return TermKind::Return;
        if (k < c_.indirect)
            return TermKind::Indirect;
        if (k < c_.loop)
            return TermKind::CondBackward;
        return TermKind::CondForward;
    }

    BranchClass
    branchClass(Addr pc) const
    {
        const std::uint64_t k =
            mixSalted(pc, c_.saltClass) % WalkConstants::fracDomain;
        if (k < c_.biased)
            return BranchClass::Biased;
        if (k < c_.correlated)
            return BranchClass::Correlated;
        return BranchClass::Random;
    }

    /**
     * Fixed direct-call destination of the call at @p pc. Code is laid
     * out with call locality: a call site targets a function within a
     * small slot neighbourhood ahead of its own region (or the shared
     * runtime), so the walk drifts through the code image and the
     * touched footprint grows with event length.
     */
    Addr
    callTarget(Addr pc) const
    {
        const std::uint64_t h = mixSalted(pc, c_.saltCall);
        if (h % WalkConstants::fracDomain < c_.sharedCode)
            return sharedEntry(h >> 16);
        const std::uint64_t span = p_.hotRegionsPerHandler;
        std::uint64_t slot;
        if (pc >= layout::appCodeBase) {
            const std::uint64_t here = slotOf(pc);
            if (here >= coldSlotBase()) {
                // Calls within fresh code stay in its neighbourhood.
                slot = here + 1 + (h >> 8) % 3;
            } else {
                // Calls stay inside the aligned `span`-region window
                // containing the call site: one module of the code
                // image. Event footprints are therefore bounded by the
                // window set the event visits, not by event length.
                const std::uint64_t window = here / span;
                slot = window * span + (here + 1 + (h >> 8) % span) % span;
            }
        } else {
            // Runtime code calling back into the application.
            slot = (h >> 8) % p_.codeRegionPool;
        }
        return entryAt(slot, h >> 24);
    }

    /**
     * Destination of the indirect branch at @p pc for this visit:
     * stable within an event (the same receiver object), varies across
     * events, and reaches event-specific fresh code with probability
     * coldCodeFraction — this is how compulsory-miss code keeps
     * arriving, like newly JITted or first-touched functions.
     */
    Addr
    indirectTarget(const Walk &st, Addr pc) const
    {
        const std::uint64_t h = mixSalted(pc, c_.saltIndirect);
        const unsigned fanout = 1 + static_cast<unsigned>((h >> 3) % 6);
        const unsigned which =
            (st.eventPhase + static_cast<unsigned>(h >> 16)) % fanout;
        const std::uint64_t hw = mix(h, which, 0x3b);
        if (hw % WalkConstants::fracDomain < c_.coldCode) {
            // Event-specific fresh code (JIT output, first-touched
            // functions): slots beyond the warm pool, so they are
            // compulsory-miss territory.
            const std::uint64_t slot = coldSlotBase() +
                mix(p_.seed, st.handler * 131 + st.eventId, hw >> 8) %
                    (1u << 20);
            return entryAt(slot, hw >> 20);
        }
        // Dispatch re-bases the walk onto one of this event's code
        // windows, cycling every phasePeriod instructions. An event's
        // instruction footprint is the union of a few windows however
        // long it runs — matching the bounded per-event working sets
        // of the paper's Figure 13.
        const std::uint64_t span = p_.hotRegionsPerHandler;
        const std::uint64_t num_windows =
            std::max<std::uint64_t>(p_.codeRegionPool / span, 1);
        const std::uint64_t phase = st.out.size() / p_.phasePeriod;
        const std::uint64_t wslot =
            (phase + (hw >> 7)) % p_.windowsPerEvent;
        const std::uint64_t window =
            mix(p_.seed, st.handler * 64 + st.eventPhase, wslot) %
            num_windows;
        // Early passes over the window set explore new dispatch
        // subgraphs (pass salt); later passes revisit them. Long
        // events therefore build their footprint over the first few
        // passes, then reuse it — misses stay front-loaded.
        const std::uint64_t pass =
            std::min<std::uint64_t>(phase / p_.windowsPerEvent, 3);
        const std::uint64_t slot =
            window * span + (mix(hw >> 4, pass, 0x9a) % span);
        return entryAt(slot, mix(hw >> 24, pass, 0x9b));
    }

    // --- dynamics ----------------------------------------------------

    /** Effective address for the next load or store. */
    Addr
    dataAddress(Walk &st) const
    {
        // Temporal/spatial locality: programs frequently re-touch the
        // line they just used (field accesses on the same object).
        if (st.lastDataBlock != 0 && st.rng.trial(c_.dataRepeat))
            return st.lastDataBlock + 8 * st.rng.below(8);

        // Request-serving overlay (src/server): a slice of accesses
        // lands on the looked-up key's value object in the KV heap.
        // The keyFrac guard short-circuits before any rng draw, so
        // unshaped (browser) events consume an identical rng stream
        // whether or not this overlay exists.
        if (st.keyCut > 0 && st.rng.trial(st.keyCut)) {
            const Addr words = std::max<Addr>(st.keyBytes / 8, 1);
            return st.keyRegion + 8 * st.rng.below(words);
        }

        // One draw against the cumulative cuts: real() is r * 2^-53.
        const std::uint64_t r = st.rng.next() >> 11;
        if (r < c_.arg)
            return st.argObject + 8 * st.rng.below(24);
        if (r < c_.sharedHeap) {
            // Two-tier heap: a hot window of frequently-reused objects
            // plus a long cold tail over the whole heap.
            std::uint64_t block;
            if (st.rng.trial(c_.sharedHot)) {
                block = st.rng.skewed(std::min<std::uint64_t>(
                    p_.sharedHotBlocks, p_.sharedHeapBlocks));
            } else {
                block = st.rng.below(p_.sharedHeapBlocks);
            }
            return layout::sharedHeapBase + block * blockBytes +
                8 * st.rng.below(8);
        }
        if (r < c_.alloc) {
            // Bump allocation with short-range reuse.
            const Addr span = p_.allocBlocksPerEvent * blockBytes;
            if (st.rng.trial(cutAllocReuse) && st.allocOff > 0) {
                const Addr back =
                    std::min<Addr>(st.allocOff, 2 * blockBytes);
                return st.allocRegion + st.allocOff -
                    st.rng.below(back + 1);
            }
            st.allocOff = (st.allocOff + st.rng.range(16, 96)) % span;
            return st.allocRegion + st.allocOff;
        }
        if (r < c_.coldData) {
            // Streaming data, never reused.
            return layout::coldDataBase +
                (st.rng.next() % layout::coldDataBytes);
        }
        // Stack frame of the current call depth.
        return layout::stackBase - st.depth() * 192 -
            8 * st.rng.below(24);
    }

    /** Outcome of the forward conditional branch at @p pc. */
    bool
    conditionalOutcome(Walk &st, Addr pc) const
    {
        bool outcome;
        switch (branchClass(pc)) {
          case BranchClass::Biased: {
            const bool dir = (mixSalted(pc, c_.saltBiasDir) >> 8) & 1;
            outcome = st.rng.trial(c_.branchBias) ? dir : !dir;
            break;
          }
          case BranchClass::Correlated: {
            const auto h = mixSalted(pc, c_.saltCorrelated);
            outcome = (std::popcount(st.histReg & 0x1b) +
                       static_cast<int>((h >> 9) & 1)) &
                1;
            break;
          }
          case BranchClass::Random:
          default:
            outcome = st.rng.trial(cutHalf);
            break;
        }
        st.histReg = (st.histReg << 1) | (outcome ? 1 : 0);
        return outcome;
    }

    // --- emission ----------------------------------------------------

    /**
     * A source register: lastDest when @p chain, else a uniform one
     * drawn now. chain is a coin flip that no predictor can learn, so
     * the draw is branch-free, and callers combine the flip with `&`
     * rather than a short-circuit `&&`.
     */
    static std::uint8_t
    sourceReg(Walk &st, bool chain)
    {
        const std::uint64_t v = st.rng.nextIf(!chain);
        return chain ? st.lastDest
                     : static_cast<std::uint8_t>(v % numArchRegs);
    }

    void
    emitPlainOp(Walk &st) const
    {
        MicroOp op;
        op.pc = st.pc;
        const std::uint64_t h = mixSalted(st.pc, c_.saltPlain);
        const std::uint64_t k = h % WalkConstants::fracDomain;
        if (k < c_.load) {
            op.setType(OpType::Load);
            op.memAddr = dataAddress(st);
            st.lastDataBlock = blockAlign(op.memAddr);
            op.dest = static_cast<std::uint8_t>((h >> 16) % 24);
            op.srcA = sourceReg(
                st, st.rng.trial(cutLoadChain) & (st.lastDest != noReg));
            st.lastDest = op.dest;
        } else if (k < c_.store) {
            op.setType(OpType::Store);
            op.memAddr = dataAddress(st);
            st.lastDataBlock = blockAlign(op.memAddr);
            op.srcA = sourceReg(
                st, st.rng.trial(cutStoreChain) & (st.lastDest != noReg));
            op.srcB = static_cast<std::uint8_t>((h >> 20) % numArchRegs);
        } else {
            op.setType(k < c_.fp ? OpType::FpAlu : OpType::IntAlu);
            op.dest = static_cast<std::uint8_t>((h >> 16) % numArchRegs);
            op.srcA = sourceReg(
                st, st.rng.trial(cutAluChain) & (st.lastDest != noReg));
            op.srcB = static_cast<std::uint8_t>((h >> 24) % numArchRegs);
            st.lastDest = op.dest;
        }
        st.out.push_back(op);
        st.pc += 4;
        ++st.opsSinceTerm;
    }

    void
    emitControl(Walk &st, OpType type, bool taken, Addr target) const
    {
        MicroOp op;
        op.pc = st.pc;
        op.setType(type);
        op.setTaken(taken);
        op.setBranchTarget(taken ? target : 0);
        op.srcA = sourceReg(
            st, st.lastDest != noReg && st.rng.trial(cutBranchChain));
        st.out.push_back(op);
        st.pc = taken ? target : st.pc + 4;
        st.opsSinceTerm = 0;
    }

    /** Emit one instruction (static decode at the walk's PC). */
    void
    step(Walk &st) const
    {
        const Addr pc = st.pc;
        if (!isTerminator(pc)) {
            emitPlainOp(st);
            return;
        }

        const TermKind kind = termKind(pc);
        switch (kind) {
          case TermKind::Call: {
            // Bounded stack: beyond the modeled depth the oldest frame
            // is dropped (matching RAS overflow) so the decode at this
            // PC is always a call.
            const Addr callee = callTarget(pc);
            if (st.depth() >= p_.maxCallDepth)
                st.callStack.erase(st.callStack.begin());
            st.callStack.push_back(pc + 4);
            emitControl(st, OpType::Call, true, callee);
            break;
          }
          case TermKind::Return: {
            // A return with an empty stack is the handler's final
            // return into the dispatcher: still a return instruction,
            // its target just isn't a recorded frame.
            Addr ret;
            if (st.callStack.empty()) {
                ret = indirectTarget(st, pc);
            } else {
                ret = st.callStack.back();
                st.callStack.pop_back();
            }
            emitControl(st, OpType::Return, true, ret);
            break;
          }
          case TermKind::Indirect:
            emitControl(st, OpType::BranchIndirect, true,
                        indirectTarget(st, pc));
            break;
          case TermKind::CondBackward: {
            // Loop branch: per-PC-constant trip count.
            const std::uint64_t h = mixSalted(pc, c_.saltLoop);
            const unsigned trips = 2 + static_cast<unsigned>(h % 13);
            unsigned count = 1;
            if (unsigned *seen = st.loopCounts.find(pc))
                count = ++*seen;
            else
                st.loopCounts.insertOrAssign(pc, count);
            const bool taken = count % trips != 0;
            const Addr target = pc - 4 * (4 + (h >> 8) % 28);
            emitControl(st, OpType::BranchCond, taken, target);
            st.histReg = (st.histReg << 1) | (taken ? 1 : 0);
            break;
          }
          case TermKind::CondForward: {
            const bool taken = conditionalOutcome(st, pc);
            const std::uint64_t h = mixSalted(pc, c_.saltForward);
            const Addr target = pc + 4 + 4 * (5 + h % 26);
            emitControl(st, OpType::BranchCond, taken, target);
            break;
          }
        }
    }
};

} // namespace

EventTrace
SyntheticGenerator::generateEvent(std::uint64_t id) const
{
    return generateShaped(id, nullptr);
}

EventTrace
SyntheticGenerator::generateEvent(std::uint64_t id,
                                  const EventShape &shape) const
{
    return generateShaped(id, &shape);
}

EventTrace
SyntheticGenerator::generateShaped(std::uint64_t id,
                                   const EventShape *shape) const
{
    const AppProfile &p = profile_;
    EventTrace trace;
    trace.id = id;

    WalkEngine engine(p, constants_);
    Walk st(mix(p.seed, id, 0xe7e47));

    st.eventId = id;
    if (shape) {
        if (shape->handler >= p.numHandlerTypes)
            panic("event shape handler %u out of range %u",
                  shape->handler, p.numHandlerTypes);
        st.handler = shape->handler;
        st.keyRegion = shape->keyRegion;
        st.keyBytes = shape->keyBytes;
        st.keyCut = bernoulliCut(shape->keyFrac);
    } else {
        // Handler popularity: half the events come from a skewed head
        // of popular handlers (timers, scroll), half are spread
        // uniformly — consecutive events usually run *different* code,
        // which is what destroys instruction locality in asynchronous
        // programs (§2.1).
        st.handler = static_cast<std::uint32_t>(
            st.rng.trial(cutHalf) ? st.rng.skewed(p.numHandlerTypes)
                               : st.rng.below(p.numHandlerTypes));
    }
    st.eventPhase =
        static_cast<unsigned>(mix(id, st.handler, 0x9a5e) % 64);
    st.targetLen = shape && shape->targetLen
        ? std::max<std::size_t>(shape->targetLen, p.minEventLen)
        : engine.drawLength(st.rng);
    const std::uint64_t slot = id % layout::eventSlots;
    st.argObject = layout::argObjectBase + slot * layout::argObjectBytes;
    st.allocRegion = layout::allocBase +
        slot * (2ULL * p.allocBlocksPerEvent * blockBytes);
    st.pc = engine.handlerEntry(st.handler);

    trace.handlerType = st.handler;
    trace.handlerPc = st.pc;
    trace.argObjectAddr = st.argObject;

    // Inter-event dependence: decided before the walk so the divergence
    // point is a property of the event, not of its length realisation.
    const bool dependent = id > 0 && st.rng.trial(constants_.dependency);
    const double div_frac = 0.15 + 0.70 * st.rng.real();

    engine.run(st);
    trace.ops = std::move(st.out);

    if (dependent) {
        trace.divergencePoint = std::min(
            trace.ops.size() - 1,
            static_cast<std::size_t>(
                div_frac * static_cast<double>(trace.ops.size())));

        // The wrong path a pre-execution follows after reading a stale
        // value: a fresh walk from the divergence PC with its own
        // random stream. Often shorter than the real remainder (the
        // paper's ~2% of forked pre-executions that fail early).
        Walk bad(mix(p.seed, id, 0xbad));
        bad.eventId = id;
        bad.handler = st.handler;
        bad.eventPhase = (st.eventPhase + 17) % 64;
        bad.argObject = st.argObject;
        bad.allocRegion = st.allocRegion;
        bad.keyRegion = st.keyRegion;
        bad.keyBytes = st.keyBytes;
        bad.keyCut = st.keyCut;
        bad.pc = trace.ops[trace.divergencePoint].pc;
        const std::size_t remainder =
            trace.ops.size() - trace.divergencePoint;
        bad.targetLen = std::max<std::size_t>(
            1,
            static_cast<std::size_t>(static_cast<double>(remainder) *
                                     (0.30 + 0.70 * bad.rng.real())));
        engine.run(bad);
        trace.divergedTail = std::move(bad.out);
    }

    return trace;
}

std::vector<AddrRange>
SyntheticGenerator::warmSet() const
{
    const AppProfile &p = profile_;
    std::vector<AddrRange> ranges;
    // Shared runtime code.
    ranges.emplace_back(layout::sharedCodeBase,
                        layout::sharedCodeBase +
                            Addr{p.sharedCodeBlocks} * blockBytes);
    // The application's entire warm code pool (handlers + callees).
    const Addr region_bytes = Addr{p.blocksPerRegion} * blockBytes;
    ranges.emplace_back(layout::appCodeBase,
                        layout::appCodeBase +
                            p.codeRegionPool * region_bytes);
    // The whole shared heap (hot window and tail).
    ranges.emplace_back(layout::sharedHeapBase,
                        layout::sharedHeapBase +
                            Addr{p.sharedHeapBlocks} * blockBytes);
    return ranges;
}

std::unique_ptr<InMemoryWorkload>
SyntheticGenerator::generate() const
{
    std::vector<EventTrace> events;
    events.reserve(profile_.numEvents);
    for (std::uint64_t id = 0; id < profile_.numEvents; ++id)
        events.push_back(generateEvent(id));
    auto workload = std::make_unique<InMemoryWorkload>(
        profile_.name, std::move(events));
    workload->setWarmSet(warmSet());
    return workload;
}

} // namespace espsim

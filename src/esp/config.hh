/**
 * @file
 * Configuration of the Event Sneak Peek architecture extensions.
 * Defaults reproduce the paper's final design (Figures 5 and 8); the
 * knobs expose every ablation the evaluation section studies.
 */

#ifndef ESPSIM_ESP_CONFIG_HH
#define ESPSIM_ESP_CONFIG_HH

#include <array>
#include <cstdint>

#include "cache/cache.hh"
#include "common/types.hh"

namespace espsim
{

/** Branch-predictor handling across execution contexts (Figure 12). */
enum class BranchPolicy
{
    /** ESP-mode branches update the one shared PIR and tables. */
    NoExtraHardware,
    /** A PIR (+RAS) per context; tables shared (no B-list). */
    SeparatePir,
    /** Full predictor replica per context, adopted on promotion. */
    SeparatePirAndTables,
    /** Separate PIR + B-list just-in-time training (the ESP design). */
    SeparatePirPlusBList,
};

/** ESP architecture parameters (defaults = paper Figure 8). */
struct EspConfig
{
    /** Jump-ahead contexts (the paper fixes this at 2; the Figure 13
     *  working-set study instruments deeper). */
    unsigned maxDepth = 2;

    /**
     * The strawman of Figure 10: no cachelets and no lists;
     * pre-execution fills L1/L2 directly and trains the shared branch
     * predictor immediately.
     */
    bool naiveMode = false;

    // Which prediction lists are armed (the ESP-I / ESP-I,B /
    // ESP-I,B,D ablations of Figure 10).
    bool useIList = true;
    bool useDList = true;
    bool useBList = true;

    BranchPolicy branchPolicy = BranchPolicy::SeparatePirPlusBList;

    /** List capacities in bytes, indexed by depth-1 (ESP-1, ESP-2). */
    std::array<std::size_t, 2> iListBytes{499, 68};
    std::array<std::size_t, 2> dListBytes{510, 57};
    std::array<std::size_t, 2> bListDirBytes{566, 80};
    std::array<std::size_t, 2> bListTgtBytes{41, 6};

    /** 6 KB, 12-way cachelets; way partitioning gives ESP-1 5.5 KB and
     *  ESP-2 0.5 KB (§4.2). */
    CacheGeometry icachelet{"I-cachelet", 6 * 1024, 12, 2};
    CacheGeometry dcachelet{"D-cachelet", 6 * 1024, 12, 2};

    /** Prefetch this many instructions ahead of recorded use (§3.6). */
    InstCount prefetchLeadInstructions = 190;

    /** Branch-predictor pre-training lookahead, in branches. */
    std::size_t branchTrainLookahead = 48;

    /** Cycles charged for an ESP context switch (pipeline drain). */
    Cycle contextSwitchCycles = 4;

    /** Depth bound on pre-executing one event, in instructions —
     *  roughly the reach of the prediction lists. */
    InstCount maxPreExecPerEvent = 9000;

    /**
     * Idealisation for the "ideal ESP" curves of Figure 11: unbounded
     * cachelets/lists and zero-latency (always timely) prefetches.
     */
    bool ideal = false;

    /** Record per-depth working-set sizes (Figure 13 study). */
    bool trackWorkingSets = false;

    /** List capacity for @p depth (0-based), honoring `ideal`. */
    std::size_t
    listBytes(const std::array<std::size_t, 2> &caps,
              unsigned depth) const
    {
        if (ideal)
            return 0; // unbounded
        return depth < caps.size() ? caps[depth] : caps.back();
    }

    /** Total extra hardware state in bytes (Figure 8 accounting). */
    std::size_t hardwareBytes(unsigned depth) const;
};

} // namespace espsim

#endif // ESPSIM_ESP_CONFIG_HH

/**
 * @file
 * The canonical statistics surface of a simulation run.
 *
 * Components own their counters as plain struct fields (cheap to bump
 * on the simulation fast path — no map lookup, no virtual call) and
 * *register* them here by name: the registry stores a getter per stat
 * and materialises a point-in-time StatGroup snapshot on demand. The
 * snapshot is the one stat surface: the wiring happens once at
 * construction and the name space is checked for collisions.
 *
 * Three kinds of stats:
 *  - scalars backed by a component counter (uint64 or double field),
 *  - derived values computed at snapshot time (rates, ratios),
 *  - sample distributions (SampleStat), expanded into .count / .mean /
 *    .max / .p95 scalars in the snapshot.
 *
 * Snapshots are name-ordered, so every downstream consumer (text dump,
 * JSON artifact) is deterministic by construction.
 */

#ifndef ESPSIM_REPORT_STAT_REGISTRY_HH
#define ESPSIM_REPORT_STAT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"

namespace espsim
{

/**
 * What backs a registered stat. The counter sampler only reads
 * Counter-kind stats: uint64-backed monotone counters difference
 * exactly in double (values stay < 2^53), so the deltas of
 * consecutive snapshots are exact. Gauges can
 * move both ways, Derived values are ratios of other stats, and
 * Sample expansions are order statistics — none of them difference
 * meaningfully.
 */
enum class StatKind
{
    Counter, ///< uint64-backed, monotone non-decreasing
    Gauge,   ///< double-backed, may move either way
    Derived, ///< computed at snapshot time (rates, ratios)
    Sample,  ///< SampleStat expansion (.count/.mean/.max/.p95)
};

/** Named-stat registry; components register, consumers snapshot. */
class StatRegistry
{
  public:
    using Getter = std::function<double()>;

    /** Register a scalar backed by a live component counter. */
    void registerScalar(const std::string &name,
                        const std::uint64_t *counter);
    void registerScalar(const std::string &name, const double *value);

    /** Register a value computed at snapshot time. */
    void registerDerived(const std::string &name, Getter getter);

    /**
     * Register a sample distribution; the snapshot expands it into
     * `name.count`, `name.mean`, `name.max` and `name.p95`.
     */
    void registerSamples(const std::string &name, const SampleStat *s);

    bool contains(const std::string &name) const;
    std::size_t size() const { return entries_.size(); }

    /** Evaluate every registered stat into a flat StatGroup. */
    StatGroup snapshot() const;

    /** An interned Counter-kind stat: its name and a copy of its
     *  getter. */
    struct CounterHandle
    {
        std::string name;
        Getter getter;
    };

    /**
     * Intern the Counter-kind stats: resolve each name to its getter
     * once, in name order. The counter sampler holds these handles and
     * re-reads values with plain calls — no per-sample string-map
     * construction or lookups.
     */
    std::vector<CounterHandle> counterHandles() const;

  private:
    struct Entry
    {
        Getter getter;
        StatKind kind;
    };

    std::map<std::string, Entry> entries_;

    void insert(const std::string &name, Getter getter, StatKind kind);
};

} // namespace espsim

#endif // ESPSIM_REPORT_STAT_REGISTRY_HH

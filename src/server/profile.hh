/**
 * @file
 * Request-serving workload profiles (the server-side counterpart of
 * the browser suite in workload/app_profile.hh).
 *
 * One family, built on the synthetic generator via EventShape: a
 * memcached-style GET/SET/DEL key/value mix. Each request picks a key
 * by Zipfian popularity; a slice of its memory accesses lands on that
 * key's value object in the dedicated KV heap, so the data working set
 * is the hot head of the key space plus a long tail of cold keys — the
 * classic cache-server profile. The three op kinds run three distinct
 * handlers with distinct length classes (DELs short, SETs long).
 *
 * Everything is deterministic from (profile seed, request id): the
 * request stream regenerates bit-identically event by event, so these
 * profiles stream through StreamingWorkload at flat memory.
 */

#ifndef ESPSIM_SERVER_PROFILE_HH
#define ESPSIM_SERVER_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/app_profile.hh"
#include "workload/streaming.hh"

namespace espsim
{

/** What one request does (artifact/debug surface). */
enum class RequestKind : std::uint8_t
{
    Get = 0,
    Set = 1,
    Del = 2,
};

/** A decoded request: kind, key, length class. */
struct RequestInfo
{
    RequestKind kind = RequestKind::Get;
    std::uint64_t key = 0; //!< KV key index
    std::size_t targetLen = 0;
};

/** One request-serving application. */
struct ServerProfile
{
    std::string name;
    std::string description;

    /** Code image / instruction mix / seed; numHandlerTypes is the
     *  op-kind count. */
    AppProfile app;

    // --- Key/value mix.
    double getFrac = 0.90;
    double setFrac = 0.08;
    double delFrac = 0.02;
    std::uint64_t numKeys = 16384;
    /** Value sizes are 1..valueBlocksMax cache blocks, per-key fixed. */
    unsigned valueBlocksMax = 4;
    /** Fraction of memory ops redirected onto the request's value. */
    double keyAccessFrac = 0.35;
    /** Per-kind event-length multipliers over app.avgEventLen. */
    double getLenScale = 0.7;
    double setLenScale = 1.4;
    double delLenScale = 0.35;

    /** Zipf exponent of key popularity. */
    double zipfSkew = 0.99;

    static ServerProfile memcached();
    /** Tiny profile for fast unit tests / smoke ctests. */
    static ServerProfile testProfile();

    /** The named profile family surfaced by `espsim serve`. */
    static std::vector<ServerProfile> all();
    /** Look up a profile by name (fatal if unknown). */
    static ServerProfile byName(const std::string &name);
};

/**
 * Zipfian sampler over [0, n): P(k) ∝ 1 / (k+1)^skew, drawn by
 * binary-searching a precomputed harmonic CDF. Deterministic given
 * the uniform input.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double skew);

    /** Map a uniform u in [0, 1) to a rank in [0, n). */
    std::uint64_t draw(double u) const;

    std::uint64_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

/** EventSource producing a ServerProfile's request stream. */
class ServerTraceSource final : public EventSource
{
  public:
    explicit ServerTraceSource(ServerProfile profile);

    const std::string &name() const override { return profile_.name; }
    std::size_t numEvents() const override
    {
        return profile_.app.numEvents;
    }
    EventTrace makeEvent(std::uint64_t id) const override;
    std::vector<AddrRange> warmSet() const override;

    /** Decode request @p id without generating its trace. */
    RequestInfo requestFor(std::uint64_t id) const;

    const ServerProfile &profile() const { return profile_; }

  private:
    ServerProfile profile_;
    SyntheticGenerator generator_;
    ZipfSampler zipf_;

    Addr valueBase(std::uint64_t key) const;
    std::size_t valueBytes(std::uint64_t key) const;
};

} // namespace espsim

#endif // ESPSIM_SERVER_PROFILE_HH

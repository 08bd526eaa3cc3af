#include "server/profile.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace espsim
{

namespace
{

/** splitmix64-style stateless mixer (static per-key properties). */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    std::uint64_t z =
        a + 0x9e3779b97f4a7c15ULL * (b + 1) + c * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double skew)
{
    if (n == 0)
        panic("ZipfSampler over an empty population");
    cdf_.resize(static_cast<std::size_t>(n));
    double acc = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), skew);
        cdf_[static_cast<std::size_t>(k)] = acc;
    }
    const double total = acc;
    for (double &v : cdf_)
        v /= total;
}

std::uint64_t
ZipfSampler::draw(double u) const
{
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t k = it == cdf_.end()
        ? cdf_.size() - 1
        : static_cast<std::size_t>(it - cdf_.begin());
    return static_cast<std::uint64_t>(k);
}

ServerTraceSource::ServerTraceSource(ServerProfile profile)
    : profile_(std::move(profile)),
      generator_(profile_.app),
      zipf_(profile_.numKeys, profile_.zipfSkew)
{
    if (profile_.app.numHandlerTypes < 3)
        fatal("server profile '%s': GET/SET/DEL need 3 handler types",
              profile_.name.c_str());
}

RequestInfo
ServerTraceSource::requestFor(std::uint64_t id) const
{
    const ServerProfile &p = profile_;
    Rng rng(mix(p.app.seed, id, 0x5e4e));
    RequestInfo req;

    double len_scale = 1.0;
    const double u = rng.real();
    if (u < p.getFrac) {
        req.kind = RequestKind::Get;
        len_scale = p.getLenScale;
    } else if (u < p.getFrac + p.setFrac) {
        req.kind = RequestKind::Set;
        len_scale = p.setLenScale;
    } else {
        req.kind = RequestKind::Del;
        len_scale = p.delLenScale;
    }
    req.key = zipf_.draw(rng.real());

    // Exponential length draw around the kind's mean, clamped like
    // the generator's drawLength.
    const double u_len = std::max(rng.real(), 1e-12);
    double len =
        len_scale * p.app.avgEventLen * -std::log(1.0 - u_len);
    len = std::min(len, 8.0 * len_scale * p.app.avgEventLen);
    req.targetLen = std::max<std::size_t>(
        static_cast<std::size_t>(len), p.app.minEventLen);
    return req;
}

Addr
ServerTraceSource::valueBase(std::uint64_t key) const
{
    const Addr stride = Addr{profile_.valueBlocksMax} * blockBytes;
    return layout::kvHeapBase + key * stride;
}

std::size_t
ServerTraceSource::valueBytes(std::uint64_t key) const
{
    const unsigned blocks = 1 +
        static_cast<unsigned>(mix(profile_.app.seed, key, 0x5a1) %
                              profile_.valueBlocksMax);
    return std::size_t{blocks} * blockBytes;
}

EventTrace
ServerTraceSource::makeEvent(std::uint64_t id) const
{
    const RequestInfo req = requestFor(id);
    EventShape shape;
    shape.targetLen = req.targetLen;
    shape.handler = static_cast<std::uint32_t>(req.kind);
    shape.keyRegion = valueBase(req.key);
    shape.keyBytes = valueBytes(req.key);
    shape.keyFrac = profile_.keyAccessFrac;
    return generator_.generateEvent(id, shape);
}

std::vector<AddrRange>
ServerTraceSource::warmSet() const
{
    std::vector<AddrRange> ranges = generator_.warmSet();
    // The popular head of the key space is resident in a running cache
    // server; the long tail is not.
    const std::uint64_t hot_keys =
        std::max<std::uint64_t>(profile_.numKeys / 16, 1);
    ranges.emplace_back(layout::kvHeapBase, valueBase(hot_keys));
    return ranges;
}

ServerProfile
ServerProfile::memcached()
{
    ServerProfile p;
    p.name = "memcached";
    p.description = "key/value cache: GET/SET/DEL, Zipfian keys";
    p.app.name = "memcached";
    p.app.description = p.description;
    p.app.seed = 0x6ca5;
    p.app.numEvents = 20000;
    p.app.avgEventLen = 400;
    p.app.minEventLen = 80;
    p.app.numHandlerTypes = 3;
    p.app.hotRegionsPerHandler = 8;
    p.app.codeRegionPool = 512;
    p.app.phasePeriod = 400;
    p.app.windowsPerEvent = 6;
    p.app.argFrac = 0.08;
    p.app.sharedHeapFrac = 0.14;
    p.app.dependencyRate = 0.002;
    return p;
}

ServerProfile
ServerProfile::testProfile()
{
    ServerProfile p;
    p.name = "testsrv";
    p.description = "tiny KV profile for unit tests";
    p.app.name = "testsrv";
    p.app.description = p.description;
    p.app.seed = 42;
    p.app.numEvents = 400;
    p.app.avgEventLen = 220;
    p.app.minEventLen = 60;
    p.app.numHandlerTypes = 3;
    p.app.hotRegionsPerHandler = 6;
    p.app.codeRegionPool = 128;
    p.app.sharedHeapBlocks = 2048;
    p.app.windowsPerEvent = 4;
    p.numKeys = 512;
    return p;
}

std::vector<ServerProfile>
ServerProfile::all()
{
    return {memcached()};
}

ServerProfile
ServerProfile::byName(const std::string &name)
{
    for (ServerProfile &p : all()) {
        if (p.name == name)
            return p;
    }
    if (name == "testsrv")
        return testProfile();
    fatal("unknown server profile '%s' (try: memcached, testsrv)",
          name.c_str());
}

} // namespace espsim

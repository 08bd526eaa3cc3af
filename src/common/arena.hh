/**
 * @file
 * Bump allocator for transient per-event state.
 *
 * Speculation engines stage short-lived arrays at every event boundary
 * (promoted list records, drain queues). Allocating those from the
 * general heap puts malloc/free on the steady-state path; an arena
 * hands out space by bumping a pointer into a retained block and
 * recycles everything with a single reset() at the next boundary.
 * Capacity only ever grows, so after the first few events the loop
 * performs zero heap allocations — an invariant the allocation
 * counter (common/alloc_counter.hh) asserts in tests/test_zero_alloc.cc.
 */

#ifndef ESPSIM_COMMON_ARENA_HH
#define ESPSIM_COMMON_ARENA_HH

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace espsim
{

/**
 * Per-event bump arena.
 *
 * Spans handed out stay valid until reset(): when the current chunk
 * fills up, a larger chunk is chained on rather than moving live
 * data. reset() reclaims all space in O(1) and coalesces the chain
 * into one right-sized chunk, so growth settles after warmup.
 *
 * Only trivially-destructible types may live here: reset() reclaims
 * space without running destructors.
 */
class EventArena
{
  public:
    explicit EventArena(std::size_t initial_bytes = 4096)
    {
        chunks_.push_back(Chunk{
            std::make_unique<std::byte[]>(initial_bytes), initial_bytes});
    }

    /** Uninitialised space for @p count objects of T, aligned. */
    template <typename T>
    T *
    allocate(std::size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without destructors");
        const std::size_t bytes = count * sizeof(T);
        Chunk &cur = chunks_.back();
        std::size_t offset = (used_ + alignof(T) - 1) & ~(alignof(T) - 1);
        if (offset + bytes > cur.size) {
            addChunk(bytes);
            offset = 0;
        }
        Chunk &chunk = chunks_.back();
        used_ = offset + bytes;
        peak_ = totalUsed() > peak_ ? totalUsed() : peak_;
        return reinterpret_cast<T *>(chunk.data.get() + offset);
    }

    /** Copy @p count objects of T into the arena. */
    template <typename T>
    T *
    copy(const T *src, std::size_t count)
    {
        T *dst = allocate<T>(count);
        if (count > 0)
            std::memcpy(dst, src, count * sizeof(T));
        return dst;
    }

    /**
     * Reclaim everything handed out since the last reset. When the
     * event overflowed into extra chunks, coalesce into one chunk
     * sized for the observed peak so the next event fits without
     * allocating; steady state is a pure pointer reset.
     */
    void
    reset()
    {
        if (chunks_.size() > 1) {
            std::size_t total = 0;
            for (const Chunk &c : chunks_)
                total += c.size;
            chunks_.clear();
            chunks_.push_back(
                Chunk{std::make_unique<std::byte[]>(total), total});
        }
        used_ = 0;
        retired_ = 0;
    }

    std::size_t
    capacityBytes() const
    {
        std::size_t total = 0;
        for (const Chunk &c : chunks_)
            total += c.size;
        return total;
    }

    std::size_t usedBytes() const { return totalUsed(); }
    std::size_t peakBytes() const { return peak_; }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    std::size_t totalUsed() const { return retired_ + used_; }

    void
    addChunk(std::size_t need)
    {
        retired_ += used_;
        used_ = 0;
        std::size_t next = chunks_.back().size * 2;
        while (next < need)
            next *= 2;
        chunks_.push_back(
            Chunk{std::make_unique<std::byte[]>(next), next});
    }

    std::vector<Chunk> chunks_;
    std::size_t used_ = 0;    //!< bytes bumped in the current chunk
    std::size_t retired_ = 0; //!< bytes consumed in earlier chunks
    std::size_t peak_ = 0;
};

} // namespace espsim

#endif // ESPSIM_COMMON_ARENA_HH

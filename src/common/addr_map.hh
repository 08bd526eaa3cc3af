/**
 * @file
 * Open-addressed hash map keyed by block-aligned addresses.
 *
 * The in-flight prefetch buffer sits on the per-access path of the
 * memory hierarchy: every demand access with prefetches outstanding
 * probes (and often mutates) it.
 * `std::unordered_map` pays a heap node per entry, a div-based bucket
 * index, and pointer chasing per probe. Addresses are already
 * well-distributed after a Fibonacci multiply, so a linear-probing
 * table with backward-shift deletion keeps every probe inside one or
 * two cache lines and the steady-state loop allocation-free (the
 * store only grows, by doubling, and plateaus quickly).
 */

#ifndef ESPSIM_COMMON_ADDR_MAP_HH
#define ESPSIM_COMMON_ADDR_MAP_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace espsim
{

/** Key telling an empty slot apart; never a valid block address. */
inline constexpr Addr addrMapEmptyKey = ~Addr{0};

/**
 * Linear-probing open-addressed map from Addr to @p V.
 *
 * Grows by doubling at 70% load; erase uses backward-shift (no
 * tombstones), so probe sequences stay short regardless of churn.
 */
template <typename V>
class AddrMap
{
  public:
    explicit AddrMap(std::size_t initial_capacity = 64)
    {
        rehash(roundPow2(initial_capacity));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pointer to the value for @p key, or nullptr. Stable only until
     *  the next mutation. */
    V *
    find(Addr key)
    {
        std::size_t i = homeSlot(key);
        while (keys_[i] != addrMapEmptyKey) {
            if (keys_[i] == key)
                return &vals_[i];
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrMap *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Insert or overwrite; returns true when the key was new. */
    bool
    insertOrAssign(Addr key, const V &value)
    {
        assert(key != addrMapEmptyKey);
        if ((size_ + 1) * 10 > capacity() * 7)
            rehash(capacity() * 2);
        std::size_t i = homeSlot(key);
        while (keys_[i] != addrMapEmptyKey) {
            if (keys_[i] == key) {
                vals_[i] = value;
                return false;
            }
            i = (i + 1) & mask_;
        }
        keys_[i] = key;
        vals_[i] = value;
        ++size_;
        return true;
    }

    /** Remove @p key; returns true when it was present. */
    bool
    erase(Addr key)
    {
        std::size_t i = homeSlot(key);
        while (keys_[i] != key) {
            if (keys_[i] == addrMapEmptyKey)
                return false;
            i = (i + 1) & mask_;
        }
        // Backward-shift deletion: pull forward any entry whose probe
        // path runs through the vacated slot.
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask_;
            if (keys_[j] == addrMapEmptyKey)
                break;
            const std::size_t home = homeSlot(keys_[j]);
            if (((j - home) & mask_) >= ((j - i) & mask_)) {
                keys_[i] = keys_[j];
                vals_[i] = vals_[j];
                i = j;
            }
        }
        keys_[i] = addrMapEmptyKey;
        --size_;
        return true;
    }

    /** Drop all entries; keeps the store (no allocation). */
    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), addrMapEmptyKey);
        size_ = 0;
    }

    /** Visit every (key, value&); order is unspecified. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != addrMapEmptyKey)
                fn(keys_[i], vals_[i]);
        }
    }

  private:
    static std::size_t
    roundPow2(std::size_t n)
    {
        std::size_t pow2 = 8;
        while (pow2 < n)
            pow2 <<= 1;
        return pow2;
    }

    std::size_t capacity() const { return mask_ + 1; }

    std::size_t
    homeSlot(Addr key) const
    {
        // Fibonacci hashing: block addresses share low zero bits, so
        // mix through the golden-ratio multiplier and take high bits.
        return static_cast<std::size_t>(
                   (key * 0x9E3779B97F4A7C15ull) >> 32) &
            mask_;
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Addr> old_keys = std::move(keys_);
        std::vector<V> old_vals = std::move(vals_);
        keys_.assign(new_capacity, addrMapEmptyKey);
        vals_.assign(new_capacity, V{});
        mask_ = new_capacity - 1;
        size_ = 0;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] != addrMapEmptyKey)
                insertOrAssign(old_keys[i], old_vals[i]);
        }
    }

    std::vector<Addr> keys_;
    std::vector<V> vals_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace espsim

#endif // ESPSIM_COMMON_ADDR_MAP_HH

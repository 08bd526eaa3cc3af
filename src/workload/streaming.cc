#include "workload/streaming.hh"

#include <algorithm>

#include "common/logging.hh"

namespace espsim
{

StreamingWorkload::StreamingWorkload(
    std::unique_ptr<const EventSource> source, std::size_t window)
    : source_(std::move(source)),
      name_(source_->name()),
      numEvents_(source_->numEvents()),
      window_(std::max(window, minWindow))
{
}

const EventTrace &
StreamingWorkload::event(std::size_t idx) const
{
    if (idx >= numEvents_)
        panic("streaming workload '%s': event %zu out of range %zu",
              name_.c_str(), idx, numEvents_);

    auto it = std::lower_bound(
        cache_.begin(), cache_.end(), idx,
        [](const Entry &e, std::size_t i) { return e.first < i; });
    if (it == cache_.end() || it->first != idx) {
        std::unique_ptr<EventTrace> slot;
        if (!freeList_.empty()) {
            // Reuse a retired trace's slot, saving its allocation. The
            // move replaces the slot's OpSequence arrays with the new
            // event's; it does not reuse them.
            slot = std::move(freeList_.back());
            freeList_.pop_back();
            *slot = source_->makeEvent(idx);
            ++recycled_;
        } else {
            slot = std::make_unique<EventTrace>(source_->makeEvent(idx));
        }
        it = cache_.insert(it, {idx, std::move(slot)});
        ++generations_;
    }
    const EventTrace &trace = *it->second;

    // While more than window_ traces are resident, recycle those far
    // behind the requested index: a trace survives until the reader
    // asks for an index window_ - 1 past it, which covers the
    // simulator's lookahead contract (idx + 3). The requested trace is
    // never a candidate.
    std::size_t drop = 0;
    while (cache_.size() - drop > window_ &&
           cache_[drop].first + window_ <= idx + 1) {
        if (freeList_.size() < window_)
            freeList_.push_back(std::move(cache_[drop].second));
        ++drop;
    }
    cache_.erase(cache_.begin(), cache_.begin() + drop);

    return trace;
}

std::vector<AddrRange>
StreamingWorkload::warmSet() const
{
    return source_->warmSet();
}

} // namespace espsim

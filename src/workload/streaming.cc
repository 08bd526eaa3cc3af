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
      window_(std::max<std::size_t>(window, 4))
{
}

std::vector<StreamingWorkload::Entry>::iterator
StreamingWorkload::findAt(std::vector<Entry> &entries, std::size_t idx)
{
    return std::lower_bound(
        entries.begin(), entries.end(), idx,
        [](const Entry &e, std::size_t i) { return e.first < i; });
}

const EventTrace &
StreamingWorkload::event(std::size_t idx) const
{
    if (idx >= numEvents_)
        panic("streaming workload '%s': event %zu out of range %zu",
              name_.c_str(), idx, numEvents_);

    std::lock_guard<std::mutex> lock(mutex_);

    auto it = findAt(cache_, idx);
    if (it == cache_.end() || it->first != idx) {
        std::shared_ptr<EventTrace> slot;
        if (!freeList_.empty()) {
            // Reuse a retired trace's slot, saving its shared
            // allocation. The move replaces the slot's OpSequence
            // arrays with the new event's; it does not reuse them.
            slot = std::move(freeList_.back());
            freeList_.pop_back();
            *slot = source_->makeEvent(idx);
            ++recycled_;
        } else {
            slot = std::make_shared<EventTrace>(source_->makeEvent(idx));
        }
        it = cache_.insert(it, {idx, std::move(slot)});
        ++generations_;
    }
    std::shared_ptr<EventTrace> trace = it->second;

    // Pin the trace in the calling thread's recent window so the
    // returned reference outlives cache eviction by other readers.
    // Pins are keyed by index and dropped only once this thread has
    // moved window_ events past them; re-requesting a lookahead event
    // therefore never pushes an older, still-live reference out.
    const std::thread::id tid = std::this_thread::get_id();
    PinWindow *win = nullptr;
    for (PinWindow &w : pins_) {
        if (w.tid == tid) {
            win = &w;
            break;
        }
    }
    if (!win) {
        pins_.push_back(PinWindow{tid, {}});
        win = &pins_.back();
    }
    auto pin = findAt(win->pins, idx);
    if (pin == win->pins.end() || pin->first != idx)
        win->pins.insert(pin, {idx, trace});
    else
        pin->second = trace;
    std::size_t drop = 0;
    while (drop < win->pins.size() &&
           win->pins[drop].first + window_ <= idx + 1) {
        ++drop;
    }
    win->pins.erase(win->pins.begin(), win->pins.begin() + drop);

    // Evict traces far behind the requested index; references to
    // events in [idx - 1, idx + window) stay valid, which covers the
    // simulator's lookahead contract (idx + 3). Entries pinned by a
    // (possibly lagging) reader are skipped, so the cache is bounded
    // by one window per reader thread plus the caller's live window.
    const std::size_t budget = window_ * pins_.size();
    for (std::size_t v = 0; cache_.size() > budget && v < cache_.size();) {
        if (cache_[v].first + window_ > idx + 1)
            break; // inside the caller's live window (and beyond)
        if (cache_[v].second.use_count() > 1) {
            ++v; // another reader still holds it pinned
        } else {
            if (freeList_.size() < window_)
                freeList_.push_back(std::move(cache_[v].second));
            cache_.erase(cache_.begin() + v);
        }
    }

    return *trace;
}

std::size_t
StreamingWorkload::residentTraces() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

std::uint64_t
StreamingWorkload::generations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return generations_;
}

std::uint64_t
StreamingWorkload::recycled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recycled_;
}

std::vector<AddrRange>
StreamingWorkload::warmSet() const
{
    return source_->warmSet();
}

} // namespace espsim

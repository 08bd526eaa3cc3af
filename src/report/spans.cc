#include "report/spans.hh"

#include <algorithm>

namespace espsim
{

namespace
{

/** Heap order: smallest total latency at the front, ties broken by
 *  the *larger* index so the older request survives a tie. */
bool
worstHeapLess(const RequestSpan &a, const RequestSpan &b)
{
    const Cycle ta = a.totalCycles();
    const Cycle tb = b.totalCycles();
    return ta != tb ? ta > tb : a.index < b.index;
}

} // namespace

SpanCollector::SpanCollector(std::size_t worstK) : worstK_(worstK)
{
    worst_.reserve(worstK_);
}

void
SpanCollector::onSpan(const RequestSpan &span)
{
    ++spansRecorded_;
    if (worstK_ == 0)
        return;
    if (worst_.size() < worstK_) {
        worst_.push_back(span); // within reserve(): no allocation
        std::push_heap(worst_.begin(), worst_.end(), worstHeapLess);
        return;
    }
    if (worstHeapLess(span, worst_.front())) {
        std::pop_heap(worst_.begin(), worst_.end(), worstHeapLess);
        worst_.back() = span;
        std::push_heap(worst_.begin(), worst_.end(), worstHeapLess);
    }
}

std::vector<RequestSpan>
SpanCollector::worstSpans() const
{
    std::vector<RequestSpan> out = worst_;
    std::sort(out.begin(), out.end(), worstHeapLess);
    return out;
}

} // namespace espsim

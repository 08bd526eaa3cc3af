#include "report/flight_recorder.hh"

#include "report/timeline.hh"

namespace espsim
{

namespace
{

/** The ring replayed through a flight-recorder-stamped timeline. */
void
replayRing(const SpanCollector &collector, const std::string &configName,
           const std::string &workloadName, EventTimeline &timeline)
{
    timeline.setRunInfo(configName, workloadName);
    timeline.setTraceKind("flight-recorder");
    const FixedRing<RequestSpan> &ring = collector.ring();
    for (std::size_t i = 0; i < ring.size(); ++i)
        timeline.onSpan(ring.at(i));
}

} // namespace

std::string
renderFlightRecorderTrace(const SpanCollector &collector,
                          const std::string &configName,
                          const std::string &workloadName)
{
    EventTimeline timeline;
    replayRing(collector, configName, workloadName, timeline);
    return timeline.renderChromeTrace();
}

bool
writeFlightRecorderTrace(const SpanCollector &collector,
                         const std::string &configName,
                         const std::string &workloadName,
                         const std::string &path)
{
    EventTimeline timeline;
    replayRing(collector, configName, workloadName, timeline);
    return timeline.writeChromeTrace(path);
}

} // namespace espsim

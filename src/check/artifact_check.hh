/**
 * @file
 * The one checker of every artifact espsim writes: suite, table,
 * latency and span artifacts, Chrome timelines and telemetry streams.
 * Past each schema's shape it holds the writers' invariants (results
 * cover apps x configs, quantiles rise to max, a span's buckets tile
 * it, a stream block has contiguous seq, monotone counters and one
 * final line; see artifact_check.cc). The fuzz harness's
 * counter-stream-closure oracle and tests/validate_main.cc run it.
 */

#ifndef ESPSIM_CHECK_ARTIFACT_CHECK_HH
#define ESPSIM_CHECK_ARTIFACT_CHECK_HH

#include <string>
#include <string_view>
#include <vector>

namespace espsim
{

/** Human-readable problems of one artifact (empty = valid). */
using Problems = std::vector<std::string>;

/** Check one JSON artifact, or a telemetry stream if @p stream. */
Problems checkArtifact(std::string_view text, bool stream = false);

} // namespace espsim

#endif // ESPSIM_CHECK_ARTIFACT_CHECK_HH

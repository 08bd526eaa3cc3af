#include "check/artifact_check.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "cpu/ooo_core.hh"
#include "prefetch/inflight.hh"
#include "report/json_reader.hh"
#include "report/json_writer.hh"

namespace espsim
{

namespace
{

using J = JsonValue;

const J none{}; // stands in for a missing list

/** Member @p key of @p o: its number, its length if a list, or NaN. */
double
num(const J *o, const std::string &key)
{
    const J *v = o ? o->find(key) : nullptr;
    if (v && v->isArray())
        return static_cast<double>(v->array.size());
    return v && v->isNumber() ? v->number : NAN;
}

/** Are @p a and @p b two numbers that differ? */
bool
differ(double a, double b)
{
    return a != b && !std::isnan(a) && !std::isnan(b);
}

/** Is @p v a string or number that the `a|b|c` list @p alts names? */
bool
oneOf(const J *v, std::string_view alts)
{
    const std::string text = !v ? "" : v->isString() ? v->string
        : v->isNumber() ? jsonNumber(v->number) : "";
    std::string list = "|";
    list.append(alts).append("|");
    return !text.empty() && list.find('|' + text + '|') != list.npos;
}

/** Does @p v hold what @p code asks for (see Checker::shape)? */
bool
holds(const J *v, char code)
{
    switch (code) {
      case 'n':
        return holds(v, 'f') && v->number == std::floor(v->number);
      case 'f': return v && v->isNumber() && v->number >= 0;
      case 's': return v && v->isString() && !v->string.empty();
      case 'h':
        return holds(v, 's') && v->string.size() == 16 &&
            v->string.find_first_not_of("0123456789abcdef") ==
            std::string::npos;
      case 'd': return v && v->isNumber();
      case 'N': return v && (v->isNumber() || v->isNull());
      case 'o': return v && v->isObject();
      case 'O': return holds(v, 'o') && !v->object.empty();
      case 'l': return v && v->isArray();
      case 'L': return holds(v, 'l') && !v->array.empty();
      default: return v != nullptr;
    }
}

/** Sum over the list or object @p v; NaN unless all are counts. */
double
countSum(const J *v)
{
    if (!holds(v, 'l') && !holds(v, 'o'))
        return NAN;
    double sum = 0;
    for (const J &item : v->array)
        sum += holds(&item, 'n') ? item.number : NAN;
    for (const auto &[key, item] : v->object)
        sum += holds(&item, 'n') ? item.number : NAN;
    return sum;
}

/** Is @p v an object keyed by exactly the @p n names of an enum? */
template <typename Enum>
bool
keyedBy(const J *v, unsigned n, const char *(*name)(Enum))
{
    bool ok = holds(v, 'o') && v->object.size() == n;
    for (unsigned i = 0; ok && i < n; ++i)
        ok = v->find(name(static_cast<Enum>(i))) != nullptr;
    return ok;
}

// Each artifact kind as a Checker::shape spec, keyed by its schema
// tag (a timeline has none).
const std::string provenance =
    "format_version=1 manifest:o{source:s tool_version:s build_type:s";
const std::string served =
    provenance + " config_hash:h profile:s events:n configs:L";
// Quantiles of one sample set rise to max; a violation means the
// reservoir or the summariser is broken.
const std::string summary = ":o{count:n mean:f max:f p50:f p95:f p99:f "
    "p999:f p50<p95 p95<p99 p99<p999 p999<max}";
const std::map<std::string, std::string> specs = {
    // A stat is null when it is not finite.
    {"espsim-suite-artifact",
     provenance + " config_hash:h apps:L configs:L points:n} !matrix "
         "results:l{!listed stats:O{core.cycles:p derived.ipc:p *:N}} "
         "errors?:l{!listed message:s config_hash:h}"},
    {"espsim-table-artifact",
     provenance + "} title:s header:L rows:l !widths"},
    {"espsim-latency-artifact",
     served + " window:n reservoir_capacity:n "
         "arrival:o{mean_gap_cycles:f seed:n}} !perConfig "
         "results:L{!listed cycles:n idle_cycles:n events:n ipc:f "
         "latency:o{queue" + summary + " service" + summary + " total" +
         summary + "} handlers:l{handler:n events:n queue" + summary +
         " service" + summary + "} histogram:o{scale=pow2_cycles buckets:l} "
         "!sums}"},
    {"espsim-span-artifact",
     served + " worst_k:n} !perConfig results:L{!listed cycles:n events:n "
         "spans_recorded:n !worst worst:l{event:n handler:n arrival:n "
         "dispatch:n retire:n queue_cycles:n service_cycles:n "
         "total_cycles:n span_cycles:n instructions:n "
         "esp:o{pre_exec_cycles:n} !closure}}"},
    {"", "traceEvents:L{ph=X|C|M !event} "
         "otherData:o{tool=espsim timeline_format_version=1}"},
};

struct Checker
{
    Problems problems = {};
    const J *manifest = nullptr;

    /** Record @p message unless @p ok. @return ok. */
    bool
    check(bool ok, const std::string &message)
    {
        if (!ok)
            problems.push_back(message);
        return ok;
    }

    /**
     * Check the members of @p o (at path @p at) that @p spec lists,
     * space-separated. `key:code` wants, by code, n a non-negative
     * integer, f a non-negative number, s a non-empty string, h a
     * 16-digit lowercase hex hash, p anything, o an object, O a
     * non-empty one, l a list, L a non-empty one, d a number or N a
     * number or null; a `{spec}` after it checks the object's members,
     * or each item of the list, which must be an object. `key?:code`
     * may be absent, and `*:code` holds for every member. `key=a|b` wants
     * one of those strings or numbers, `key<other` a number no larger
     * than member other, and `!name` runs the invariant name on @p o.
     * @return whether every member holds.
     */
    bool
    shape(const J &o, const std::string &at, std::string_view spec)
    {
        using Invariant = void (Checker::*)(const J &, const std::string &);
        static const std::map<std::string, Invariant> invariants = {
            {"matrix", &Checker::matrix}, {"listed", &Checker::listed},
            {"widths", &Checker::widths}, {"perConfig", &Checker::perConfig},
            {"sums", &Checker::sums}, {"worst", &Checker::worst},
            {"closure", &Checker::closure}, {"event", &Checker::event}};
        static const std::map<char, std::string> kinds = {
            {'n', "a non-negative integer"}, {'f', "a non-negative number"},
            {'s', "a non-empty string"}, {'h', "a 16-digit lowercase hash"},
            {'o', "an object"}, {'O', "a non-empty object"},
            {'l', "a list"}, {'L', "a non-empty list"}, {'p', "present"},
            {'d', "a number"}, {'N', "a number or null"}};
        bool ok = true;
        for (std::size_t pos = 0, end; pos < spec.size(); pos = end + 1) {
            end = std::min(spec.find(' ', pos), spec.size());
            if (spec[pos] == '!') {
                const std::string name(spec.substr(pos + 1, end - pos - 1));
                (this->*invariants.at(name))(o, at);
                continue;
            }
            const std::size_t sep = spec.find_first_of(":=<", pos);
            std::string key(spec.substr(pos, sep - pos));
            const std::string rest(spec.substr(sep + 1, end - sep - 1));
            const bool optional = key.back() == '?';
            if (optional)
                key.pop_back();
            const J *v = o.find(key);
            if (spec[sep] == '=') {
                ok = check(oneOf(v, rest), at + key + " is not " + rest) && ok;
                continue;
            }
            if (spec[sep] == '<') {
                ok = check(!(num(&o, key) > num(&o, rest)),
                           at + key + " > " + at + rest) && ok;
                continue;
            }
            const char code = spec[sep + 1];
            end = sep + 2;
            for (int depth = 0; end < spec.size() &&
                 (depth > 0 || spec[end] == '{'); ++end)
                depth += spec[end] == '{' ? 1 : spec[end] == '}' ? -1 : 0;
            const std::string_view inner = end > sep + 2
                ? spec.substr(sep + 3, end - sep - 4) : "";
            const std::string want = " is not " + kinds.at(code);
            if (key == "*") {
                for (const auto &[name, member] : o.object)
                    ok = check(holds(&member, code), at + name + want) && ok;
                continue;
            }
            if (optional && !v)
                continue;
            if (!check(holds(v, code), at + key + want)) {
                ok = false;
                continue;
            }
            if (!inner.empty() && v->isObject())
                shape(*v, at + key + ".", inner);
            for (std::size_t i = 0; !inner.empty() && i < v->array.size(); ++i)
                item(v->array[i], at + key + "[" + std::to_string(i) + "]",
                     inner);
        }
        return ok;
    }

    /** Check @p v, which must be an object, against @p spec. */
    void
    item(const J &v, const std::string &at, std::string_view spec)
    {
        if (check(v.isObject(), at + " is not an object"))
            shape(v, at + ".", spec);
    }

    /** Suite results plus errors cover the apps x configs matrix. */
    void
    matrix(const J &doc, const std::string &)
    {
        // A failed cell lands in errors instead of results.
        const double cells = num(manifest, "apps") * num(manifest, "configs");
        check(!differ(num(manifest, "points"), cells),
              "manifest.points != apps x configs");
        check(!differ(num(&doc, "results") +
                          (doc.find("errors") ? num(&doc, "errors") : 0),
                      cells),
              "results + errors length != apps x configs");
    }

    /** A cell names an app and a config that the manifest lists. */
    void
    listed(const J &cell, const std::string &at)
    {
        for (const std::string key : {"app", "config"}) {
            const J *names = manifest ? manifest->find(key + "s") : nullptr;
            const J *v = cell.find(key);
            check(!holds(names, 'l') ||
                      std::any_of(names->array.begin(), names->array.end(),
                                  [&](const J &name) {
                                      return v && v->isString() &&
                                          name.isString() &&
                                          name.string == v->string;
                                  }),
                  at + key + " not listed in manifest." + key + "s");
        }
    }

    /** Table rows are as wide as the header. */
    void
    widths(const J &doc, const std::string &)
    {
        const J *rows = doc.find("rows");
        for (std::size_t i = 0; holds(rows, 'l') && i < rows->array.size();
             ++i) {
            check(!differ(rows->array[i].array.size(), num(&doc, "header")),
                  "rows[" + std::to_string(i) + "] width != header width");
        }
    }

    /** A serve artifact has one results cell per config. */
    void
    perConfig(const J &doc, const std::string &)
    {
        check(!differ(num(&doc, "results"), num(manifest, "configs")),
              "results length != manifest.configs length");
    }

    /** Handler events and histogram buckets sum to the cell's counts. */
    void
    sums(const J &cell, const std::string &at)
    {
        // Every served request belongs to exactly one handler.
        const J *handlers = cell.find("handlers");
        double handled = 0;
        for (const J &row : handlers ? handlers->array : none.array)
            handled += num(&row, "events");
        check(!(num(&cell, "handlers") > 0) ||
                  !differ(handled, num(&cell, "events")),
              at + "handlers events sum != " + at + "events");
        const J *hist = cell.find("histogram");
        const J *buckets = hist ? hist->find("buckets") : nullptr;
        const J *latency = cell.find("latency");
        check(!holds(buckets, 'l') || !std::isnan(countSum(buckets)),
              at + "histogram.buckets not all non-negative integers");
        check(!differ(countSum(buckets),
                      num(latency ? latency->find("total") : nullptr,
                          "count")),
              at + "histogram buckets sum != latency.total.count");
    }

    /** A span cell: one span per event, then its worst-K rows. */
    void
    worst(const J &cell, const std::string &at)
    {
        const double spans = num(&cell, "spans_recorded");
        // The core emits one span per retired event.
        check(!differ(spans, num(&cell, "events")),
              at + "spans_recorded != events");
        check(!differ(num(&cell, "worst"),
                      std::isnan(spans) ? NAN
                                        : std::min(num(manifest, "worst_k"),
                                                   spans)),
              at + "worst length != min(worst_k, spans_recorded)");
        std::set<double> events;
        double prev = INFINITY;
        const J *rows = cell.find("worst");
        for (const J &row : holds(rows, 'l') ? rows->array : none.array) {
            const double event = num(&row, "event");
            check(std::isnan(event) || events.insert(event).second,
                  at + "worst event " + jsonNumber(event) + " repeats");
            check(!(num(&row, "total_cycles") > prev),
                  at + "worst not sorted by total_cycles descending");
            prev = num(&row, "total_cycles");
        }
    }

    /** A span closes: queue + service == total, its buckets tile it. */
    void
    closure(const J &span, const std::string &at)
    {
        check(!differ(num(&span, "queue_cycles") +
                          num(&span, "service_cycles"),
                      num(&span, "total_cycles")),
              at + "queue_cycles + service_cycles != total_cycles");
        const J *buckets = span.find("buckets");
        check(keyedBy(buckets, numCycleBuckets, cycleBucketName) &&
                  !std::isnan(countSum(buckets)),
              at + "buckets is not the full cycle-bucket set of counts");
        check(!differ(countSum(buckets), num(&span, "span_cycles")),
              at + "buckets sum != span_cycles");
        const J *esp = span.find("esp");
        check(!differ(num(esp, "pre_exec_cycles"),
                      num(buckets, "esp_pre_exec")),
              at + "esp.pre_exec_cycles != buckets.esp_pre_exec");
        const J *prefetch = esp ? esp->find("prefetch") : nullptr;
        if (check(!holds(esp, 'o') || keyedBy(prefetch, numPrefetchSources,
                                              prefetchSourceName),
                  at + "esp.prefetch is not the full prefetch-source set") &&
            prefetch) {
            for (const auto &[source, stats] : prefetch->object)
                item(stats, at + "esp.prefetch." + source,
                     "issued:n timely:n late:n harmful:n");
        }
    }

    /** A complete (X) or counter (C) event of a Chrome timeline. */
    void
    event(const J &event, const std::string &at)
    {
        if (oneOf(event.find("ph"), "X")) {
            shape(event, at, "name:p ts:p dur:p pid:p tid:p");
            check(!(num(&event, "ts") < 0), at + "ts is negative");
        } else if (oneOf(event.find("ph"), "C")) {
            // A counter sample: numeric series in args, no duration.
            shape(event, at, "name:p ts:p pid:p tid:p args:O{*:d}");
        }
    }

    void
    stream(std::string_view text)
    {
        // The open block's snapshot fields (cycle, events, then its
        // counters) and their values at its last snapshot.
        std::vector<std::string> names;
        std::vector<double> prev;
        double seq = 0;
        bool named = false; // the open block's header is valid
        bool closed = true; // no block is open
        std::size_t block = 0, line = 0;
        for (std::size_t start = 0, end; start < text.size();
             start = end + 1) {
            end = std::min(text.find('\n', start), text.size());
            const std::string at = "line " + std::to_string(++line) + ": ";
            std::string error;
            const auto doc =
                parseJson(text.substr(start, end - start), &error);
            if (!check(doc && doc->isObject(),
                       at + (doc ? "not an object" : error)))
                continue;
            if (doc->find("schema")) {
                // A new block; the previous one must have closed.
                check(closed, at + "block " + std::to_string(block) +
                                  " not closed by a final snapshot");
                ++block;
                closed = false;
                seq = 0;
                names = {"cycle", "events"};
                const J *list = doc->find("names");
                for (const J &name : list ? list->array : none.array)
                    names.push_back(name.isString() ? name.string : "");
                prev.assign(names.size(), 0.0); // counters start at zero
                shape(*doc, at, "format_version=1 config:s workload:s "
                      "config_hash:h period_cycles:f");
                named = shape(*doc, at, "schema=espsim-telemetry-stream "
                              "names:L") &&
                    check(std::count(names.begin(), names.end(), "") == 0,
                          at + "names are not all non-empty strings");
                check(std::adjacent_find(names.begin() + 2, names.end(),
                                         std::greater_equal<>()) ==
                          names.end(),
                      at + "names are not sorted and unique");
                continue;
            }
            if (!check(named, at + "snapshot before a valid block header") ||
                !check(!closed, at + "snapshot after the final snapshot of "
                                     "block " + std::to_string(block)))
                continue;
            seq += 1;
            check(num(doc.get(), "seq") == seq,
                  at + "seq is not " + jsonNumber(seq) + " (contiguous)");
            const bool counted = shape(*doc, at, "cycle:n events:n");
            const J *values = doc->find("values");
            const bool valued = check(
                holds(values, 'l') &&
                    values->array.size() + 2 == names.size() &&
                    std::all_of(values->array.begin(), values->array.end(),
                                [](auto &v) { return v.isNumber(); }),
                at + "values not numeric or length != names length");
            for (std::size_t i = 0; i < names.size(); ++i) {
                if (!(i < 2 ? counted : valued))
                    continue;
                const double now = i < 2 ? num(doc.get(), names[i])
                                         : values->array[i - 2].number;
                check(now >= prev[i], at + names[i] + " decreased");
                prev[i] = now;
            }
            const J *final_ = doc->find("final");
            if (check(!final_ || final_->kind == J::Kind::Bool,
                      at + "final is not a boolean") && final_)
                closed = final_->boolean;
        }
        if (check(block > 0, "no block header found"))
            check(closed, "block " + std::to_string(block) +
                              " not closed by a final snapshot");
    }
};

} // namespace

Problems
checkArtifact(std::string_view text, bool stream)
{
    Checker c;
    if (stream) {
        c.stream(text);
        return c.problems;
    }
    std::string error;
    const auto doc = parseJson(text, &error);
    if (!doc || !doc->isObject())
        return {doc ? "top-level value is not an object" : error};
    const J *schema = doc->find("schema");
    const auto spec = doc->find("traceEvents") ? specs.find("")
        : holds(schema, 's') ? specs.find(schema->string) : specs.end();
    c.manifest = doc->find("manifest");
    if (c.check(spec != specs.end(), "unknown schema"))
        c.shape(*doc, "", spec->second);
    return c.problems;
}

} // namespace espsim

#include "report/artifact.hh"

#include <fstream>

#include "common/version.hh"
#include "report/json_writer.hh"

namespace espsim
{

namespace
{

/** Append one labelled field to a canonical config serialization. */
void
field(std::string &out, const char *name, double v)
{
    out += name;
    out += '=';
    out += jsonNumber(v);
    out += ';';
}

void
field(std::string &out, const char *name, const std::string &v)
{
    out += name;
    out += '=';
    out += v;
    out += ';';
}

void
geometry(std::string &out, const char *name, const CacheGeometry &g)
{
    out += name;
    out += "={";
    field(out, "size", static_cast<double>(g.sizeBytes));
    field(out, "assoc", g.assoc);
    field(out, "lat", static_cast<double>(g.hitLatency));
    out += "};";
}

/** Canonical text form of every architectural parameter of @p c. */
std::string
configCanonical(const SimConfig &c)
{
    std::string out;
    field(out, "name", c.name);
    field(out, "engine", static_cast<double>(c.engine));

    field(out, "core.width", c.core.width);
    field(out, "core.rob", c.core.robSize);
    field(out, "core.lsq", c.core.lsqSize);
    field(out, "core.mispredict",
          static_cast<double>(c.core.mispredictPenalty));
    field(out, "core.btbMiss",
          static_cast<double>(c.core.btbMissPenalty));
    field(out, "core.depth", static_cast<double>(c.core.pipelineDepth));
    field(out, "core.fpExtra",
          static_cast<double>(c.core.fpExtraLatency));
    field(out, "core.perfectBranch", c.core.perfectBranch);
    field(out, "core.looper", c.core.looperOverheadInstr);
    field(out, "core.stallThreshold",
          static_cast<double>(c.core.stallReportThreshold));
    field(out, "core.fetchHide",
          static_cast<double>(c.core.fetchQueueHide));

    geometry(out, "mem.l1i", c.memory.l1i);
    geometry(out, "mem.l1d", c.memory.l1d);
    geometry(out, "mem.l2", c.memory.l2);
    field(out, "mem.latency", static_cast<double>(c.memory.memLatency));
    field(out, "mem.perfectL1I", c.memory.perfectL1I);
    field(out, "mem.perfectL1D", c.memory.perfectL1D);

    field(out, "bp.global",
          static_cast<double>(c.branch.globalEntries));
    field(out, "bp.local", static_cast<double>(c.branch.localEntries));
    field(out, "bp.btb", static_cast<double>(c.branch.btbEntries));
    field(out, "bp.ibtb", static_cast<double>(c.branch.ibtbEntries));
    field(out, "bp.loop", static_cast<double>(c.branch.loopEntries));
    field(out, "bp.ras", c.branch.rasDepth);

    field(out, "pf.nlInstr", c.prefetch.nextLineInstr);
    field(out, "pf.nlData", c.prefetch.nextLineData);
    field(out, "pf.stride", c.prefetch.strideData);

    field(out, "esp.depth", c.esp.maxDepth);
    field(out, "esp.naive", c.esp.naiveMode);
    field(out, "esp.iList", c.esp.useIList);
    field(out, "esp.dList", c.esp.useDList);
    field(out, "esp.bList", c.esp.useBList);
    field(out, "esp.branchPolicy",
          static_cast<double>(c.esp.branchPolicy));
    for (std::size_t d = 0; d < c.esp.iListBytes.size(); ++d) {
        field(out, "esp.iListBytes",
              static_cast<double>(c.esp.iListBytes[d]));
        field(out, "esp.dListBytes",
              static_cast<double>(c.esp.dListBytes[d]));
        field(out, "esp.bListDirBytes",
              static_cast<double>(c.esp.bListDirBytes[d]));
        field(out, "esp.bListTgtBytes",
              static_cast<double>(c.esp.bListTgtBytes[d]));
    }
    geometry(out, "esp.icachelet", c.esp.icachelet);
    geometry(out, "esp.dcachelet", c.esp.dcachelet);
    field(out, "esp.lead",
          static_cast<double>(c.esp.prefetchLeadInstructions));
    field(out, "esp.lookahead",
          static_cast<double>(c.esp.branchTrainLookahead));

    field(out, "ra.warmData", c.runahead.warmData);
    field(out, "ra.trainBp", c.runahead.trainBranchPredictor);
    field(out, "ra.warmInstr", c.runahead.warmInstr);
    field(out, "ra.mispredict",
          static_cast<double>(c.runahead.mispredictPenalty));

    field(out, "en.instr", c.energy.instrDynamic);
    field(out, "en.l1", c.energy.l1Access);
    field(out, "en.l2", c.energy.l2Access);
    field(out, "en.mem", c.energy.memAccess);
    field(out, "en.bp", c.energy.bpAccess);
    field(out, "en.mispredict", c.energy.mispredictWork);
    field(out, "en.cachelet", c.energy.cacheletAccess);
    return out;
}

const char *
versionOr(const std::string &override_str, const char *fallback)
{
    return override_str.empty() ? fallback : override_str.c_str();
}

} // namespace

std::string
configsHash(const std::vector<SimConfig> &configs)
{
    // FNV-1a, 64 bit.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const std::string &s) {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
    };
    for (const SimConfig &c : configs)
        mix(configCanonical(c));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace
{

void
writeManifest(JsonWriter &w, const ArtifactManifest &manifest,
              const std::vector<SimConfig> &configs,
              const std::vector<SuiteRow> &rows)
{
    w.key("manifest").beginObject();
    w.key("source").value(manifest.source);
    w.key("tool_version")
        .value(versionOr(manifest.toolVersion, versionString()));
    w.key("build_type")
        .value(versionOr(manifest.buildType, buildTypeString()));
    w.key("config_hash").value(configsHash(configs));
    w.key("apps").beginArray();
    for (const SuiteRow &row : rows)
        w.value(row.app);
    w.endArray();
    w.key("configs").beginArray();
    for (const SimConfig &c : configs)
        w.value(c.name);
    w.endArray();
    w.key("points").value(
        std::uint64_t{rows.size() * configs.size()});
    w.endObject();
}

} // namespace

std::string
renderSuiteArtifactJson(const ArtifactManifest &manifest,
                        const std::vector<SimConfig> &configs,
                        const std::vector<SuiteRow> &rows)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-suite-artifact");
    w.key("format_version").value(std::uint64_t{artifactFormatVersion});
    writeManifest(w, manifest, configs, rows);
    w.key("results").beginArray();
    for (const SuiteRow &row : rows) {
        for (std::size_t c = 0;
             c < configs.size() && c < row.results.size(); ++c) {
            if (!row.ok(c))
                continue; // failed cells live in the errors block
            const SimResult &r = row.results[c];
            w.beginObject();
            w.key("app").value(row.app);
            w.key("config").value(configs[c].name);
            w.key("stats").beginObject();
            for (const auto &[name, value] : r.stats.values())
                w.key(name).value(value);
            w.endObject();
            w.endObject();
        }
    }
    w.endArray();
    // Failed cells: the block is emitted only when a cell failed, so
    // clean artifacts stay byte-identical to the pre-error-cell
    // format (and to golden baselines).
    if (suiteHasErrors(rows)) {
        w.key("errors").beginArray();
        for (const SuiteRow &row : rows) {
            for (std::size_t c = 0;
                 c < configs.size() && c < row.errors.size(); ++c) {
                if (row.ok(c))
                    continue;
                w.beginObject();
                w.key("app").value(row.app);
                w.key("config").value(configs[c].name);
                w.key("config_hash").value(row.errors[c].configHash);
                w.key("message").value(row.errors[c].message);
                w.endObject();
            }
        }
        w.endArray();
    }
    w.endObject();
    return w.str();
}

std::string
renderTableArtifactJson(const ArtifactManifest &manifest,
                        const TextTable &table)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-table-artifact");
    w.key("format_version").value(std::uint64_t{artifactFormatVersion});
    w.key("manifest").beginObject();
    w.key("source").value(manifest.source);
    w.key("tool_version")
        .value(versionOr(manifest.toolVersion, versionString()));
    w.key("build_type")
        .value(versionOr(manifest.buildType, buildTypeString()));
    w.endObject();
    w.key("title").value(table.title());
    w.key("header").beginArray();
    for (const std::string &cell : table.headerCells())
        w.value(cell);
    w.endArray();
    w.key("rows").beginArray();
    for (const auto &row : table.dataRows()) {
        w.beginArray();
        for (const std::string &cell : row)
            w.value(cell);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    return static_cast<bool>(out);
}

} // namespace espsim

#include "sim/sim_config.hh"

namespace espsim
{

SimConfig
SimConfig::baseline()
{
    SimConfig c;
    c.name = "base";
    return c;
}

SimConfig
SimConfig::nextLine()
{
    SimConfig c;
    c.name = "NL";
    c.prefetch.nextLineInstr = true;
    c.prefetch.nextLineData = true;
    return c;
}

SimConfig
SimConfig::nextLineStride()
{
    SimConfig c = nextLine();
    c.name = "NL+S";
    c.prefetch.strideData = true;
    return c;
}

SimConfig
SimConfig::runaheadExec(bool with_nl)
{
    SimConfig c = with_nl ? nextLine() : baseline();
    c.name = with_nl ? "Runahead+NL" : "Runahead";
    c.engine = SpeculationEngine::Runahead;
    return c;
}

SimConfig
SimConfig::espFull(bool with_nl)
{
    SimConfig c = with_nl ? nextLine() : baseline();
    c.name = with_nl ? "ESP+NL" : "ESP";
    c.engine = SpeculationEngine::Esp;
    return c;
}

SimConfig
SimConfig::espNaive(bool with_nl)
{
    SimConfig c = espFull(with_nl);
    c.name = with_nl ? "NaiveESP+NL" : "NaiveESP";
    c.esp.naiveMode = true;
    c.esp.branchPolicy = BranchPolicy::NoExtraHardware;
    return c;
}

SimConfig
SimConfig::espAblation(bool use_i, bool use_b, bool use_d)
{
    SimConfig c = espFull(true);
    std::string suffix;
    if (use_i)
        suffix += "I";
    if (use_b)
        suffix += suffix.empty() ? "B" : ",B";
    if (use_d)
        suffix += suffix.empty() ? "D" : ",D";
    c.name = "ESP-" + suffix + "+NL";
    c.esp.useIList = use_i;
    c.esp.useDList = use_d;
    c.esp.useBList = use_b;
    if (!use_b)
        c.esp.branchPolicy = BranchPolicy::SeparatePir;
    return c;
}

SimConfig
SimConfig::espInstrOnly(bool with_nl_instr, bool ideal)
{
    SimConfig c;
    c.name = std::string(ideal ? "idealESP-I" : "ESP-I") +
        (with_nl_instr ? "+NL-I" : "");
    c.engine = SpeculationEngine::Esp;
    c.prefetch.nextLineInstr = with_nl_instr;
    c.esp.useIList = true;
    c.esp.useDList = false;
    c.esp.useBList = false;
    c.esp.branchPolicy = BranchPolicy::SeparatePir;
    c.esp.ideal = ideal;
    return c;
}

SimConfig
SimConfig::espDataOnly(bool with_nl_data, bool ideal)
{
    SimConfig c;
    c.name = std::string(ideal ? "idealESP-D" : "ESP-D") +
        (with_nl_data ? "+NL-D" : "");
    c.engine = SpeculationEngine::Esp;
    c.prefetch.nextLineData = with_nl_data;
    c.esp.useIList = false;
    c.esp.useDList = true;
    c.esp.useBList = false;
    c.esp.branchPolicy = BranchPolicy::SeparatePir;
    c.esp.ideal = ideal;
    return c;
}

SimConfig
SimConfig::runaheadDataOnly(bool with_nl_data)
{
    SimConfig c;
    c.name = std::string("Runahead-D") + (with_nl_data ? "+NL-D" : "");
    c.engine = SpeculationEngine::Runahead;
    c.prefetch.nextLineData = with_nl_data;
    c.runahead.warmData = true;
    c.runahead.trainBranchPredictor = false;
    c.runahead.warmInstr = false;
    return c;
}

SimConfig
SimConfig::nextLineInstrOnly()
{
    SimConfig c;
    c.name = "NL-I";
    c.prefetch.nextLineInstr = true;
    return c;
}

SimConfig
SimConfig::nextLineDataOnly()
{
    SimConfig c;
    c.name = "NL-D";
    c.prefetch.nextLineData = true;
    return c;
}

SimConfig
SimConfig::espBranchPolicy(BranchPolicy policy)
{
    SimConfig c = espFull(true);
    switch (policy) {
      case BranchPolicy::NoExtraHardware:
        c.name = "no extra H/W";
        break;
      case BranchPolicy::SeparatePir:
        c.name = "separate context";
        break;
      case BranchPolicy::SeparatePirAndTables:
        c.name = "separate context and tables";
        break;
      case BranchPolicy::SeparatePirPlusBList:
        c.name = "separate context + B-list (ESP)";
        break;
    }
    c.esp.branchPolicy = policy;
    c.esp.useBList = policy == BranchPolicy::SeparatePirPlusBList;
    return c;
}

SimConfig
SimConfig::perfect(bool l1d, bool bp, bool l1i)
{
    // The potential study idealises components *of the baseline
    // machine*, which includes its NL + stride prefetchers (Figure 7).
    SimConfig c = nextLineStride();
    c.name = "perfect";
    if (l1d)
        c.name += " L1D";
    if (bp)
        c.name += " BP";
    if (l1i)
        c.name += " L1I";
    if (l1d && bp && l1i)
        c.name = "perfect All";
    c.memory.perfectL1D = l1d;
    c.memory.perfectL1I = l1i;
    c.core.perfectBranch = bp;
    return c;
}

SimConfig
SimConfig::espWorkingSetStudy(unsigned depth)
{
    SimConfig c = espFull(true);
    c.name = "ESP working-set study";
    c.esp.maxDepth = depth;
    c.esp.ideal = true;
    c.esp.trackWorkingSets = true;
    return c;
}

const std::map<std::string, std::function<SimConfig()>> &
namedConfigs()
{
    static const std::map<std::string, std::function<SimConfig()>> reg{
        {"base", [] { return SimConfig::baseline(); }},
        {"NL", [] { return SimConfig::nextLine(); }},
        {"NL+S", [] { return SimConfig::nextLineStride(); }},
        {"Runahead", [] { return SimConfig::runaheadExec(false); }},
        {"Runahead+NL", [] { return SimConfig::runaheadExec(true); }},
        {"ESP", [] { return SimConfig::espFull(false); }},
        {"ESP+NL", [] { return SimConfig::espFull(true); }},
        {"NaiveESP+NL", [] { return SimConfig::espNaive(true); }},
        {"perfect", [] { return SimConfig::perfect(true, true, true); }},
    };
    return reg;
}

} // namespace espsim

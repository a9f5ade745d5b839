#include "src/sim/presets.h"

#include <cstdint>
#include <sstream>
#include <string>

namespace camo::sim {

SystemConfig
paperConfig()
{
    SystemConfig cfg;
    cfg.numCores = 4;

    cfg.core.width = 4;
    cfg.core.windowSize = 128;

    cfg.cache.l1 = {32 * 1024, 4, 64, 4};
    cfg.cache.l2 = {128 * 1024, 8, 64, 12};
    cfg.cache.mshrs = 8;

    cfg.mc.org.channels = 1;
    cfg.mc.org.ranksPerChannel = 1;
    cfg.mc.org.banksPerRank = 8;
    cfg.mc.org.rowBufferBytes = 8192;
    cfg.mc.org.lineBytes = 64;
    cfg.mc.readQueueDepth = 32;
    cfg.mc.writeQueueDepth = 32;
    // 2.4 GHz CPU / 666.67 MHz DDR3-1333 command clock = 18/5.
    cfg.mc.cpuPerDramNum = 18;
    cfg.mc.cpuPerDramDen = 5;

    cfg.noc.latency = 6;

    return cfg;
}

std::vector<std::string>
adversaryMix(const std::string &adversary, const std::string &victim,
             std::uint32_t num_cores)
{
    std::vector<std::string> mix;
    mix.push_back(adversary);
    for (std::uint32_t i = 1; i < num_cores; ++i)
        mix.push_back(victim);
    return mix;
}

namespace {

/** The core clock one Cycle stands for (src/common/types.h). */
constexpr std::uint64_t kCoreMHz = 2400;

std::string
count(std::uint64_t n, const char *noun)
{
    return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

std::string
kb(std::uint64_t bytes)
{
    return std::to_string(bytes / 1024) + "KB";
}

/** Everything the banner prints after "# System". */
std::string
machine(const SystemConfig &cfg)
{
    const mem::ControllerConfig &mc = cfg.mc;
    // DDR moves two beats per command-clock cycle.
    const std::uint64_t data_rate =
        2 * kCoreMHz * mc.cpuPerDramDen / mc.cpuPerDramNum;
    std::ostringstream os;
    os << ": " << count(cfg.numCores, "core") << ", " << kCoreMHz / 1000.0
       << "GHz, " << cfg.core.width << "-wide, " << cfg.core.windowSize
       << "-entry window\n"
       << "# L1 " << kb(cfg.cache.l1.sizeBytes) << '/' << cfg.cache.l1.ways
       << "-way, L2 " << kb(cfg.cache.l2.sizeBytes) << '/'
       << cfg.cache.l2.ways << "-way private, " << cfg.cache.l1.lineBytes
       << "B lines, " << count(cfg.cache.mshrs, "MSHR") << "\n"
       << "# MC: " << mc.readQueueDepth << "-entry transaction queue; DDR3-"
       << data_rate << ", " << count(mc.org.channels, "channel") << ", "
       << count(mc.org.ranksPerChannel, "rank") << ", "
       << count(mc.org.banksPerRank, "bank") << ", "
       << kb(mc.org.rowBufferBytes) << " rows\n";
    return os.str();
}

} // namespace

std::string
systemBanner(const SystemConfig &cfg)
{
    const std::string body = machine(cfg);
    return body == machine(paperConfig())
               ? "# System (paper Table II)" + body
               : "# System" + body;
}

} // namespace camo::sim

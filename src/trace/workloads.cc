#include "src/trace/workloads.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "src/common/logging.h"
#include "src/hard/error.h"
#include "src/trace/covert.h"
#include "src/trace/file_trace.h"
#include "src/trace/pim.h"

namespace camo::trace {

namespace {

/** "workload 'NAME': WHAT token 'TOK' at byte N" — the structured
 *  rejection every malformed parameterized name gets (mirrors
 *  FaultPlan::parse; a bad name fails one job, never the process). */
[[noreturn]] void
failWorkload(const std::string &name, const std::string &what,
             const std::string &tok, std::size_t offset)
{
    std::ostringstream os;
    os << "workload '" << name << "': " << what << " token '" << tok
       << "' at byte " << offset;
    throw hard::ConfigError(os.str());
}

/** Parse the hex key of "covert:HEX"-style names (`offset` = where
 *  HEX starts in `name`). */
std::uint32_t
parseKeyHex(const std::string &name, const std::string &hex,
            std::size_t offset)
{
    if (hex.empty() || hex.size() > 8)
        failWorkload(name, "bad covert key (1..8 hex digits expected)",
                     hex, offset);
    std::uint64_t key = 0;
    for (char c : hex) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = 10 + (c - 'a');
        else if (c >= 'A' && c <= 'F')
            digit = 10 + (c - 'A');
        else
            failWorkload(name, "bad covert key (hex expected)", hex,
                         offset);
        key = (key << 4) | static_cast<std::uint64_t>(digit);
    }
    return static_cast<std::uint32_t>(key);
}

/**
 * Benchmark parameter table. `coldFrac` is the dial for LLC MPKI
 * (memory instructions/kilo-instr x coldFrac ~ LLC misses/kilo-instr);
 * `seqFrac` the dial for row-buffer locality; the phase parameters
 * give each benchmark its characteristic intensity swings.
 */
WorkloadParams
baseParams(const std::string &name)
{
    WorkloadParams p;
    p.name = name;

    if (name == "mcf") {
        // Pointer-chasing sparse graph: extremely memory intensive,
        // poor locality, strong phases.
        p.memPerKiloInstr = 350;
        p.coldFrac = 0.17;
        p.seqFrac = 0.15;
        p.burstContinue = 0.60;
        p.coldBytes = 512ULL << 20;
        p.highPhaseMeanInstrs = 80000;
        p.lowPhaseMeanInstrs = 40000;
        p.lowIntensityScale = 0.35;
        p.writeFrac = 0.25;
    } else if (name == "libqt" || name == "libquantum") {
        // Pure streaming over a large vector: intense and sequential.
        p.memPerKiloInstr = 300;
        p.coldFrac = 0.10;
        p.seqFrac = 0.95;
        p.burstContinue = 0.75;
        p.coldBytes = 128ULL << 20;
        p.highPhaseMeanInstrs = 200000;
        p.lowPhaseMeanInstrs = 20000;
        p.lowIntensityScale = 0.8;
        p.writeFrac = 0.35;
    } else if (name == "omnetpp") {
        // Discrete-event simulator: heap-heavy, random, intensive.
        p.memPerKiloInstr = 340;
        p.coldFrac = 0.08;
        p.seqFrac = 0.25;
        p.burstContinue = 0.45;
        p.coldBytes = 256ULL << 20;
        p.highPhaseMeanInstrs = 60000;
        p.lowPhaseMeanInstrs = 60000;
        p.lowIntensityScale = 0.5;
        p.writeFrac = 0.35;
    } else if (name == "apache") {
        // Request-driven server: bursty on/off behaviour, random.
        p.memPerKiloInstr = 320;
        p.coldFrac = 0.045;
        p.seqFrac = 0.35;
        p.burstContinue = 0.70;
        p.burstCap = 64;
        p.coldBytes = 128ULL << 20;
        p.highPhaseMeanInstrs = 25000;
        p.lowPhaseMeanInstrs = 75000;
        p.lowIntensityScale = 0.1;
        p.writeFrac = 0.3;
    } else if (name == "astar") {
        // Path-finding: moderate intensity, mixed locality.
        p.memPerKiloInstr = 330;
        p.coldFrac = 0.030;
        p.seqFrac = 0.4;
        p.burstContinue = 0.5;
        p.coldBytes = 64ULL << 20;
        p.highPhaseMeanInstrs = 70000;
        p.lowPhaseMeanInstrs = 50000;
        p.lowIntensityScale = 0.45;
        p.writeFrac = 0.3;
    } else if (name == "gcc") {
        p.memPerKiloInstr = 310;
        p.coldFrac = 0.020;
        p.seqFrac = 0.45;
        p.burstContinue = 0.55;
        p.coldBytes = 96ULL << 20;
        p.highPhaseMeanInstrs = 30000;
        p.lowPhaseMeanInstrs = 30000;
        p.lowIntensityScale = 0.3;
        p.writeFrac = 0.35;
    } else if (name == "bzip" || name == "bzip2") {
        p.memPerKiloInstr = 290;
        p.coldFrac = 0.014;
        p.seqFrac = 0.7;
        p.burstContinue = 0.6;
        p.coldBytes = 48ULL << 20;
        p.highPhaseMeanInstrs = 120000;
        p.lowPhaseMeanInstrs = 80000;
        p.lowIntensityScale = 0.5;
        p.writeFrac = 0.4;
    } else if (name == "hmmer") {
        p.memPerKiloInstr = 380;
        p.coldFrac = 0.009;
        p.seqFrac = 0.8;
        p.burstContinue = 0.7;
        p.coldBytes = 32ULL << 20;
        p.highPhaseMeanInstrs = 300000;
        p.lowPhaseMeanInstrs = 30000;
        p.lowIntensityScale = 0.7;
        p.writeFrac = 0.3;
    } else if (name == "h264ref") {
        p.memPerKiloInstr = 350;
        p.coldFrac = 0.005;
        p.seqFrac = 0.75;
        p.burstContinue = 0.5;
        p.coldBytes = 32ULL << 20;
        p.highPhaseMeanInstrs = 50000;
        p.lowPhaseMeanInstrs = 50000;
        p.lowIntensityScale = 0.6;
        p.writeFrac = 0.3;
    } else if (name == "gobmk") {
        p.memPerKiloInstr = 280;
        p.coldFrac = 0.004;
        p.seqFrac = 0.3;
        p.burstContinue = 0.35;
        p.coldBytes = 24ULL << 20;
        p.highPhaseMeanInstrs = 40000;
        p.lowPhaseMeanInstrs = 40000;
        p.lowIntensityScale = 0.5;
        p.writeFrac = 0.3;
    } else if (name == "sjeng") {
        p.memPerKiloInstr = 270;
        p.coldFrac = 0.003;
        p.seqFrac = 0.25;
        p.burstContinue = 0.3;
        p.coldBytes = 96ULL << 20;
        p.highPhaseMeanInstrs = 60000;
        p.lowPhaseMeanInstrs = 60000;
        p.lowIntensityScale = 0.6;
        p.writeFrac = 0.25;
    } else {
        throw hard::ConfigError("unknown workload '" + name + "'");
    }
    return p;
}

/**
 * Bursty diurnal web-traffic model ("webdiurnal").
 *
 * Requests arrive at a rate that follows a 24-hour load curve (quiet
 * overnight, busy midday, evening peak), compressed so one simulated
 * "day" spans `dayInstrs` instructions. Each request touches
 * connection state in a small hot region, then streams a response
 * body as a back-to-back burst of cold lines — the on/off pattern
 * that makes web servers hard for traffic shaping. At each simulated
 * hour boundary a flash crowd may start, tripling the arrival rate
 * for a fraction of the day.
 */
class DiurnalWebWorkload final : public TraceSource
{
  public:
    DiurnalWebWorkload(std::uint64_t day_instrs, std::uint64_t seed,
                       Addr addr_base)
        : rng_(seed), dayInstrs_(day_instrs), addrBase_(addr_base)
    {
        camo_assert(dayInstrs_ >= 24, "day must cover 24 hours");
        seqCursor_ = coldBase();
    }

    const std::string &name() const override { return name_; }

    TraceItem
    next(Cycle) override
    {
        TraceItem item;
        if (burstLeft_ > 0) {
            // Streaming one response body: sequential cold lines.
            --burstLeft_;
            item.gapInstrs = 0;
            seqCursor_ += 64;
            if (seqCursor_ >= coldBase() + kColdBytes)
                seqCursor_ = coldBase();
            item.addr = seqCursor_;
            item.isWrite = rng_.chance(0.2);
            advance(1);
            return item;
        }

        // Idle until the next request; arrival probability per
        // instruction scales with the current diurnal load.
        const double req_prob = 0.04 * currentLoad();
        std::uint64_t gap = 0;
        while (!rng_.chance(req_prob) && gap < 100000)
            ++gap;
        item.gapInstrs = gap;

        // Accept: read/update connection state in the hot region.
        item.addr = addrBase_ + (rng_.below(kHotBytes) & ~Addr{7});
        item.isWrite = rng_.chance(0.5);

        // Response length in lines (mix of small pages, some large).
        burstLeft_ = rng_.burstLength(0.85, 96);
        if (rng_.chance(0.3))
            seqCursor_ = coldBase() + (rng_.below(kColdBytes) & ~Addr{63});

        advance(gap + 1);
        return item;
    }

  private:
    static constexpr std::uint64_t kHotBytes = 32 * 1024;
    static constexpr std::uint64_t kColdBytes = 192ULL << 20;

    Addr coldBase() const { return addrBase_ + kHotBytes; }

    std::uint64_t
    hourOf(std::uint64_t instr) const
    {
        return (instr % dayInstrs_) * 24 / dayInstrs_;
    }

    double
    currentLoad() const
    {
        // Typical web-server diurnal request-rate profile, midnight
        // first, normalized to the evening peak. Table instead of a
        // sinusoid: real curves are asymmetric (sharp morning ramp,
        // slow evening decay).
        static constexpr double kHourLoad[24] = {
            0.22, 0.16, 0.12, 0.10, 0.09, 0.10, 0.14, 0.25,
            0.45, 0.65, 0.78, 0.88, 0.92, 0.90, 0.85, 0.82,
            0.80, 0.85, 0.95, 1.00, 0.92, 0.75, 0.52, 0.33,
        };
        const double load = kHourLoad[hourOf(instrCount_)];
        return flashLeft_ > 0 ? std::min(1.0, load * 3.0) : load;
    }

    void
    advance(std::uint64_t instrs)
    {
        const std::uint64_t before = hourOf(instrCount_);
        instrCount_ += instrs;
        flashLeft_ -= std::min(flashLeft_, instrs);
        if (hourOf(instrCount_) != before && flashLeft_ == 0 &&
            rng_.chance(1.0 / 16.0)) {
            // Flash crowd: viral link / breaking news for 0.5..2 hours.
            flashLeft_ = rng_.range(dayInstrs_ / 48, dayInstrs_ / 12);
        }
    }

    Rng rng_;
    std::string name_ = "webdiurnal";
    std::uint64_t dayInstrs_;
    Addr addrBase_;
    std::uint64_t instrCount_ = 0;
    std::uint64_t flashLeft_ = 0; ///< instrs of flash crowd remaining
    std::uint64_t burstLeft_ = 0; ///< response lines still streaming
    Addr seqCursor_ = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "astar", "bzip", "gcc", "h264ref", "gobmk", "libqt",
        "sjeng", "mcf", "hmmer", "omnetpp", "apache",
    };
    return names;
}

bool
isKnownWorkload(const std::string &name)
{
    if (name == "probe" || name.rfind("probe:", 0) == 0 ||
        name.rfind("covert:", 0) == 0 || name.rfind("hammer:", 0) == 0 ||
        name.rfind("pim:", 0) == 0 || name.rfind("dramsim2:", 0) == 0 ||
        name.rfind("champsim:", 0) == 0 || name.rfind("gem5:", 0) == 0 ||
        name == "webdiurnal" || name.rfind("webdiurnal:", 0) == 0) {
        return true;
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), name) != names.end())
        return true;
    return name == "bzip2" || name == "libquantum";
}

WorkloadParams
workloadParams(const std::string &name)
{
    return baseParams(name);
}

CompiledWorkload
compileWorkload(const std::string &name)
{
    CompiledWorkload w;
    w.name_ = name;
    if (name == "probe" || name.rfind("probe:", 0) == 0) {
        w.kind_ = CompiledWorkload::Kind::Probe;
        if (name.size() > 6) {
            // "probe:N" probes every N CPU cycles; the default 150 is
            // the paper's dense receiver, large N gives the sparse
            // (DRAM-idle-heavy) receiver.
            const std::string every_str = name.substr(6);
            char *end = nullptr;
            const unsigned long every =
                std::strtoul(every_str.c_str(), &end, 10);
            if (every_str.empty() || end == nullptr || *end != '\0' ||
                every == 0) {
                failWorkload(name, "bad probe cadence (cycles >= 1)",
                             every_str, 6);
            }
            w.probe_.probeEveryCycles = every;
        }
        return w;
    }
    if (name.rfind("covert:", 0) == 0) {
        w.kind_ = CompiledWorkload::Kind::Covert;
        w.covert_.key = keyBits(parseKeyHex(name, name.substr(7), 7));
        return w;
    }
    if (name.rfind("hammer:", 0) == 0) {
        // RowHammer-pattern covert sender: 1-pulses ping-pong between
        // two rows of one bank (ACT per access) instead of streaming.
        w.kind_ = CompiledWorkload::Kind::Hammer;
        w.covert_.key = keyBits(parseKeyHex(name, name.substr(7), 7));
        w.covert_.hammerRows = 2;
        return w;
    }
    if (name.rfind("pim:", 0) == 0) {
        // "pim:HEX[:PULSE]" — PIM-command sender, optional pulse
        // length in CPU cycles.
        w.kind_ = CompiledWorkload::Kind::Pim;
        std::string rest = name.substr(4);
        const std::size_t colon = rest.find(':');
        if (colon != std::string::npos) {
            const std::string pulse_str = rest.substr(colon + 1);
            char *end = nullptr;
            const unsigned long pulse =
                std::strtoul(pulse_str.c_str(), &end, 10);
            if (pulse_str.empty() || end == nullptr || *end != '\0' ||
                pulse < 100) {
                failWorkload(name, "bad PIM pulse (cycles >= 100)",
                             pulse_str, 4 + colon + 1);
            }
            w.pim_.pulseCycles = pulse;
            rest = rest.substr(0, colon);
        }
        w.pim_.key = keyBits(parseKeyHex(name, rest, 4));
        return w;
    }
    if (name.rfind("dramsim2:", 0) == 0) {
        w.kind_ = CompiledWorkload::Kind::File;
        w.traceItems_ =
            loadTraceItems(TraceFileFormat::DramSim2, name.substr(9));
        w.traceName_ = "dramsim2:" + name.substr(9);
        return w;
    }
    if (name.rfind("champsim:", 0) == 0) {
        w.kind_ = CompiledWorkload::Kind::File;
        w.traceItems_ =
            loadTraceItems(TraceFileFormat::ChampSim, name.substr(9));
        w.traceName_ = "champsim:" + name.substr(9);
        return w;
    }
    if (name.rfind("gem5:", 0) == 0) {
        w.kind_ = CompiledWorkload::Kind::File;
        w.traceItems_ =
            loadTraceItems(TraceFileFormat::Gem5, name.substr(5));
        w.traceName_ = "gem5:" + name.substr(5);
        return w;
    }
    if (name == "webdiurnal" || name.rfind("webdiurnal:", 0) == 0) {
        w.kind_ = CompiledWorkload::Kind::DiurnalWeb;
        w.dayInstrs_ = 240000; // ~10k instructions per simulated hour
        if (name.size() > 10) {
            // "webdiurnal:DAY" compresses one 24-hour day into DAY
            // instructions.
            const std::string day_str = name.substr(11);
            char *end = nullptr;
            const unsigned long day =
                std::strtoul(day_str.c_str(), &end, 10);
            if (day_str.empty() || end == nullptr || *end != '\0' ||
                day < 24) {
                failWorkload(name,
                             "bad day length (instructions >= 24)",
                             day_str, 11);
            }
            w.dayInstrs_ = day;
        }
        return w;
    }
    w.kind_ = CompiledWorkload::Kind::Synthetic;
    w.synth_ = baseParams(name);
    return w;
}

std::unique_ptr<TraceSource>
CompiledWorkload::instantiate(std::uint64_t seed, Addr addr_base) const
{
    switch (kind_) {
      case Kind::Probe: {
        ProbeParams p = probe_;
        p.base += addr_base;
        return std::make_unique<ProbeWorkload>(p);
      }
      case Kind::Covert:
      case Kind::Hammer: {
        CovertSenderParams p = covert_;
        p.bufferBase += addr_base;
        return std::make_unique<CovertSender>(p);
      }
      case Kind::Pim: {
        PimSenderParams p = pim_;
        p.bufferBase += addr_base;
        return std::make_unique<PimCovertSender>(p);
      }
      case Kind::File:
        return std::make_unique<FileTrace>(traceItems_, traceName_,
                                           addr_base);
      case Kind::DiurnalWeb:
        return std::make_unique<DiurnalWebWorkload>(dayInstrs_, seed,
                                                    addr_base);
      case Kind::Synthetic:
        break;
    }
    WorkloadParams p = synth_;
    p.addrBase = addr_base;
    return std::make_unique<SyntheticWorkload>(p, seed);
}

} // namespace camo::trace

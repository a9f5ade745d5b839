/**
 * @file
 * Figures 14/15 (and Figure 4, and SIV-G): the covert-channel attack.
 *
 * A sender VM runs the paper's Algorithm 1, encoding a 32-bit key in
 * memory-traffic pulses (keys 0x2AAAAAAA and 0x01010101, as in the
 * paper). A receiver VM probes memory at a fixed cadence and decodes
 * the key from its own response latencies. We print the sender's
 * memory traffic time-series before and after Request Camouflage
 * (Figs. 14/15) and the receiver's decoded bit-error rate (SIV-G).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "src/security/covert_receiver.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/trace/covert.h"

using namespace camo;

namespace {

constexpr Cycle kPulseCycles = 20000; // sender pulse ~= cycles here
constexpr std::size_t kBits = 32;
constexpr Cycle kRunCycles = kPulseCycles * (kBits + 4);

struct AttackResult
{
    std::vector<shaper::TrafficEvent> senderBus;
    double ber = 0.0;
};

AttackResult
runAttack(std::uint32_t key, bool shaped, Cycle window = 2500,
          bool demote_fakes = false)
{
    char name[32];
    std::snprintf(name, sizeof name, "covert:%08X", key);

    sim::SystemConfig cfg = sim::paperConfig();
    cfg.recordTraffic = true;
    cfg.recordLatencies = true;
    if (shaped) {
        cfg.mitigation = sim::Mitigation::ReqC;
        cfg.shapeCore = {true, false, false, false}; // shape the sender
        cfg.mc.demoteFakeTraffic = demote_fakes;
        // Short replenishment window (SIV-B4): the fake-traffic
        // takeover lag after a demand drop is one window, so shrink
        // it well below the attack's PULSE length. Credits scale with
        // the window so the bandwidth budget is window-independent.
        const Cycle base = std::max<Cycle>(3, 8 * window / 2500);
        cfg.reqBins = shaper::BinConfig::desired(base, 1.5, window);
        const double rate_scale =
            static_cast<double>(window) / 2500.0;
        for (auto &c : cfg.reqBins.credits)
            c = static_cast<std::uint32_t>(c * rate_scale + 0.5);
        if (cfg.reqBins.totalCredits() == 0)
            cfg.reqBins.credits[0] = 1;
    }
    // Core 0: covert sender; core 1: probing receiver; cores 2-3 are
    // light background load.
    sim::System system(
        sim::SystemPlan(cfg, {name, "probe", "sjeng", "sjeng"}));
    system.run(kRunCycles);

    AttackResult result;
    result.senderBus = system.busMonitor(0).events();

    security::CovertDecoderConfig dec;
    dec.windowCycles = kPulseCycles;
    const auto decoded =
        security::decodeCovert(system.latencyLog(1), dec, kBits);
    result.ber =
        security::bitErrorRate(decoded.bits, trace::keyBits(key));
    return result;
}

void
printTraffic(const char *label,
             const std::vector<shaper::TrafficEvent> &events)
{
    // Bucket bus events into pulse-quarter bins and draw a bar per
    // bucket: the visual from Figs. 14/15.
    const Cycle bucket = kPulseCycles / 4;
    const std::size_t nbuckets = kRunCycles / bucket;
    std::vector<std::uint64_t> counts(nbuckets, 0);
    for (const auto &e : events) {
        const std::size_t b = e.at / bucket;
        if (b < nbuckets)
            ++counts[b];
    }
    std::uint64_t peak = 1;
    for (const auto c : counts)
        peak = std::max(peak, c);

    std::printf("%s\n  ", label);
    static const char *glyphs[] = {" ", ".", ":", "-", "=", "#"};
    for (std::size_t b = 0; b < nbuckets; ++b) {
        const std::size_t level = counts[b] == 0
            ? 0
            : 1 + (4 * counts[b]) / peak;
        std::printf("%s", glyphs[std::min<std::size_t>(level, 5)]);
    }
    std::printf("\n");
}

void
runKey(std::uint32_t key)
{
    std::printf("\n# Key: 32'h%08X (one pulse = %llu cycles, 4 chars "
                "per pulse below)\n", key,
                static_cast<unsigned long long>(kPulseCycles));
    const auto before = runAttack(key, false);
    const auto after = runAttack(key, true);
    const auto demoted = runAttack(key, true, 2500, true);
    printTraffic("sender traffic BEFORE Camouflage:", before.senderBus);
    printTraffic("sender traffic AFTER  Camouflage:", after.senderBus);
    std::printf("receiver bit-error rate: before=%.3f after=%.3f "
                "(0.5 = channel destroyed)\n", before.ber, after.ber);
    std::printf("with the (insecure) MC fake-demotion extension: "
                "%.3f -- an MC that can tell fakes from\n"
                "real traffic re-opens the channel; see "
                "ControllerConfig::demoteFakeTraffic\n", demoted.ber);
}

} // namespace

int
main()
{
    std::printf("%s", sim::systemBanner(sim::paperConfig()).c_str());
    std::printf("# Figures 14/15 + SIV-G: covert channel before/after "
                "Request Camouflage\n");
    runKey(0x2AAAAAAAu); // Figure 14
    runKey(0x01010101u); // Figure 15
    std::printf("\n# paper: Camouflage hides the pulse structure; "
                "fake traffic fills the idle periods\n");
    return 0;
}

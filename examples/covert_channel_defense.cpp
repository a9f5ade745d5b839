/**
 * @file
 * Example: defeating a covert channel (paper §IV-G, Algorithm 1).
 *
 * A malicious "sender" VM leaks a 32-bit key by modulating its memory
 * traffic; a colluding "receiver" VM decodes the key from its own
 * memory response latencies. Request Camouflage on the sender destroys
 * the channel.
 *
 * Usage: covert_channel_defense [hexkey]   (default DEADBEEF)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/security/covert_receiver.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/trace/covert.h"

using namespace camo;

namespace {

constexpr Cycle kPulse = 20000;
constexpr std::size_t kBits = 32;

void
printBits(const char *label, const std::vector<bool> &bits)
{
    std::printf("%-22s", label);
    for (const bool b : bits)
        std::printf("%c", b ? '1' : '0');
    std::printf("\n");
}

double
attack(std::uint32_t key, bool defended, std::vector<bool> *decoded_out)
{
    char sender[32];
    std::snprintf(sender, sizeof sender, "covert:%08X", key);

    sim::SystemConfig cfg = sim::paperConfig();
    cfg.recordLatencies = true;
    if (defended) {
        cfg.mitigation = sim::Mitigation::ReqC;
        cfg.shapeCore = {true, false, false, false};
        // Short replenishment window so fake traffic takes over well
        // within one pulse (paper SIV-B4).
        cfg.reqBins = shaper::BinConfig::desired(8, 1.5, 2500);
    }
    sim::System system(
        sim::SystemPlan(cfg, {sender, "probe", "sjeng", "sjeng"}));
    system.run(kPulse * (kBits + 4));

    security::CovertDecoderConfig dec;
    dec.windowCycles = kPulse;
    const auto decoded =
        security::decodeCovert(system.latencyLog(1), dec, kBits);
    if (decoded_out)
        *decoded_out = decoded.bits;
    return security::bitErrorRate(decoded.bits, trace::keyBits(key));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint32_t key =
        argc > 1
            ? static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 16))
            : 0xDEADBEEFu;

    std::printf("covert-channel attack: sender leaks key 0x%08X via "
                "memory traffic pulses (%llu cycles/bit)\n\n", key,
                static_cast<unsigned long long>(kPulse));

    std::vector<bool> decoded;
    const double ber_open = attack(key, false, &decoded);
    printBits("key:", trace::keyBits(key));
    printBits("decoded (no defense):", decoded);
    std::printf("bit error rate: %.3f\n\n", ber_open);

    const double ber_defended = attack(key, true, &decoded);
    printBits("decoded (Camouflage):", decoded);
    std::printf("bit error rate: %.3f  (0.5 == random guessing)\n",
                ber_defended);

    if (ber_open < 0.15 && ber_defended > 2 * ber_open)
        std::printf("\nCamouflage degraded the covert channel by "
                    "%.1fx.\n", ber_defended / std::max(0.01, ber_open));
    return 0;
}

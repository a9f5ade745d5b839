/**
 * @file
 * Attack-scenario catalog measurements (BENCH_scenarios.json).
 *
 * Runs every registered scenario (src/scenario/scenario.h) open and
 * shaped and records, per scenario: the covert decoder's bit-error
 * rate and implied binary-channel capacity, the windowed MI between
 * the victim's intrinsic traffic and the probe's latencies, the
 * benign-core slowdown under shaping, and RFM stall counts where the
 * RowHammer defense is in play.
 *
 * Two derived indicator columns are the CI gates (tools/benchdiff):
 *
 *  - channel_open       = 1.0 iff the unshaped channel is real: BER
 *                         well below the 0.5 coin-flip line for covert
 *                         scenarios, windowed MI above the noise floor
 *                         for key-less ones.
 *  - shaping_effective  = 1.0 iff the shaped run measurably reduces
 *                         the channel (capacity or MI).
 *
 * Both must stay at 1.0; the raw BER/MI/slowdown numbers ride along
 * as informational rows. Everything here is simulated time, so the
 * report is machine-independent and byte-comparable across hosts.
 *
 * Usage: bench_scenarios [OUT.json] [CYCLES]   (CYCLES 0 = per-spec
 * default; smaller values speed up smoke runs but weaken the
 * indicators, so the committed baseline uses the default).
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/obs/benchdiff.h"
#include "src/obs/json.h"
#include "src/scenario/scenario.h"

using namespace camo;

namespace {

/** BER this far under 0.5 means the decoder genuinely reads bits. */
constexpr double kOpenBerCeiling = 0.25;
/** Windowed MI above this is signal, not estimator noise. */
constexpr double kMiNoiseFloorBits = 0.05;

bool
channelOpen(const scenario::ScenarioSpec &spec,
            const scenario::ChannelMeasurement &open)
{
    if (spec.senderCore != scenario::ScenarioSpec::kNoCore)
        return open.ber <= kOpenBerCeiling &&
               open.windowMiBits >= kMiNoiseFloorBits;
    return open.windowMiBits >= kMiNoiseFloorBits;
}

bool
shapingEffective(const scenario::ScenarioSpec &spec,
                 const scenario::ScenarioResult &r)
{
    // Covert scenarios: shaping must destroy decodable capacity.
    // Key-less scenarios: it must cut the windowed MI.
    if (spec.senderCore != scenario::ScenarioSpec::kNoCore)
        return r.shaped.channelCapacityBits <
               0.5 * r.open.channelCapacityBits;
    return r.shaped.windowMiBits < 0.5 * r.open.windowMiBits;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_scenarios.json";
    const auto cycles_arg = argc > 2 ? parseUnsigned(argv[2]) : Cycle{0};
    if (!cycles_arg)
        camo_fatal("usage: bench_scenarios [OUT.json] [CYCLES]");
    const Cycle cycles = *cycles_arg;

    obs::json::Value root = obs::json::Value::makeObject();
    root["schema_version"] =
        obs::json::Value(obs::kBenchSchemaVersion);
    root["bench"] = obs::json::Value("scenarios");
    root["build"] = obs::buildInfoJson();

    obs::json::Value rows = obs::json::Value::makeArray();
    std::printf("%-14s %9s %9s %9s %9s %9s %9s\n", "scenario",
                "ber_open", "ber_shpd", "mi_open", "mi_shpd",
                "slowdown", "rfm_open");
    for (const scenario::ScenarioSpec &spec : scenario::scenarios()) {
        const scenario::ScenarioResult r =
            scenario::evaluateScenario(spec, cycles);
        const bool covert =
            spec.senderCore != scenario::ScenarioSpec::kNoCore;

        obs::json::Value row = obs::json::Value::makeObject();
        row["name"] = obs::json::Value(spec.name);
        if (covert) {
            row["ber_open"] = obs::json::Value(r.open.ber);
            row["ber_shaped"] = obs::json::Value(r.shaped.ber);
            row["capacity_open_bits_per_pulse"] =
                obs::json::Value(r.open.channelCapacityBits);
            row["capacity_shaped_bits_per_pulse"] =
                obs::json::Value(r.shaped.channelCapacityBits);
        }
        row["window_mi_open_bits"] =
            obs::json::Value(r.open.windowMiBits);
        row["window_mi_shaped_bits"] =
            obs::json::Value(r.shaped.windowMiBits);
        row["slowdown"] = obs::json::Value(r.slowdown);
        row["throughput_open"] = obs::json::Value(r.open.throughput);
        row["throughput_shaped"] =
            obs::json::Value(r.shaped.throughput);
        if (r.open.rfmStalls || r.shaped.rfmStalls) {
            row["rfm_stalls_open"] =
                obs::json::Value(r.open.rfmStalls);
            row["rfm_stalls_shaped"] =
                obs::json::Value(r.shaped.rfmStalls);
        }
        row["channel_open"] =
            obs::json::Value(channelOpen(spec, r.open) ? 1.0 : 0.0);
        row["shaping_effective"] =
            obs::json::Value(shapingEffective(spec, r) ? 1.0 : 0.0);
        rows.push(std::move(row));

        std::printf("%-14s %9.3f %9.3f %9.4f %9.4f %9.3f %9llu\n",
                    spec.name.c_str(), covert ? r.open.ber : 0.5,
                    covert ? r.shaped.ber : 0.5, r.open.windowMiBits,
                    r.shaped.windowMiBits, r.slowdown,
                    static_cast<unsigned long long>(r.open.rfmStalls));
    }
    root["scenarios"] = std::move(rows);

    std::ofstream os(out_path);
    if (!os)
        camo_fatal("cannot open ", out_path);
    os << root.dump(2) << "\n";
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

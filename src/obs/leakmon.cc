#include "src/obs/leakmon.h"

#include <cstdio>

#include "src/hard/error.h"

namespace camo::obs {

LeakMonitor::LeakMonitor(const LeakMonitorConfig &cfg,
                         const shaper::DistributionMonitor &intrinsic,
                         const shaper::DistributionMonitor &shaped)
    : cfg_(cfg), intrinsic_(&intrinsic), shaped_(&shaped),
      quantizer_(security::makeMiQuantizer(cfg.quantBins, cfg.quantBase,
                                           cfg.quantRatio)),
      intrinsicHist_(quantizer_),
      cumulative_(cfg.quantBins + 1, cfg.quantBins),
      nextCheckAt_(cfg.checkPeriod)
{
    if (cfg_.windowCycles == 0)
        throw hard::ConfigError("leakmon windowCycles must be > 0");
    if (cfg_.checkPeriod == 0)
        throw hard::ConfigError("leakmon checkPeriod must be > 0");
    if (cfg_.quantBins < 2)
        throw hard::ConfigError("leakmon needs >= 2 quantizer bins");
    if (cfg_.alerting() && cfg_.consecutiveBreaches == 0)
        throw hard::ConfigError(
            "leakmon consecutiveBreaches must be > 0");
    intrinsicHist_.clear();
}

void
LeakMonitor::consume()
{
    // Intrinsic side first: by FIFO ordering the k-th real shaped
    // event's intrinsic gap is always available by the time the
    // shaped walk below needs it.
    const auto &xs = intrinsic_->events();
    while (xIdx_ < xs.size()) {
        const Cycle at = xs[xIdx_].at;
        if (haveX_) {
            const Cycle gap = at - lastX_;
            xbins_.push_back(quantizer_.binOf(gap));
            intrinsicHist_.add(gap);
        }
        haveX_ = true;
        lastX_ = at;
        ++xIdx_;
    }

    // Shaped walk: identical pairing to security::computeShapingMi —
    // the k-th real shaped event pairs with intrinsic gap k-2
    // (1-based; the first real event has no gap), fakes pair with the
    // extra idle X-symbol.
    const auto &ys = shaped_->events();
    while (yIdx_ < ys.size()) {
        const shaper::TrafficEvent &e = ys[yIdx_];
        if (!haveY_) {
            haveY_ = true;
            if (!e.fake)
                ++realSeen_;
        } else {
            const std::size_t ybin = quantizer_.binOf(e.at - lastY_);
            if (e.fake) {
                cumulative_.add(idleSymbol(), ybin);
                window_.push_back(
                    {e.at, static_cast<std::uint32_t>(idleSymbol()),
                     static_cast<std::uint32_t>(ybin)});
                ++fakeEvents_;
            } else {
                ++realSeen_;
                if (realSeen_ >= 2 && realSeen_ - 2 < xbins_.size()) {
                    const std::size_t xbin = xbins_[realSeen_ - 2];
                    cumulative_.add(xbin, ybin);
                    window_.push_back(
                        {e.at, static_cast<std::uint32_t>(xbin),
                         static_cast<std::uint32_t>(ybin)});
                }
            }
        }
        lastY_ = e.at;
        ++yIdx_;
    }
}

std::string
LeakMonitor::evaluate(Cycle now)
{
    // Drop pairs that have slid out of (now - windowCycles, now].
    while (!window_.empty() &&
           now >= cfg_.windowCycles &&
           window_.front().at <= now - cfg_.windowCycles) {
        window_.pop_front();
    }

    security::JointDistribution joint(cfg_.quantBins + 1,
                                      cfg_.quantBins);
    for (const Pair &p : window_)
        joint.add(p.x, p.y);

    const double mi = joint.mutualInformationBitsCorrected();
    lastMiBits_ = mi;
    if (mi > peakMiBits_)
        peakMiBits_ = mi;
    stats_.inc("evals");
    stats_.sample("window_mi_bits", mi);

    const bool breach = cfg_.alerting() &&
                        joint.total() >= cfg_.minWindowPairs &&
                        mi > cfg_.alertThresholdBits;
    history_.push_back({now, mi, joint.total(), breach});
    if (!breach) {
        breachStreak_ = 0;
        return {};
    }
    ++breachStreak_;
    stats_.inc("breaches");
    if (breachStreak_ < cfg_.consecutiveBreaches || alerted_)
        return {};
    alerted_ = true;
    alertAt_ = now;
    stats_.inc("alerts");
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "core %u windowed leakage %.4f bits > threshold "
                  "%.4f bits for %u consecutive windows",
                  cfg_.core, mi, cfg_.alertThresholdBits,
                  breachStreak_);
    return buf;
}

std::string
LeakMonitor::poll(Cycle now)
{
    if (now < nextCheckAt_)
        return {};
    consume();
    const std::string alert = evaluate(now);
    nextCheckAt_ = now + cfg_.checkPeriod;
    return alert;
}

security::ShapingMiResult
LeakMonitor::cumulativeResult()
{
    consume();
    security::ShapingMiResult r;
    r.miBitsRaw = cumulative_.mutualInformationBits();
    r.miBits = cumulative_.mutualInformationBitsCorrected();
    r.intrinsicEntropy = intrinsicHist_.entropyBits();
    r.shapedEntropy = cumulative_.entropyYBits();
    r.pairs = cumulative_.total();
    r.fakeEvents = fakeEvents_;
    return r;
}

} // namespace camo::obs

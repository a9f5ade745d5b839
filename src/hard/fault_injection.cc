#include "src/hard/fault_injection.h"

#include <chrono>
#include <sstream>
#include <thread>

#include "src/common/parse.h"
#include "src/hard/error.h"

namespace camo::hard {

namespace {

const char *const kKindNames[kNumFaultKinds] = {
    "drop-resp",       "delay-resp",     "dup-resp",
    "corrupt-credits", "starve-credits", "malformed-config",
    "wedge-req",       "wedge-resp",     "leak-req",
    "force-fake",      "worker-kill",    "worker-stall",
};

std::uint64_t
defaultParam(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DelayResponse: return 5000;
      case FaultKind::WorkerKill: return 1;  // failing attempts
      case FaultKind::WorkerStall: return 20; // milliseconds
      default: return 0;
    }
}

/** A spec token plus its byte offset in the full --inject string, so
 *  parse errors can point at the exact spot that failed. */
struct SpecToken
{
    std::string text;
    std::size_t offset = 0;
};

/** "token 'X' at byte N" — the common suffix of every parse error. */
std::string
where(const SpecToken &tok)
{
    std::ostringstream os;
    os << "token '" << tok.text << "' at byte " << tok.offset;
    return os.str();
}

FaultKind
parseKind(const SpecToken &token)
{
    for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
        if (token.text == kKindNames[i])
            return static_cast<FaultKind>(i);
    }
    std::ostringstream os;
    os << "unknown fault kind " << where(token) << " (expected one of";
    for (const char *name : kKindNames)
        os << " " << name;
    os << ")";
    throw ConfigError(os.str());
}

/** An unsigned field value no larger than `max`. The sentinels
 *  kNoCycle, kNoCore and kAnyIndex are defaults, not values to
 *  write, so callers pass a `max` below them. */
std::uint64_t
parseField(const std::string &key, const std::string &value,
           const SpecToken &tok,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const auto v = parseUnsigned(value, max);
    if (!v) {
        throw ConfigError("fault field " + key + "=" + value +
                          " is not an unsigned integer <= " +
                          std::to_string(max) + " (" + where(tok) + ")");
    }
    return *v;
}

/** Split on `sep`, keeping empty tokens (they are spec errors) and
 *  recording each token's byte offset relative to the full spec
 *  (`base` = offset of `s` within it). */
std::vector<SpecToken>
split(const std::string &s, char sep, std::size_t base)
{
    std::vector<SpecToken> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const auto pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back({s.substr(start), base + start});
            break;
        }
        out.push_back({s.substr(start, pos - start), base + start});
        start = pos + 1;
    }
    return out;
}

bool
isWorkerKind(FaultKind kind)
{
    return kind == FaultKind::WorkerKill ||
           kind == FaultKind::WorkerStall;
}

bool
isStochasticKind(FaultKind kind)
{
    return kind == FaultKind::DropResponse ||
           kind == FaultKind::DelayResponse ||
           kind == FaultKind::DuplicateResponse;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    return kKindNames[static_cast<std::size_t>(kind)];
}

FaultPlan
FaultPlan::parse(const std::string &spec, std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    if (spec.empty())
        return plan;
    for (const SpecToken &entry : split(spec, ',', 0)) {
        const std::vector<SpecToken> fields =
            split(entry.text, ':', entry.offset);
        if (fields.empty() || fields[0].text.empty()) {
            std::ostringstream os;
            os << "empty fault entry at byte " << entry.offset
               << " in spec '" << spec << "'";
            throw ConfigError(os.str());
        }
        FaultSpec fs;
        fs.kind = parseKind(fields[0]);
        fs.param = defaultParam(fs.kind);
        for (std::size_t i = 1; i < fields.size(); ++i) {
            const SpecToken &field = fields[i];
            const auto eq = field.text.find('=');
            if (eq == std::string::npos) {
                throw ConfigError("fault field " + where(field) +
                                  " is not key=value");
            }
            const std::string key = field.text.substr(0, eq);
            const std::string value = field.text.substr(eq + 1);
            if (key == "rate") {
                const auto rate = parseReal(value, 0.0, 1.0);
                if (!rate) {
                    throw ConfigError("fault rate=" + value +
                                      " is not a probability in "
                                      "[0, 1] (" + where(field) + ")");
                }
                fs.rate = *rate;
            } else if (key == "at") {
                fs.at = parseField(key, value, field, kNoCycle - 1);
            } else if (key == "core") {
                fs.core = static_cast<CoreId>(
                    parseField(key, value, field, kNoCore - 1));
            } else if (key == "param") {
                fs.param = parseField(key, value, field);
            } else if (key == "index") {
                fs.index = parseField(key, value, field, kAnyIndex - 1);
            } else {
                throw ConfigError("unknown fault field '" + key +
                                  "' (" + where(field) +
                                  "; expected rate, at, core, param, "
                                  "or index)");
            }
        }
        if (isWorkerKind(fs.kind)) {
            if (fs.at != kNoCycle || fs.rate > 0.0) {
                throw ConfigError(
                    std::string(faultKindName(fs.kind)) +
                    " selects jobs by index, not by cycle or rate (" +
                    where(entry) + ")");
            }
        } else if (isStochasticKind(fs.kind)) {
            if (fs.rate == 0.0 && fs.at == kNoCycle) {
                throw ConfigError(std::string(faultKindName(fs.kind)) +
                                  " needs rate= or at= (" +
                                  where(entry) + ")");
            }
        } else if (fs.at == kNoCycle) {
            throw ConfigError(std::string(faultKindName(fs.kind)) +
                              " needs at=CYCLE (" + where(entry) + ")");
        }
        plan.faults.push_back(fs);
    }
    return plan;
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), rng_(plan.seed ? plan.seed : 1),
      latched_(plan.faults.size(), false)
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
}

void
FaultInjector::fired(FaultKind kind)
{
    counts_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
}

FaultInjector::RespAction
FaultInjector::onResponse(Cycle now, const MemRequest &resp,
                          Cycle *delay)
{
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        FaultSpec &fs = plan_.faults[i];
        if (!isStochasticKind(fs.kind))
            continue;
        if (fs.core != kNoCore && fs.core != resp.core)
            continue;
        bool hit = false;
        if (fs.at != kNoCycle) {
            if (!latched_[i] && now >= fs.at) {
                latched_[i] = true;
                hit = true;
            }
        } else if (fs.rate > 0.0 && rng_.chance(fs.rate)) {
            hit = true;
        }
        if (!hit)
            continue;
        fired(fs.kind);
        switch (fs.kind) {
          case FaultKind::DropResponse:
            return RespAction::Drop;
          case FaultKind::DelayResponse:
            *delay = fs.param ? fs.param : defaultParam(fs.kind);
            return RespAction::Delay;
          case FaultKind::DuplicateResponse:
            return RespAction::Duplicate;
          default:
            break;
        }
    }
    return RespAction::Pass;
}

bool
FaultInjector::wedged(FaultKind kind, CoreId core, Cycle now) const
{
    for (const FaultSpec &fs : plan_.faults) {
        if (fs.kind != kind || fs.at == kNoCycle)
            continue;
        if (fs.core != kNoCore && fs.core != core)
            continue;
        if (now >= fs.at)
            return true;
    }
    return false;
}

bool
FaultInjector::reqShaperWedged(CoreId core, Cycle now) const
{
    return wedged(FaultKind::WedgeReqShaper, core, now);
}

bool
FaultInjector::respShaperWedged(CoreId core, Cycle now) const
{
    return wedged(FaultKind::WedgeRespShaper, core, now);
}

bool
FaultInjector::oneShotDue(FaultKind kind, CoreId core, Cycle now)
{
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        const FaultSpec &fs = plan_.faults[i];
        if (fs.kind != kind || fs.at == kNoCycle || latched_[i])
            continue;
        if (fs.core != kNoCore && fs.core != core)
            continue;
        if (now >= fs.at) {
            latched_[i] = true;
            fired(kind);
            return true;
        }
    }
    return false;
}

bool
FaultInjector::corruptCreditsDue(CoreId core, Cycle now)
{
    return oneShotDue(FaultKind::CorruptCredits, core, now);
}

bool
FaultInjector::starveCreditsDue(CoreId core, Cycle now)
{
    return oneShotDue(FaultKind::StarveCredits, core, now);
}

bool
FaultInjector::malformedConfigDue(CoreId core, Cycle now)
{
    return oneShotDue(FaultKind::MalformedConfig, core, now);
}

bool
FaultInjector::leakRequestDue(CoreId core, Cycle now)
{
    return oneShotDue(FaultKind::LeakRequest, core, now);
}

bool
FaultInjector::forceFakeDue(CoreId core, Cycle now)
{
    return oneShotDue(FaultKind::ForceFake, core, now);
}

void
FaultInjector::maybeWorkerFault(std::size_t index, unsigned attempt)
{
    for (const FaultSpec &fs : plan_.faults) {
        if (!isWorkerKind(fs.kind))
            continue;
        if (fs.index != kAnyIndex && fs.index != index)
            continue;
        if (fs.kind == FaultKind::WorkerStall) {
            if (attempt == 0) {
                fired(fs.kind);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(fs.param));
            }
            continue;
        }
        // WorkerKill: fail the first `param` attempts of the job.
        if (attempt < fs.param) {
            fired(fs.kind);
            std::ostringstream os;
            os << "injected worker fault: job " << index << " attempt "
               << attempt;
            throw TransientFault(os.str());
        }
    }
}

Cycle
FaultInjector::nextScheduledCycle(Cycle from) const
{
    Cycle ev = kNoCycle;
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        const FaultSpec &fs = plan_.faults[i];
        if (fs.at == kNoCycle || isWorkerKind(fs.kind))
            continue;
        const bool wedge = fs.kind == FaultKind::WedgeReqShaper ||
                           fs.kind == FaultKind::WedgeRespShaper;
        if (wedge) {
            // Only the arming edge needs a tick; once armed the
            // on-path wedge checks (and the queues backing up behind
            // them) keep the system ticking.
            if (fs.at >= from)
                ev = std::min(ev, fs.at);
        } else if (!latched_[i]) {
            ev = std::min(ev, std::max(from, fs.at));
        }
    }
    return ev;
}

std::uint64_t
FaultInjector::count(FaultKind kind) const
{
    return counts_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::totalFired() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kNumFaultKinds; ++i)
        total += count(static_cast<FaultKind>(i));
    return total;
}

std::string
FaultInjector::summary() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
        const std::uint64_t n = count(static_cast<FaultKind>(i));
        if (n == 0)
            continue;
        if (os.tellp() > 0)
            os << ", ";
        os << kKindNames[i] << "=" << n;
    }
    return os.str();
}

} // namespace camo::hard

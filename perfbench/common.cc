#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench/bench.h"
#include "src/obs/prof.h"
#include "src/sim/parallel.h"

namespace perfbench {

namespace json = camo::obs::json;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::uint64_t
simSeed(std::uint64_t workload_seed, std::uint64_t stream)
{
    // Kept below 2^53 so the value survives a JSON number unchanged
    // (the daemon's JobSpec carries seeds as JSON numbers).
    return camo::sim::deriveSeed(workload_seed, stream, 0) >> 12;
}

// ----- Report -------------------------------------------------------

void
Report::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
}

void
Report::failRun(const std::string &what)
{
    failed_ = attempted_;
    std::fprintf(stderr, "perfbench: FAILED run: %s\n", what.c_str());
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        op(false, "metric " + name + " is not finite");
        value = 0.0;
    }
    json::Value m = json::Value::makeObject();
    m["value"] = value;
    m["unit"] = unit;
    metrics_[name] = std::move(m);
    std::fprintf(stderr, "  %-40s %16.6g %s\n", name.c_str(), value,
                 unit.c_str());
}

std::vector<std::string>
Report::metricNames() const
{
    std::vector<std::string> names;
    for (const auto &[name, value] : metrics_.asObject())
        names.push_back(name);
    return names;
}

std::string
Report::json() const
{
    json::Value v = json::Value::makeObject();
    v["correct"] = attempted_ > 0 && failed_ == 0;
    v["attempted"] = attempted_;
    v["failed"] = failed_;
    v["metrics"] = metrics_;
    return v.dump();
}

// ----- Spans --------------------------------------------------------

int
Spans::begin(const std::string &name, int parent)
{
    if (!enabled_)
        return kNoParent;
    spans_.push_back({name, parent, camo::obs::Profiler::clockNs(), 0});
    return static_cast<int>(spans_.size() - 1);
}

void
Spans::end(int id)
{
    if (enabled_ && id >= 0)
        spans_[static_cast<std::size_t>(id)].endNs =
            camo::obs::Profiler::clockNs();
}

int
Spans::add(const std::string &name, int parent, std::uint64_t start_ns,
           std::uint64_t end_ns)
{
    if (!enabled_)
        return kNoParent;
    spans_.push_back({name, parent, start_ns, end_ns});
    return static_cast<int>(spans_.size() - 1);
}

std::vector<double>
Spans::durationsNs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name && s.endNs >= s.startNs && s.endNs != 0)
            out.push_back(static_cast<double>(s.endNs - s.startNs));
    }
    return out;
}

bool
Spans::write(const std::string &path) const
{
    json::Value arr = json::Value::makeArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        json::Value v = json::Value::makeObject();
        v["id"] = static_cast<std::uint64_t>(i);
        v["name"] = s.name;
        v["parent"] = s.parent;
        v["start_ns"] = s.startNs;
        v["end_ns"] = s.endNs;
        arr.push(std::move(v));
    }
    std::ofstream os(path);
    os << arr.dump() << "\n";
    return static_cast<bool>(os);
}

// ----- digests ------------------------------------------------------

std::string
digest(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
fullText(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsText(const camo::sim::RunMetrics &m)
{
    std::ostringstream os;
    os << "cycles=" << m.cycles;
    auto doubles = [&](const char *name, const std::vector<double> &v) {
        os << ';' << name << '=';
        for (const double x : v)
            os << fullText(x) << ',';
    };
    auto ints = [&](const char *name, const std::vector<std::uint64_t> &v) {
        os << ';' << name << '=';
        for (const std::uint64_t x : v)
            os << x << ',';
    };
    doubles("ipc", m.ipc);
    ints("retired", m.retired);
    ints("served", m.servedReads);
    doubles("latency", m.avgReadLatency);
    doubles("alpha", m.alpha);
    return os.str();
}

OutputCheck::OutputCheck(const Options &opt, const std::string &workload)
    : pinned_(opt.seed == kDefaultSeed), print_(opt.printDigests),
      workload_(workload)
{
    if (!pinned_)
        return;
    std::ifstream is(opt.pins);
    std::stringstream ss;
    ss << is.rdbuf();
    try {
        const json::Value doc = json::parse(ss.str());
        if (const json::Value *w = doc.find(workload)) {
            for (const auto &[key, value] : w->asObject())
                pins_[key] = value.asString();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: cannot read pins %s: %s\n",
                     opt.pins.c_str(), e.what());
    }
}

bool
OutputCheck::check(const std::string &key, const std::string &value_digest,
                   std::string *why)
{
    const auto [it, first] = first_.emplace(key, value_digest);
    if (first && print_)
        std::fprintf(stderr, "pin %s %s %s\n", workload_.c_str(),
                     key.c_str(), value_digest.c_str());
    if (it->second != value_digest) {
        *why = key + ": digest " + value_digest +
               " differs from the run's first round " + it->second;
        return false;
    }
    if (!pinned_)
        return true;
    const auto pin = pins_.find(key);
    if (pin == pins_.end()) {
        *why = key + ": no pinned digest for the default seed";
        return false;
    }
    if (pin->second != value_digest) {
        *why = key + ": digest " + value_digest + " != pinned " +
               pin->second;
        return false;
    }
    return true;
}

// ----- end-to-end metrics -------------------------------------------

/** fastestRounds and fastestShare keep 1/kFastestShareDen of their
 *  samples. */
constexpr std::size_t kFastestShareDen = 10;

unsigned
parallelJobs()
{
    return std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<double>
fastestShare(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    v.resize((v.size() + kFastestShareDen - 1) / kFastestShareDen);
    return v;
}

std::vector<Round>
fastestRounds(std::vector<Round> rounds)
{
    const std::size_t all = rounds.size();
    std::sort(rounds.begin(), rounds.end(),
              [](const Round &a, const Round &b) { return a.wallS < b.wallS; });
    const double median_wall =
        medianOf(rounds, [](const Round &r) { return r.wallS; });
    rounds.resize((all + kFastestShareDen - 1) / kFastestShareDen);
    std::fprintf(stderr,
                 "perfbench: keeping the fastest %zu of %zu rounds (median "
                 "wall over all %.6f s)\n",
                 rounds.size(), all, median_wall);
    return rounds;
}

std::vector<double>
jobLatencies(const std::vector<Round> &rounds)
{
    std::vector<double> lat;
    for (const Round &r : rounds)
        lat.insert(lat.end(), r.jobLatMs.begin(), r.jobLatMs.end());
    return lat;
}

std::vector<double>
fastestJobLatencies(const std::vector<Round> &rounds)
{
    std::vector<double> lat;
    const std::size_t per_round =
        rounds.empty() ? 0 : rounds[0].jobLatMs.size();
    for (std::size_t j = 0; j < per_round; ++j) {
        std::vector<double> same;
        for (const Round &r : rounds) {
            if (j < r.jobLatMs.size())
                same.push_back(r.jobLatMs[j]);
        }
        same = fastestShare(std::move(same));
        lat.insert(lat.end(), same.begin(), same.end());
    }
    return lat;
}

void
reportEndToEnd(Report &report, const std::vector<Round> &rounds,
               const std::vector<double> &lat,
               const std::vector<double> &tail_lat,
               const std::vector<double> &setup_samples,
               double extra_rss_mb)
{
    std::fprintf(stderr, "perfbench: round walls (s):");
    for (const Round &r : rounds)
        std::fprintf(stderr, " %.4f", r.wallS);
    std::fprintf(stderr, "\n");
    const double jobs =
        static_cast<double>(jobLatencies(rounds).size()) /
        static_cast<double>(std::max<std::size_t>(1, rounds.size()));
    const double p90 = quantile(tail_lat, 0.9);
    std::fprintf(stderr,
                 "perfbench: %zu rounds, %zu job latencies for p50, %zu for "
                 "p90 (%zu above it), %zu set-up samples\n",
                 rounds.size(), lat.size(), tail_lat.size(),
                 static_cast<std::size_t>(
                     std::count_if(tail_lat.begin(), tail_lat.end(),
                                   [&](double x) { return x > p90; })),
                 setup_samples.size());

    const auto wall = [](const Round &r) { return r.wallS; };
    report.metric("setup_s", median(setup_samples), "s");
    report.metric("wall_s", medianOf(rounds, wall), "s");
    report.metric("host_ns_per_sim_cycle",
                  medianOf(rounds, [](const Round &r) {
                      return r.runS * 1e9 / r.simCycles;
                  }),
                  "ns");
    report.metric("sims_per_s", medianOf(rounds, [](const Round &r) {
                      return r.sims / r.wallS;
                  }),
                  "1/s");
    report.metric("jobs_per_s", medianOf(rounds, [&](const Round &r) {
                      return jobs / r.wallS;
                  }),
                  "1/s");
    report.metric("job_latency_p50_ms", quantile(lat, 0.5), "ms");
    report.metric("job_latency_p90_ms", p90, "ms");
    report.metric("peak_rss_mb", selfPeakRssMb() + extra_rss_mb, "MiB");
    const double ok =
        report.attempted() > 0
            ? 1.0 - static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted())
            : 0.0;
    report.metric("success_ratio", ok, "ratio");
}

} // namespace perfbench

#include "perfbench/layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/obs/registry.h"

namespace perfbench {

using camo::obs::Profiler;

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double
perCycle(double ns, double cycles)
{
    return cycles > 0.0 ? ns / cycles : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

TimerCost
calibrateTimer()
{
    // The kernel's hooks add each reading to a phase node and to one
    // of ~40 per-component leaves; the loop does the same.
    constexpr int kPairs = 200000;
    constexpr int kLoops = 9;
    constexpr std::size_t kLeaves = 40;
    Profiler prof;
    const Profiler::NodeId phase = prof.child(prof.root(), "tick");
    std::vector<Profiler::NodeId> leaves;
    for (std::size_t i = 0; i < kLeaves; ++i)
        leaves.push_back(prof.child(phase, "leaf" + std::to_string(i)));
    std::vector<double> pair;
    std::vector<double> inside;
    for (int loop = 0; loop < kLoops; ++loop) {
        prof.clear();
        const std::uint64_t t0 = Profiler::clockNs();
        for (int i = 0; i < kPairs; ++i) {
            Profiler::Timer t;
            const std::uint64_t ns = t.elapsedNs();
            prof.add(phase, ns);
            prof.add(leaves[static_cast<std::size_t>(i) % kLeaves], ns);
        }
        const std::uint64_t t1 = Profiler::clockNs();
        pair.push_back(static_cast<double>(t1 - t0) / kPairs);
        inside.push_back(static_cast<double>(prof.node(phase).ns) / kPairs);
    }
    return {median(pair), median(inside)};
}

TimerCost
medianCost(const std::vector<TimerCost> &samples)
{
    std::vector<double> pair;
    std::vector<double> inside;
    for (const TimerCost &c : samples) {
        pair.push_back(c.pairNs);
        inside.push_back(c.insideNs);
    }
    return {median(pair), median(inside)};
}

LayerTimes &
LayerTimes::operator+=(const LayerTimes &o)
{
    rawTotalNs += o.rawTotalNs;
    totalNs += o.totalNs;
    kernelNs += o.kernelNs;
    skipNs += o.skipNs;
    stationNs += o.stationNs;
    resplinkNs += o.resplinkNs;
    coreNs += o.coreNs;
    nocNs += o.nocNs;
    memNs += o.memNs;
    otherNs += o.otherNs;
    tickCalls += o.tickCalls;
    resplinkCalls += o.resplinkCalls;
    coreCalls += o.coreCalls;
    memCalls += o.memCalls;
    timedCalls += o.timedCalls;
    return *this;
}

LayerTimes
attribute(const Profiler &prof, const TimerCost &cost)
{
    LayerTimes lt;
    const auto &nodes = prof.nodes();
    const auto &root = prof.node(prof.root());
    lt.rawTotalNs = static_cast<double>(root.ns);

    // Leaves below the root's phases: each call is one timer pair,
    // and its interval holds `insideNs` of the pair's cost.
    auto leafNs = [&](const Profiler::Node &n) {
        return std::max(0.0, static_cast<double>(n.ns) -
                                 static_cast<double>(n.calls) *
                                     cost.insideNs);
    };
    for (const Profiler::NodeId phase_id : root.children) {
        const Profiler::Node &phase = nodes[phase_id];
        if (phase.children.empty()) {
            // next_event / watchdog: timed directly.
            lt.otherNs += leafNs(phase);
            lt.timedCalls += phase.calls;
            continue;
        }
        for (const Profiler::NodeId leaf_id : phase.children) {
            const Profiler::Node &leaf = nodes[leaf_id];
            const double ns = leafNs(leaf);
            lt.timedCalls += leaf.calls;
            if (phase.name == "skip") {
                lt.skipNs += ns;
                continue;
            }
            lt.tickCalls += leaf.calls;
            const std::string &name = leaf.name;
            if (startsWith(name, "station.")) {
                lt.stationNs += ns;
                if (name == "station.resplink") {
                    lt.resplinkNs += ns;
                    lt.resplinkCalls += leaf.calls;
                }
            } else if (startsWith(name, "core")) {
                lt.coreNs += ns;
                lt.coreCalls += leaf.calls;
            } else if (startsWith(name, "noc.")) {
                lt.nocNs += ns;
            } else if (name == "mem") {
                lt.memNs += ns;
                lt.memCalls += leaf.calls;
            } else {
                lt.otherNs += ns;
            }
        }
    }
    const double calls = static_cast<double>(lt.timedCalls);
    lt.totalNs = std::max(0.0, lt.rawTotalNs - calls * cost.pairNs);
    lt.kernelNs =
        std::max(0.0, static_cast<double>(prof.selfNs(prof.root())) -
                          calls * (cost.pairNs - cost.insideNs));
    return lt;
}

void
SimCounts::add(const camo::sim::System &sys, double sim_cycles)
{
    camo::obs::StatRegistry reg;
    sys.registerStats(reg);
    for (const std::string &path : reg.paths()) {
        const camo::StatGroup &g = *reg.find(path);
        if (startsWith(path, "core") && endsWith(path, ".cache")) {
            llcMisses += static_cast<double>(g.counter("llc.misses"));
            coalesced += static_cast<double>(g.counter("mshr.coalesced"));
        } else if (startsWith(path, "shaper.") && !endsWith(path, ".bins")) {
            releasedReal += static_cast<double>(g.counter("released.real"));
            releasedFake += static_cast<double>(g.counter("released.fake"));
            stallCycles += static_cast<double>(g.counter("stalled.cycles"));
        } else if (startsWith(path, "noc.")) {
            grants += static_cast<double>(g.counter("granted"));
        } else if (startsWith(path, "mc.") && endsWith(path, ".dram")) {
            act += static_cast<double>(g.counter("cmd.ACT"));
            rd += static_cast<double>(g.counter("cmd.RD"));
            wr += static_cast<double>(g.counter("cmd.WR"));
        } else if (startsWith(path, "mc.") &&
                   g.hasScalar("queue.latency.dram")) {
            const camo::Scalar &s = g.scalar("queue.latency.dram");
            queueLatSum += s.sum();
            queueLatCount += static_cast<double>(s.count());
        } else if (path == "system.arena") {
            arenaReserved += static_cast<double>(g.counter("bytes_reserved"));
            heapFallbacks += static_cast<double>(g.counter("heap_fallbacks"));
        }
    }
    double ipc = 0.0;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        ipc += sys.coreAt(i).ipc();
        retired += static_cast<double>(sys.coreAt(i).retired());
    }
    ipcSum += ipc;
    cycles += sim_cycles;
    runs += 1.0;
}

namespace {

/** The simulator-side per-layer metrics: kernel, skip, tick, stations,
 *  core, cache, camouflage, noc, mem, dram, arena, and the profiler's
 *  own cost. */
void
reportSimLayers(Report &report, const LayerTimes &lt, const SimCounts &c,
                const TimerCost &cost)
{
    const double cyc = c.cycles;
    const double kcyc = cyc / 1000.0;
    report.metric("sim.kernel.self_ns_per_cycle", perCycle(lt.kernelNs, cyc),
                  "ns");
    report.metric("sim.kernel.share", ratio(lt.kernelNs, lt.totalNs),
                  "ratio");
    report.metric("sim.skip.ns_per_cycle", perCycle(lt.skipNs, cyc), "ns");
    report.metric("sim.tick.calls_per_kcycle",
                  ratio(static_cast<double>(lt.tickCalls), kcyc), "count");
    report.metric("sim.station.ns_per_cycle", perCycle(lt.stationNs, cyc),
                  "ns");
    report.metric("sim.station.resplink.ns_per_call",
                  ratio(lt.resplinkNs, static_cast<double>(lt.resplinkCalls)),
                  "ns");
    report.metric("core.ns_per_cycle", perCycle(lt.coreNs, cyc), "ns");
    report.metric("core.ns_per_call",
                  ratio(lt.coreNs, static_cast<double>(lt.coreCalls)), "ns");
    report.metric("core.ipc_sum", ratio(c.ipcSum, c.runs), "ipc");
    report.metric("cache.llc_miss_per_kinst",
                  ratio(c.llcMisses, c.retired / 1000.0), "count");
    report.metric("cache.mshr_coalesce_ratio",
                  ratio(c.coalesced, c.coalesced + c.llcMisses), "ratio");
    report.metric("camouflage.fake_ratio",
                  ratio(c.releasedFake, c.releasedFake + c.releasedReal),
                  "ratio");
    report.metric("camouflage.stall_cycles_per_kcycle",
                  ratio(c.stallCycles, kcyc), "cycles");
    report.metric("noc.ns_per_cycle", perCycle(lt.nocNs, cyc), "ns");
    report.metric("noc.grants_per_kcycle", ratio(c.grants, kcyc), "count");
    report.metric("mem.ns_per_cycle", perCycle(lt.memNs, cyc), "ns");
    report.metric("mem.ns_per_call",
                  ratio(lt.memNs, static_cast<double>(lt.memCalls)), "ns");
    report.metric("mem.queue_latency_mean_cycles",
                  ratio(c.queueLatSum, c.queueLatCount), "cycles");
    report.metric("dram.row_hit_ratio",
                  c.rd + c.wr > 0.0 ? 1.0 - c.act / (c.rd + c.wr) : 0.0,
                  "ratio");
    report.metric("dram.cmds_per_kcycle", ratio(c.act + c.rd + c.wr, kcyc),
                  "count");
    report.metric("arena.bytes_reserved", ratio(c.arenaReserved, c.runs),
                  "bytes");
    report.metric("arena.heap_fallbacks", ratio(c.heapFallbacks, c.runs),
                  "count");
    report.metric("obs.profiler.timer_ns", cost.pairNs, "ns");
}

/** One half's layer shares on standard error, raw (as the profiler
 *  recorded them) and corrected, for comparison with other profiles. */
void
printShares(const char *half, const LayerTimes &raw, const LayerTimes &lt)
{
    for (const auto &[tag, t] : {std::pair<const char *, const LayerTimes *>{
                                     "raw", &raw},
                                 {"corrected", &lt}}) {
        const double total = t->totalNs;
        std::fprintf(stderr,
                     "perfbench: %s shares (%s): kernel %.3f core %.3f mem "
                     "%.3f station %.3f noc %.3f skip %.3f other %.3f\n",
                     half, tag, ratio(t->kernelNs, total),
                     ratio(t->coreNs, total), ratio(t->memNs, total),
                     ratio(t->stationNs, total), ratio(t->nocNs, total),
                     ratio(t->skipNs, total), ratio(t->otherNs, total));
    }
}

} // namespace

/**
 * Report the per-layer metrics shared by the in-process workloads
 * and write the spans and profiles for later inspection.
 */
void
reportTrace(const Options &opt, Report &report, Trace &trace,
            const TimerCost &cost, const PlainRunNs &plain,
            double overhead_ratio)
{
    const LayerTimes none = attribute(trace.profNone, cost);
    const LayerTimes shaped = attribute(trace.profShaped, cost);
    // The kernel and layer self times partition the corrected total;
    // that total must match the clock, or the subtraction is wrong.
    for (const auto &[half, prof, lt, plain_ns] :
         {std::tuple<const char *, const Profiler *, const LayerTimes *,
                     double>{"none", &trace.profNone, &none, plain.none},
          {"shaped", &trace.profShaped, &shaped, plain.shaped}}) {
        if (plain_ns <= 0.0)
            continue;
        printShares(half, attribute(*prof, TimerCost{}), *lt);
        const double raw = lt->rawTotalNs / plain_ns;
        const double corrected = lt->totalNs / plain_ns;
        std::fprintf(stderr,
                     "perfbench: %s half: profiled / unprofiled run time "
                     "%.4f raw, %.4f corrected\n",
                     half, raw, corrected);
        report.op(corrected >= kMinCorrectedRatio &&
                      corrected <= kMaxCorrectedRatio,
                  std::string(half) + " half: corrected profile " +
                      fullText(corrected) +
                      "x the unprofiled run time, outside [" +
                      fullText(kMinCorrectedRatio) + ", " +
                      fullText(kMaxCorrectedRatio) + "]");
    }
    LayerTimes all = none;
    all += shaped;
    reportSimLayers(report, all, trace.counts, cost);
    report.metric("obs.corrected_total_ratio",
                  ratio(all.totalNs, plain.none + plain.shaped), "ratio");

    // The benchmark's span around System::run, less the timer pairs
    // the profiler added inside it.
    auto runNsPerCycle = [&](const char *span, const LayerTimes &lt,
                             double cycles) {
        double ns = -static_cast<double>(lt.timedCalls) * cost.pairNs;
        for (const double d : trace.spans.durationsNs(span))
            ns += d;
        return cycles > 0.0 ? std::max(0.0, ns) / cycles : 0.0;
    };
    report.metric("sim.run.none.ns_per_cycle",
                  runNsPerCycle("sim.run.none", none, trace.cyclesNone), "ns");
    report.metric("sim.run.bdc.ns_per_cycle",
                  runNsPerCycle("sim.run.bdc", shaped, trace.cyclesShaped),
                  "ns");
    report.metric("sim.plan.compile_ms",
                  median(trace.spans.durationsNs("sim.plan.compile")) / 1e6,
                  "ms");
    report.metric(
        "sim.plan.instantiate_us",
        median(trace.spans.durationsNs("sim.plan.instantiate")) / 1e3, "us");
    report.metric("obs.trace_overhead_ratio", overhead_ratio, "ratio");
    report.metric("security.mi_ms_per_op",
                  median(trace.spans.durationsNs("security.mi")) / 1e6, "ms");

    const std::string stem =
        opt.outDir + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
    trace.spans.write(stem + ".spans.json");
    for (const auto &[tag, prof] :
         {std::pair<const char *, const camo::obs::Profiler *>{"none",
                                                         &trace.profNone},
          {"shaped", &trace.profShaped}}) {
        if (prof->totalNs() == 0)
            continue;
        std::FILE *f = std::fopen((stem + "." + tag + ".prof.json").c_str(),
                                  "w");
        if (f) {
            std::fputs(prof->toJson().dump(2).c_str(), f);
            std::fclose(f);
        }
    }
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kTable = {
        {"sim.kernel.self_ns_per_cycle", "ns"},
        {"sim.kernel.share", "ratio"},
        {"sim.skip.ns_per_cycle", "ns"},
        {"sim.tick.calls_per_kcycle", "count"},
        {"sim.station.ns_per_cycle", "ns"},
        {"sim.station.resplink.ns_per_call", "ns"},
        {"sim.run.none.ns_per_cycle", "ns"},
        {"sim.run.bdc.ns_per_cycle", "ns"},
        {"sim.plan.compile_ms", "ms"},
        {"sim.plan.instantiate_us", "us"},
        {"sim.parallel.efficiency", "ratio"},
        {"core.ns_per_cycle", "ns"},
        {"core.ns_per_call", "ns"},
        {"core.ipc_sum", "ipc"},
        {"cache.llc_miss_per_kinst", "count"},
        {"cache.mshr_coalesce_ratio", "ratio"},
        {"camouflage.fake_ratio", "ratio"},
        {"camouflage.stall_cycles_per_kcycle", "cycles"},
        {"noc.ns_per_cycle", "ns"},
        {"noc.grants_per_kcycle", "count"},
        {"mem.ns_per_cycle", "ns"},
        {"mem.ns_per_call", "ns"},
        {"mem.queue_latency_mean_cycles", "cycles"},
        {"dram.row_hit_ratio", "ratio"},
        {"dram.cmds_per_kcycle", "count"},
        {"security.mi_ms_per_op", "ms"},
        {"ga.child_eval_ms", "ms"},
        {"ga.evals", "count"},
        {"arena.bytes_reserved", "bytes"},
        {"arena.heap_fallbacks", "count"},
        {"server.submit_rtt_us", "us"},
        {"server.overhead_ms_per_job", "ms"},
        {"server.latency_mean_ms", "ms"},
        {"server.queue_depth_max", "count"},
        {"server.retries", "count"},
        {"server.cache_hits", "count"},
        {"obs.profiler.timer_ns", "ns"},
        {"obs.trace_overhead_ratio", "ratio"},
        {"obs.corrected_total_ratio", "ratio"},
    };
    return kTable;
}

} // namespace perfbench

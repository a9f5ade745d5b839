/**
 * @file
 * Registry of the paper's evaluation workloads.
 *
 * SPECInt 2006 benchmarks plus the Apache web server, modelled
 * synthetically (DESIGN.md §5). Parameters encode each benchmark's
 * qualitative memory character: demand intensity (LLC MPKI ordering:
 * mcf >> libquantum ~ omnetpp > apache > astar > gcc > bzip2 > hmmer >
 * h264ref > gobmk > sjeng), sequential vs pointer-chasing access, and
 * phase/burst structure. compileWorkload() is the one way to turn a
 * workload name into trace sources.
 */

#ifndef CAMO_TRACE_WORKLOADS_H
#define CAMO_TRACE_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "src/trace/covert.h"
#include "src/trace/pim.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"

namespace camo::trace {

/** Names of the 11 evaluation workloads, in the paper's order. */
const std::vector<std::string> &workloadNames();

/** Is `name` a known workload (including the parameterized
 *  "covert:" / "probe" / "hammer:" / "pim:" / "dramsim2:" /
 *  "champsim:" / "gem5:" / "webdiurnal" families)? */
bool isKnownWorkload(const std::string &name);

/** Parameters for one of the 11 named workloads. */
WorkloadParams workloadParams(const std::string &name);

/**
 * A workload name, parsed and validated once.
 *
 * Sweeps and the GA instantiate the same workload mix hundreds of
 * times with per-run seeds and address bases. CompiledWorkload does
 * the name parsing, parameter validation, and (for "dramsim2:" /
 * "champsim:" / "gem5:" names) the trace-file load + parse exactly
 * once; instantiate() then builds a fresh TraceSource per run without
 * re-touching the filesystem.
 *
 * Copying a CompiledWorkload is cheap: parsed trace items are shared
 * immutably (std::shared_ptr), never duplicated.
 */
class CompiledWorkload
{
  public:
    enum class Kind
    {
        Probe,      ///< "probe" / "probe:N"
        Covert,     ///< "covert:HEX"
        Hammer,     ///< "hammer:HEX"
        Pim,        ///< "pim:HEX[:PULSE]"
        File,       ///< "dramsim2:" / "champsim:" / "gem5:" replay
        Synthetic,  ///< one of the 11 benchmark models
        DiurnalWeb, ///< "webdiurnal[:DAY]"
    };

    Kind kind() const { return kind_; }
    const std::string &name() const { return name_; }

    /** Build a fresh per-run source. `seed` drives the workload's
     *  generators; `addr_base` keeps different cores' address
     *  spaces disjoint. */
    std::unique_ptr<TraceSource> instantiate(std::uint64_t seed,
                                             Addr addr_base) const;

  private:
    friend CompiledWorkload compileWorkload(const std::string &name);
    CompiledWorkload() = default;

    Kind kind_ = Kind::Synthetic;
    std::string name_;
    ProbeParams probe_;
    CovertSenderParams covert_;
    PimSenderParams pim_;
    WorkloadParams synth_;
    std::shared_ptr<const std::vector<TraceItem>> traceItems_;
    std::string traceName_;
    std::uint64_t dayInstrs_ = 0;
};

/**
 * Parse and validate a workload name, loading any trace file it
 * references.
 *
 * Accepted names:
 *  - the 11 benchmark names;
 *  - "probe" / "probe:N" (constant-rate measuring adversary, one
 *    load per N CPU cycles);
 *  - "covert:HEX" (Algorithm 1 sender with a 32-bit key, e.g.
 *    "covert:2AAAAAAA");
 *  - "hammer:HEX" (covert sender whose 1-pulses are a same-bank
 *    row-conflict storm — drives TRR/PRAC RowHammer mitigations);
 *  - "pim:HEX" / "pim:HEX:PULSE" (PIM-command covert sender,
 *    src/trace/pim.h; PULSE in CPU cycles, default 5000);
 *  - "dramsim2:PATH" / "champsim:PATH" / "gem5:PATH" (trace-file
 *    replay, src/trace/file_trace.h; PATH may be "@sample");
 *  - "webdiurnal" / "webdiurnal:DAY" (bursty web server following a
 *    24-hour load curve with flash crowds; DAY = instructions per
 *    simulated day, default 240000).
 *
 * @throws hard::ConfigError on unknown names; a malformed
 *         parameterized name names the offending token and byte
 *         offset.
 */
CompiledWorkload compileWorkload(const std::string &name);

} // namespace camo::trace

#endif // CAMO_TRACE_WORKLOADS_H

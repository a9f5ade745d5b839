/**
 * @file
 * Trace-ingestion frontend: real memory traces as TraceSources.
 *
 * Three interchange formats feed the existing TraceItem stream so
 * real workloads drive cores alongside the synthetic SPEC models:
 *
 *  - DRAMSim2 text: one request per line, `0xADDR CMD CYCLE` with CMD
 *    in {P_MEM_RD, P_MEM_WR, P_FETCH} and CYCLE the absolute
 *    (non-decreasing) CPU issue cycle. Blank lines and `#`/`;`
 *    comments are tolerated. Cycle deltas become TraceItem::waitCycles
 *    (wall-clock pacing).
 *
 *  - ChampSim binary: fixed 64-byte input_instr records (ip u64,
 *    is_branch u8, branch_taken u8, 2 destination registers, 4 source
 *    registers, 2 destination-memory u64, 4 source-memory u64, all
 *    little-endian). Each record is one instruction; non-zero memory
 *    slots become accesses paced by instruction gaps
 *    (TraceItem::gapInstrs).
 *
 *  - gem5 packet CSV (util/decode_packet_trace.py output): one
 *    `TICK,CMD,ADDR,SIZE` packet per line with CMD in {r, w, ReadReq,
 *    WriteReq}. Tick deltas become TraceItem::waitCycles; an access
 *    spanning multiple 64-byte lines becomes one item per line.
 *
 * Malformed input raises hard::ConfigError naming the offending token
 * and byte offset (mirroring FaultPlan::parse) — never an abort, so
 * one bad trace fails one job, not a whole sweep. Parsing is pure and
 * the replay is stateless-per-iteration, so trace-driven runs stay
 * bit-exact across jobs=1/N.
 *
 * Workload names (src/trace/workloads.h): `dramsim2:PATH`,
 * `champsim:PATH`, and `gem5:PATH`; `PATH` may be `@sample` for the
 * embedded example trace of each format (used by the shipped scenario
 * topologies so they work from any directory).
 */

#ifndef CAMO_TRACE_FILE_TRACE_H
#define CAMO_TRACE_FILE_TRACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace camo::trace {

/** Supported trace-file formats. */
enum class TraceFileFormat
{
    DramSim2, ///< text, one request per line
    ChampSim, ///< binary, 64-byte input_instr records
    Gem5,     ///< text, one `TICK,CMD,ADDR,SIZE` packet per line
};

const char *traceFileFormatName(TraceFileFormat format);

/**
 * Parse DRAMSim2 text. `source` names the trace in error messages.
 * @throws hard::ConfigError naming the offending token and its byte
 *         offset in `text`.
 */
std::vector<TraceItem> parseDramSim2Trace(const std::string &text,
                                          const std::string &source);

/**
 * Parse ChampSim binary records. `source` names the trace in error
 * messages.
 * @throws hard::ConfigError naming the offending byte offset.
 */
std::vector<TraceItem> parseChampSimTrace(const std::string &bytes,
                                          const std::string &source);

/**
 * Parse a gem5 packet trace (util/decode_packet_trace.py CSV):
 * `TICK,CMD,ADDR,SIZE` per line with CMD in {r, w, ReadReq,
 * WriteReq}, ADDR decimal or 0x-hex, and TICK absolute and
 * non-decreasing (interpreted as CPU cycles). An access spanning
 * multiple 64-byte lines becomes one TraceItem per line touched.
 * Blank lines and `#`/`;` comments are tolerated.
 * @throws hard::ConfigError naming the offending token and byte
 *         offset, like the other formats.
 */
std::vector<TraceItem> parseGem5Trace(const std::string &text,
                                      const std::string &source);

/** Render items back into DRAMSim2 text (round-trip inverse of
 *  parseDramSim2Trace for wait-paced items; used by tests). */
std::string formatDramSim2Trace(const std::vector<TraceItem> &items);

/** The embedded example trace for `format` (`@sample`). */
const std::string &builtinSampleTrace(TraceFileFormat format);

/**
 * Replay a parsed trace forever: items stream in order and the
 * sequence restarts after the last one. `addr_base` relocates every
 * access (per-core address-space disjointness).
 */
class FileTrace final : public TraceSource
{
  public:
    /** Share an already-parsed item sequence (SystemPlan compiles a
     *  trace file once per sweep; every run replays the same
     *  immutable items). */
    FileTrace(std::shared_ptr<const std::vector<TraceItem>> items,
              std::string name, Addr addr_base);

    const std::string &name() const override { return name_; }
    TraceItem next(Cycle now) override;

    std::size_t size() const { return items_->size(); }
    std::uint64_t iterations() const { return iterations_; }

  private:
    std::shared_ptr<const std::vector<TraceItem>> items_;
    std::string name_;
    Addr addrBase_;
    std::size_t cursor_ = 0;
    std::uint64_t iterations_ = 0;
};

/**
 * Load and parse `path` (or the embedded sample when `path` ==
 * "@sample") into an immutable, shareable item sequence.
 * @throws hard::ConfigError on unreadable files or malformed content.
 */
std::shared_ptr<const std::vector<TraceItem>>
loadTraceItems(TraceFileFormat format, const std::string &path);

} // namespace camo::trace

#endif // CAMO_TRACE_FILE_TRACE_H

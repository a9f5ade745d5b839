#include "src/trace/file_trace.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"
#include "src/hard/error.h"

namespace camo::trace {

namespace {

/** A token plus its byte offset in the trace text, so every parse
 *  error can point at the exact input position. */
struct Token
{
    std::string text;
    std::size_t offset = 0;
};

[[noreturn]] void
failTrace(const std::string &source, const std::string &what,
          const Token &tok)
{
    std::ostringstream os;
    os << "trace '" << source << "': " << what << " token '" << tok.text
       << "' at byte " << tok.offset;
    throw hard::ConfigError(os.str());
}

/** Whitespace-split one line, recording absolute byte offsets.
 *  `line_start` is the line's offset in the full text; `#` and `;`
 *  start a comment. */
std::vector<Token>
tokenizeLine(const std::string &line, std::size_t line_start)
{
    std::vector<Token> out;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i]))) {
            ++i;
        }
        if (i >= line.size() || line[i] == '#' || line[i] == ';')
            break;
        const std::size_t begin = i;
        while (i < line.size() &&
               !std::isspace(static_cast<unsigned char>(line[i]))) {
            ++i;
        }
        out.push_back({line.substr(begin, i - begin), line_start + begin});
    }
    return out;
}

/** Comma-split one line, trimming surrounding whitespace per field
 *  and recording absolute byte offsets. Returns an empty list for
 *  blank/comment lines; an empty field between commas is kept (as an
 *  empty token) so field-count errors point at the right place. */
std::vector<Token>
tokenizeCsvLine(const std::string &line, std::size_t line_start)
{
    // Comments and blank lines follow the whitespace tokenizer rules.
    std::size_t first = 0;
    while (first < line.size() &&
           std::isspace(static_cast<unsigned char>(line[first]))) {
        ++first;
    }
    if (first >= line.size() || line[first] == '#' || line[first] == ';')
        return {};

    std::vector<Token> out;
    std::size_t i = first;
    while (true) {
        std::size_t end = line.find(',', i);
        if (end == std::string::npos)
            end = line.size();
        std::size_t begin = i;
        std::size_t stop = end;
        while (begin < stop &&
               std::isspace(static_cast<unsigned char>(line[begin]))) {
            ++begin;
        }
        while (stop > begin &&
               std::isspace(static_cast<unsigned char>(line[stop - 1]))) {
            --stop;
        }
        out.push_back({line.substr(begin, stop - begin),
                       line_start + begin});
        if (end >= line.size())
            break;
        i = end + 1;
    }
    return out;
}

/** Parse an unsigned integer token in `base`; the whole token must
 *  convert. */
bool
parseUint(const Token &tok, int base, std::uint64_t &value)
{
    const std::string &t = tok.text;
    std::size_t start = 0;
    if (base == 16 && t.size() > 2 && t[0] == '0' &&
        (t[1] == 'x' || t[1] == 'X')) {
        start = 2;
    }
    if (start >= t.size())
        return false;
    value = 0;
    for (std::size_t i = start; i < t.size(); ++i) {
        const char c = t[i];
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = 10 + (c - 'a');
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = 10 + (c - 'A');
        else
            return false;
        if (digit >= base)
            return false;
        value = value * static_cast<std::uint64_t>(base) +
                static_cast<std::uint64_t>(digit);
    }
    return true;
}

std::uint64_t
readLeU64(const std::string &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
    }
    return v;
}

void
writeLeU64(std::string &bytes, std::uint64_t v)
{
    for (std::size_t i = 0; i < 8; ++i)
        bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

} // namespace

const char *
traceFileFormatName(TraceFileFormat format)
{
    switch (format) {
      case TraceFileFormat::DramSim2: return "dramsim2";
      case TraceFileFormat::ChampSim: return "champsim";
      case TraceFileFormat::Gem5: return "gem5";
    }
    return "?";
}

std::vector<TraceItem>
parseDramSim2Trace(const std::string &text, const std::string &source)
{
    std::vector<TraceItem> items;
    std::uint64_t prev_cycle = 0;
    bool first = true;

    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        const std::vector<Token> toks = tokenizeLine(line, pos);
        pos = eol + 1;
        if (toks.empty()) {
            if (pos > text.size())
                break;
            continue;
        }
        if (toks.size() < 3) {
            failTrace(source,
                      "incomplete record (want ADDR CMD CYCLE) at",
                      toks.front());
        }
        if (toks.size() > 3)
            failTrace(source, "unexpected trailing", toks[3]);

        std::uint64_t addr = 0;
        if (!parseUint(toks[0], 16, addr))
            failTrace(source, "bad address", toks[0]);

        bool is_write;
        if (toks[1].text == "P_MEM_RD" || toks[1].text == "P_FETCH")
            is_write = false;
        else if (toks[1].text == "P_MEM_WR")
            is_write = true;
        else
            failTrace(source, "unknown command", toks[1]);

        std::uint64_t cycle = 0;
        if (!parseUint(toks[2], 10, cycle))
            failTrace(source, "bad cycle", toks[2]);
        if (!first && cycle < prev_cycle)
            failTrace(source, "non-monotonic cycle", toks[2]);

        TraceItem item;
        item.waitCycles = first ? cycle : cycle - prev_cycle;
        item.addr = addr;
        item.isWrite = is_write;
        items.push_back(item);
        prev_cycle = cycle;
        first = false;
        if (pos > text.size())
            break;
    }

    if (items.empty()) {
        throw hard::ConfigError("trace '" + source +
                                "': contains no memory operations");
    }
    return items;
}

std::vector<TraceItem>
parseChampSimTrace(const std::string &bytes, const std::string &source)
{
    // One input_instr record is 64 bytes:
    //   [ 0] ip                      u64
    //   [ 8] is_branch               u8
    //   [ 9] branch_taken            u8
    //   [10] destination_registers   u8 x 2
    //   [12] source_registers        u8 x 4
    //   [16] destination_memory      u64 x 2
    //   [32] source_memory           u64 x 4
    constexpr std::size_t kRecordBytes = 64;
    if (bytes.empty()) {
        throw hard::ConfigError("trace '" + source +
                                "': empty ChampSim trace");
    }
    if (bytes.size() % kRecordBytes != 0) {
        const std::size_t at = (bytes.size() / kRecordBytes) * kRecordBytes;
        throw hard::ConfigError(
            "trace '" + source + "': truncated ChampSim record at byte " +
            std::to_string(at) + " (size " + std::to_string(bytes.size()) +
            " is not a multiple of " + std::to_string(kRecordBytes) + ")");
    }

    std::vector<TraceItem> items;
    std::uint64_t gap = 0;
    for (std::size_t at = 0; at < bytes.size(); at += kRecordBytes) {
        bool emitted = false;
        auto emit = [&](std::uint64_t addr, bool is_write) {
            if (addr == 0)
                return; // empty slot
            TraceItem item;
            item.gapInstrs = emitted ? 0 : gap;
            item.addr = addr;
            item.isWrite = is_write;
            items.push_back(item);
            if (!emitted)
                gap = 0;
            emitted = true;
        };
        for (std::size_t s = 0; s < 4; ++s)
            emit(readLeU64(bytes, at + 32 + 8 * s), false);
        for (std::size_t d = 0; d < 2; ++d)
            emit(readLeU64(bytes, at + 16 + 8 * d), true);
        if (!emitted)
            ++gap; // a non-memory instruction widens the next gap
    }

    if (items.empty()) {
        throw hard::ConfigError("trace '" + source +
                                "': contains no memory operations");
    }
    return items;
}

std::vector<TraceItem>
parseGem5Trace(const std::string &text, const std::string &source)
{
    constexpr std::uint64_t kLineBytes = 64;
    constexpr std::uint64_t kMaxPacketBytes = 4096;
    std::vector<TraceItem> items;
    std::uint64_t prev_tick = 0;
    bool first = true;

    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        const std::vector<Token> toks = tokenizeCsvLine(line, pos);
        pos = eol + 1;
        if (toks.empty()) {
            if (pos > text.size())
                break;
            continue;
        }
        if (toks.size() < 4) {
            failTrace(source,
                      "incomplete record (want TICK,CMD,ADDR,SIZE) at",
                      toks.front());
        }
        if (toks.size() > 4)
            failTrace(source, "unexpected trailing", toks[4]);

        std::uint64_t tick = 0;
        if (!parseUint(toks[0], 10, tick))
            failTrace(source, "bad tick", toks[0]);
        if (!first && tick < prev_tick)
            failTrace(source, "non-monotonic tick", toks[0]);

        bool is_write;
        const std::string &cmd = toks[1].text;
        if (cmd == "r" || cmd == "ReadReq")
            is_write = false;
        else if (cmd == "w" || cmd == "WriteReq")
            is_write = true;
        else
            failTrace(source, "unknown command", toks[1]);

        // gem5's decoder emits decimal addresses; hand-written traces
        // tend to use hex. Accept both (0x selects hex).
        const bool hex_addr = toks[2].text.rfind("0x", 0) == 0 ||
                              toks[2].text.rfind("0X", 0) == 0;
        std::uint64_t addr = 0;
        if (!parseUint(toks[2], hex_addr ? 16 : 10, addr))
            failTrace(source, "bad address", toks[2]);

        std::uint64_t size = 0;
        if (!parseUint(toks[3], 10, size) || size == 0 ||
            size > kMaxPacketBytes) {
            failTrace(source, "bad size (1..4096 bytes)", toks[3]);
        }

        // One TraceItem per 64-byte line the packet touches; the tick
        // delta paces the first, the rest ride along immediately.
        const std::uint64_t first_line = addr / kLineBytes;
        const std::uint64_t last_line = (addr + size - 1) / kLineBytes;
        for (std::uint64_t ln = first_line; ln <= last_line; ++ln) {
            TraceItem item;
            item.waitCycles =
                ln == first_line ? (first ? tick : tick - prev_tick) : 0;
            item.addr = ln == first_line ? addr : ln * kLineBytes;
            item.isWrite = is_write;
            items.push_back(item);
        }
        prev_tick = tick;
        first = false;
        if (pos > text.size())
            break;
    }

    if (items.empty()) {
        throw hard::ConfigError("trace '" + source +
                                "': contains no memory operations");
    }
    return items;
}

std::string
formatDramSim2Trace(const std::vector<TraceItem> &items)
{
    std::string out;
    char buf[64];
    std::uint64_t cycle = 0;
    for (const TraceItem &item : items) {
        if (!item.hasMemOp())
            continue;
        cycle += item.waitCycles;
        std::snprintf(buf, sizeof buf, "0x%llx %s %llu\n",
                      static_cast<unsigned long long>(item.addr),
                      item.isWrite ? "P_MEM_WR" : "P_MEM_RD",
                      static_cast<unsigned long long>(cycle));
        out += buf;
    }
    return out;
}

const std::string &
builtinSampleTrace(TraceFileFormat format)
{
    // Deterministic embedded examples (PATH == "@sample"), so shipped
    // topologies run from any directory. Both model a pointer-walk
    // with periodic streaming bursts — memory-intensive but with
    // realistic pacing.
    static const std::string dramsim2 = [] {
        std::vector<TraceItem> items;
        std::uint64_t lcg = 0x2545F4914F6CDD1DULL;
        auto next_rand = [&lcg] {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            return lcg >> 33;
        };
        std::uint64_t wait = 40;
        for (int burst = 0; burst < 32; ++burst) {
            // A short streaming burst...
            const std::uint64_t base =
                0x10000000ULL + (next_rand() % 4096) * 8192;
            for (int i = 0; i < 6; ++i) {
                TraceItem item;
                item.waitCycles = 12;
                item.addr = base + static_cast<std::uint64_t>(i) * 64;
                item.isWrite = (burst % 3 == 0);
                items.push_back(item);
            }
            // ...then a sparse pointer-chase stretch.
            for (int i = 0; i < 4; ++i) {
                TraceItem item;
                item.waitCycles = wait;
                item.addr = 0x40000000ULL + (next_rand() % 65536) * 64;
                item.isWrite = false;
                items.push_back(item);
                wait = 30 + next_rand() % 220;
            }
        }
        return formatDramSim2Trace(items);
    }();
    static const std::string champsim = [] {
        std::string bytes;
        std::uint64_t lcg = 0x9E3779B97F4A7C15ULL;
        auto next_rand = [&lcg] {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            return lcg >> 33;
        };
        std::uint64_t ip = 0x400000;
        for (int n = 0; n < 512; ++n) {
            ip += 4;
            const bool is_load = n % 5 == 0;
            const bool is_store = n % 11 == 3;
            std::string rec;
            writeLeU64(rec, ip);
            rec.push_back(0); // is_branch
            rec.push_back(0); // branch_taken
            rec.append(2, static_cast<char>(1)); // destination registers
            rec.append(4, static_cast<char>(2)); // source registers
            // destination_memory[2]
            writeLeU64(rec, is_store ? 0x20000000ULL +
                                           (next_rand() % 32768) * 64
                                     : 0);
            writeLeU64(rec, 0);
            // source_memory[4]
            writeLeU64(rec, is_load ? 0x30000000ULL +
                                          (next_rand() % 32768) * 64
                                    : 0);
            writeLeU64(rec, 0);
            writeLeU64(rec, 0);
            writeLeU64(rec, 0);
            bytes += rec;
        }
        return bytes;
    }();
    static const std::string gem5 = [] {
        // Same flavor as the other samples: streaming bursts with
        // pointer-chase stretches, in gem5 packet-CSV form. A few
        // 128-byte packets exercise the multi-line split.
        std::string out;
        char buf[96];
        std::uint64_t lcg = 0x1D8AF066D5E69B85ULL;
        auto next_rand = [&lcg] {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            return lcg >> 33;
        };
        std::uint64_t tick = 100;
        for (int burst = 0; burst < 32; ++burst) {
            const std::uint64_t base =
                0x50000000ULL + (next_rand() % 4096) * 8192;
            for (int i = 0; i < 6; ++i) {
                tick += 12;
                const bool wide = i == 0 && burst % 4 == 0;
                std::snprintf(buf, sizeof buf, "%llu,%s,0x%llx,%u\n",
                              static_cast<unsigned long long>(tick),
                              burst % 3 == 0 ? "w" : "r",
                              static_cast<unsigned long long>(
                                  base + static_cast<std::uint64_t>(i) *
                                             64),
                              wide ? 128u : 64u);
                out += buf;
            }
            for (int i = 0; i < 4; ++i) {
                tick += 30 + next_rand() % 220;
                std::snprintf(buf, sizeof buf, "%llu,%s,0x%llx,%u\n",
                              static_cast<unsigned long long>(tick),
                              "ReadReq",
                              static_cast<unsigned long long>(
                                  0x60000000ULL +
                                  (next_rand() % 65536) * 64),
                              64u);
                out += buf;
            }
        }
        return out;
    }();
    switch (format) {
      case TraceFileFormat::DramSim2: return dramsim2;
      case TraceFileFormat::ChampSim: return champsim;
      case TraceFileFormat::Gem5: return gem5;
    }
    return dramsim2;
}

FileTrace::FileTrace(std::shared_ptr<const std::vector<TraceItem>> items,
                     std::string name, Addr addr_base)
    : items_(std::move(items)), name_(std::move(name)),
      addrBase_(addr_base)
{
    camo_assert(items_ != nullptr && !items_->empty(),
                "FileTrace needs at least one item");
}

TraceItem
FileTrace::next(Cycle)
{
    TraceItem item = (*items_)[cursor_];
    if (++cursor_ >= items_->size()) {
        cursor_ = 0;
        ++iterations_;
    }
    if (item.hasMemOp())
        item.addr += addrBase_;
    return item;
}

std::shared_ptr<const std::vector<TraceItem>>
loadTraceItems(TraceFileFormat format, const std::string &path)
{
    const std::string name =
        std::string(traceFileFormatName(format)) + ":" + path;
    std::string content;
    if (path == "@sample") {
        content = builtinSampleTrace(format);
    } else if (path.rfind('@', 0) == 0) {
        throw hard::ConfigError("trace '" + name +
                                "': unknown builtin trace '" + path +
                                "' (only '@sample' is embedded)");
    } else {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            throw hard::ConfigError("trace '" + name +
                                    "': cannot open trace file");
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        content = buf.str();
    }
    std::vector<TraceItem> items;
    switch (format) {
      case TraceFileFormat::DramSim2:
        items = parseDramSim2Trace(content, name);
        break;
      case TraceFileFormat::ChampSim:
        items = parseChampSimTrace(content, name);
        break;
      case TraceFileFormat::Gem5:
        items = parseGem5Trace(content, name);
        break;
    }
    return std::make_shared<const std::vector<TraceItem>>(
        std::move(items));
}

} // namespace camo::trace

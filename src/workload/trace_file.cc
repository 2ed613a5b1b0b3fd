#include "workload/trace_file.hh"

#include <cstring>

#include "base/logging.hh"

namespace loopsim
{

namespace
{

constexpr char traceMagic[4] = {'L', 'S', 'T', 'R'};
constexpr std::uint32_t traceVersion = 1;

/** Fixed-width on-disk record (packed manually, little-endian host). */
struct TraceRecord
{
    std::uint64_t seq;
    std::uint64_t pc;
    std::uint64_t effAddr;
    std::uint64_t target;
    std::uint16_t src0;
    std::uint16_t src1;
    std::uint16_t dest;
    std::uint8_t opClass;
    std::uint8_t flags; // bit0 taken, bit1 forceMispredict, bit2 tid
};

static_assert(sizeof(TraceRecord) == 40, "trace record layout drifted");

TraceRecord
pack(const MicroOp &op)
{
    TraceRecord r{};
    r.seq = op.seq;
    r.pc = op.pc;
    r.effAddr = op.effAddr;
    r.target = op.target;
    r.src0 = op.src[0];
    r.src1 = op.src[1];
    r.dest = op.dest;
    r.opClass = static_cast<std::uint8_t>(op.opClass);
    r.flags = (op.taken ? 1u : 0u) | (op.forceMispredict ? 2u : 0u) |
              ((op.tid & 1u) << 2);
    return r;
}

MicroOp
unpack(const TraceRecord &r)
{
    MicroOp op;
    op.seq = r.seq;
    op.pc = r.pc;
    op.effAddr = r.effAddr;
    op.target = r.target;
    op.src[0] = r.src0;
    op.src[1] = r.src1;
    op.dest = r.dest;
    op.opClass = static_cast<OpClass>(r.opClass);
    op.taken = (r.flags & 1u) != 0;
    op.forceMispredict = (r.flags & 2u) != 0;
    op.tid = (r.flags >> 2) & 1u;
    return op;
}

} // anonymous namespace

TraceWriter::TraceWriter(const std::string &file_path)
    : file(std::fopen(file_path.c_str(), "wb")), path(file_path)
{
    fatal_if(!file, "cannot open trace file for writing: ", path);
    std::uint64_t zero = 0;
    std::fwrite(traceMagic, 1, 4, file);
    std::fwrite(&traceVersion, sizeof traceVersion, 1, file);
    std::fwrite(&zero, sizeof zero, 1, file); // count, patched in finish()
}

TraceWriter::~TraceWriter()
{
    if (!finished)
        finish();
}

void
TraceWriter::append(const MicroOp &op)
{
    panic_if(finished, "append after finish()");
    TraceRecord r = pack(op);
    std::size_t n = std::fwrite(&r, sizeof r, 1, file);
    fatal_if(n != 1, "short write to trace file: ", path);
    ++count;
}

void
TraceWriter::finish()
{
    if (finished)
        return;
    finished = true;
    std::fseek(file, 8, SEEK_SET);
    std::fwrite(&count, sizeof count, 1, file);
    std::fclose(file);
    file = nullptr;
}

TraceReader::TraceReader(const std::string &file_path)
    : file(std::fopen(file_path.c_str(), "rb")), path(file_path)
{
    fatal_if(!file, "cannot open trace file: ", path);
    char magic[4];
    std::uint32_t version = 0;
    fatal_if(std::fread(magic, 1, 4, file) != 4 ||
                 std::memcmp(magic, traceMagic, 4) != 0,
             "bad trace magic in ", path);
    fatal_if(std::fread(&version, sizeof version, 1, file) != 1 ||
                 version != traceVersion,
             "unsupported trace version in ", path);
    fatal_if(std::fread(&total, sizeof total, 1, file) != 1,
             "truncated trace header in ", path);
}

TraceReader::~TraceReader()
{
    if (file)
        std::fclose(file);
}

bool
TraceReader::next(MicroOp &op)
{
    if (consumed >= total)
        return false;
    TraceRecord r;
    fatal_if(std::fread(&r, sizeof r, 1, file) != 1,
             "truncated trace body in ", path);
    // A record the simulator cannot run is the file's fault, not an
    // internal error further down the pipeline.
    const auto bad_reg = [](std::uint16_t reg) {
        return reg >= RegLayout::numArchRegs && reg != invalidArchReg;
    };
    fatal_if(r.opClass >= static_cast<unsigned>(OpClass::NumOpClasses),
             path, ": record ", consumed, ": unknown op class ",
             unsigned(r.opClass));
    fatal_if(bad_reg(r.src0) || bad_reg(r.src1) || bad_reg(r.dest), path,
             ": record ", consumed, ": register out of range (src ", r.src0,
             ", ", r.src1, ", dest ", r.dest, ")");
    fatal_if(r.flags > 7, path, ": record ", consumed,
             ": unknown flag bits ", unsigned(r.flags));
    fatal_if(r.opClass == static_cast<unsigned>(OpClass::Store) &&
                 r.dest != invalidArchReg,
             path, ": record ", consumed, ": a store writes no register");
    op = unpack(r);
    ++consumed;
    return true;
}

void
TraceReader::reset()
{
    std::fseek(file, 16, SEEK_SET);
    consumed = 0;
}

} // namespace loopsim

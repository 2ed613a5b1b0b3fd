/**
 * @file
 * On-disk record format for the result store.
 *
 * One record holds one RunResult. Layout (all integers little-endian):
 *
 *   offset  size  field
 *   0       4     magic "LSR1"
 *   4       4     schema version (kSchemaVersion)
 *   8       8     fingerprint hi
 *   16      8     fingerprint lo
 *   24      4     payload size in bytes
 *   28      4     CRC-32 (ISO-HDLC) of the payload bytes
 *   32      ...   payload
 *
 * The payload is the RunResult serialized with length-prefixed strings
 * and bit-pattern doubles — everything the figure assemblers consume
 * (labels, cycles/retired/ipc, failure marker + kind + error, operand
 * source vectors, the gap CDF, exported scalars). Deliberately excluded:
 * loopEvents (trace collection forces real simulation, see
 * result_store.hh) and tickProfile (host wall clock; replaying it
 * would fabricate telemetry).
 *
 * Decoding is strictly bounds-checked and verifies magic, schema,
 * fingerprint and CRC; any mismatch or truncation makes the record
 * unreadable, which the store reports as a miss — a damaged store can
 * cost re-simulation, never a wrong figure.
 */

#ifndef LOOPSIM_STORE_RECORD_HH
#define LOOPSIM_STORE_RECORD_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "store/fingerprint.hh"

namespace loopsim
{

struct RunResult;

namespace store
{

constexpr std::uint32_t kRecordMagic = 0x3152534cu; // "LSR1"
constexpr std::size_t kRecordHeaderBytes = 32;

/**
 * CRC-32 (ISO-HDLC, the zlib polynomial: reflected 0xEDB88320, init
 * and xorout 0xFFFFFFFF) of @p n bytes at @p data. On an x86-64 CPU
 * with PCLMULQDQ, buffers of 64 bytes or more fold their 16-byte
 * blocks by carry-less multiply and finish the tail by the tables;
 * otherwise slicing-by-8 tables take eight bytes per step. Both give
 * the same result bit for bit. (SSE4.2's crc32 instruction computes
 * CRC-32C, another polynomial, and is not used.)
 */
std::uint32_t crc32(const void *data, std::size_t n);

/** crc32() by the slicing-by-8 tables alone: what CPUs without
 *  PCLMULQDQ run, and the reference the fold is tested against. */
std::uint32_t crc32Tables(const void *data, std::size_t n);

/** Whether crc32() folds by carry-less multiply on this CPU. */
bool crc32Folds();

/** Serialize @p result into a complete record (header + payload). */
std::string encodeRecord(const Fingerprint &fp, const RunResult &result);

/**
 * Decode a complete record. Returns true and fills @p result only if
 * the magic, schema version, fingerprint, size and CRC all check out
 * and the payload parses without running off the end.
 */
bool decodeRecord(std::string_view bytes, const Fingerprint &expect,
                  RunResult &result);

/**
 * Header-only peek used by the CLI: extracts the stored fingerprint
 * and schema without validating the payload. Returns false when the
 * buffer is shorter than a header or the magic is wrong.
 */
bool peekRecord(std::string_view bytes, Fingerprint &fp,
                std::uint32_t &schema);

/**
 * Read the whole file at @p path into @p out: one open, fstat and
 * read. Returns false on any error. Shared by the store's record
 * lookups and the journal's replay.
 */
bool readFile(const std::string &path, std::string &out);

} // namespace store
} // namespace loopsim

#endif // LOOPSIM_STORE_RECORD_HH

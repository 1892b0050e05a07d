#pragma once

/// \file
/// Versioned binary record format shared by the C_aqp snapshot and
/// journal files. Every record is independently framed and CRC32-guarded
/// so a reader can always tell "valid record", "clean end of file", and
/// "torn tail" apart (DESIGN.md §7).
///
/// Wire layout (little-endian):
///
///   [u32 magic "1QRE"] [u8 type] [u32 payload_len] [payload bytes]
///   [u32 crc32 over type + payload_len + payload]
///
/// Payloads are strings: serialized atomic-query-part lines for C_aqp
/// records (core/serialize.h format). The magic doubles as the format
/// version — a layout change bumps the last byte ("2QRE") and old readers
/// stop at the first new-format record instead of misparsing it.

#include <cstdint>
#include <string>
#include <string_view>

namespace erq {

/// Magic prefix of every framed record ("ERQ1" read as a little-endian
/// u32 — the bytes on disk spell E,R,Q,1).
constexpr uint32_t kRecordMagic = 0x31515245u;

/// Discriminator of a persisted record.
enum class RecordType : uint8_t {
  /// First record of every file; payload names the file kind and format
  /// ("erq-journal-v1" / "erq-snapshot-v1").
  kFileHeader = 1,
  /// An atomic query part entered C_aqp; payload = serialized part line.
  kCaqpInsert = 2,
  /// A stored part left C_aqp (eviction, displacement by a more general
  /// part, or invalidation); payload = serialized part line.
  kCaqpRemove = 3,
  /// C_aqp was cleared wholesale; empty payload.
  kCaqpClear = 4,
  /// Legacy, no longer written: older builds journaled the MV baseline
  /// cache (payload = fingerprint). Still parsed, so files holding them
  /// recover in full, and skipped on replay.
  kMvStore = 5,
  /// Legacy MV-baseline eviction; parsed and skipped.
  kMvRemove = 6,
  /// Legacy MV-baseline clear (empty payload); parsed and skipped.
  kMvClear = 7,
  /// Last record of a snapshot; payload = decimal count of body records,
  /// proving the snapshot was written to completion.
  kSnapshotFooter = 8,
};

/// True for type bytes this build knows how to replay.
bool IsKnownRecordType(uint8_t type);

/// One parsed record.
struct Record {
  /// Discriminator (always a known type after a successful parse).
  RecordType type = RecordType::kFileHeader;
  /// Raw payload bytes (meaning depends on `type`).
  std::string payload;
};

/// Appends the framed encoding of (`type`, `payload`) to `out`.
void AppendRecord(RecordType type, std::string_view payload,
                  std::string* out);

/// Outcome of parsing one record from a byte buffer.
enum class RecordParse {
  /// A valid record was parsed; `*offset` advanced past it.
  kOk,
  /// `*offset` is exactly the end of the buffer: clean EOF.
  kEof,
  /// The bytes at `*offset` are not a complete valid record (short
  /// header, bad magic, length past EOF, CRC mismatch, or an unknown
  /// type byte): the torn tail starts at `*offset`.
  kTorn,
};

/// Parses the record starting at `*offset` in `data`. On kOk fills
/// `*out` and advances `*offset`; on kEof/kTorn leaves both untouched.
RecordParse ParseRecord(std::string_view data, size_t* offset, Record* out);

}  // namespace erq

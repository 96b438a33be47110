// Versioned on-disk transaction-record trace log (record once, check many).
//
// Decouples record production from checking: a TraceWriter serializes the
// engine-visible record stream record by record, in ingest order (the same
// bytes for any engine jobs), and a TraceStreamSource replays it
// through the same checker configuration, one frame at a time. Verdicts
// depend only on the recorded observation stream, so a replayed run reports
// byte-identical results (timing excluded) to the live run that produced the
// log.
//
// Two encodings share one logical schema (DESIGN.md §16):
//   - binary (default): explicit little-endian integers, magic + schema
//     version + CRC-protected meta block (design, level, clock period,
//     observable dictionary) + CRC-framed record segments + a trailer frame
//     carrying the total record count (truncation detection);
//   - JSONL (paths ending in .jsonl, and auto-detected on read by a leading
//     '{'): a meta object line followed by one record object per line, for
//     debugging and foreign producers. No CRC/trailer; the binary encoding
//     is the durable one.
//
// The observable dictionary is the producing model's snapshot key table,
// verbatim and in order: witness rings serialize observables in key-table
// order, so preserving it is what makes replayed witness bytes identical.
#ifndef REPRO_SUPPORT_TRACELOG_H_
#define REPRO_SUPPORT_TRACELOG_H_

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tlm/record_source.h"
#include "tlm/transaction.h"

namespace repro::support::tracelog {

// The one schema this revision writes; readers reject anything newer and
// accept anything older (none exist yet). Bump only with a DESIGN.md §16
// compatibility note.
inline constexpr uint32_t kSchemaVersion = 1;
inline constexpr char kMagic[8] = {'R', 'T', 'A', 'B', 'V', 'L', 'O', 'G'};

enum class Format { kBinary, kJsonl };

// .jsonl paths select the debug encoding; everything else is binary.
Format format_for_path(const std::string& path);

// Every rejection reason a reader can produce, each with a distinct kind so
// CLIs and tests can tell truncation from corruption from version skew.
struct TraceError {
  enum class Kind {
    kIo,                  // open/read/write failed
    kBadMagic,            // not a trace log (or JSONL first line not meta)
    kUnsupportedVersion,  // schema_version newer than this reader
    kTruncated,           // file ends mid-frame or without the trailer
    kCrcMismatch,         // frame or meta checksum failed
    kCorrupt,             // structurally invalid (bad tag, length, value)
    kMetaMismatch,        // stream identity does not match the run config
  };
  Kind kind = Kind::kIo;
  std::string message;

  std::string to_string() const;
};

const char* to_string(TraceError::Kind kind);

// IEEE CRC-32 (polynomial 0xEDB88320), the framing checksum.
uint32_t crc32(const uint8_t* data, size_t size);

// Serializes the record stream as it is ingested. The observable dictionary
// is adopted from the first record carrying a snapshot, so the header is
// written at the first frame flush (or at finish() for an empty stream).
// Errors (I/O, inconsistent key tables) latch: ok() turns false and every
// later call is a no-op.
class TraceWriter {
 public:
  // `meta.observables` may be left empty to adopt the dictionary from the
  // first record; when non-empty it must match the records' key tables.
  TraceWriter(const std::string& path, tlm::RecordStreamMeta meta,
              size_t frame_records = 256);
  ~TraceWriter();  // finishes implicitly; prefer calling finish() to see ok()

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const tlm::TransactionRecord& record);
  // Serializes [begin, end) as one frame of its own (any partially buffered
  // appends flush first), for producers that keep their own framing.
  void write_span(const tlm::TransactionRecord* begin,
                  const tlm::TransactionRecord* end);
  // Flushes the tail frame and the trailer; returns ok().
  bool finish();

  bool ok() const { return error_ == nullptr; }
  // Empty string while ok().
  std::string error() const { return error_ ? error_->to_string() : ""; }
  uint64_t records_written() const { return records_written_; }

 private:
  void fail(TraceError::Kind kind, const std::string& message);
  bool adopt_dictionary(const tlm::TransactionRecord& record);
  void serialize(const tlm::TransactionRecord& record);
  void flush_frame();
  void write_header();

  std::string path_;
  tlm::RecordStreamMeta meta_;
  Format format_;
  size_t frame_records_;
  std::ofstream out_;
  std::unique_ptr<TraceError> error_;
  bool header_written_ = false;
  bool finished_ = false;
  std::vector<uint8_t> frame_buf_;  // binary: serialized records of the open frame
  std::string jsonl_buf_;           // jsonl: record lines of the open frame
  size_t frame_count_ = 0;
  uint64_t records_written_ = 0;
};

// Streams a log one frame at a time, so a replay holds one frame in memory
// however long the log is. open() reads and validates only the header. Each
// next() reads one 'R' frame into a reused byte buffer, checks its CRC and
// record structure, decodes it into reused records and returns it as one
// span; the call after the last frame checks the trailer and that nothing
// follows it. The first rejection ends the stream and latches in error(),
// so a consumer that sees the empty span must check error() before it
// trusts what it ingested. A JSONL log is decoded whole by the first
// next(), as its one virtual frame.
class TraceStreamSource : public tlm::RecordSource {
 public:
  // Returns the (distinct-kind) rejection reason, or nullopt on success.
  std::optional<TraceError> open(const std::string& path);
  // Same over a log in any stream (either encoding), read from its current
  // position.
  std::optional<TraceError> open(std::unique_ptr<std::istream> in);

  const tlm::RecordStreamMeta& meta() const override { return meta_; }
  tlm::RecordSpan next() override;
  const std::optional<TraceError>& error() const { return error_; }

 private:
  std::optional<TraceError> start(std::unique_ptr<std::istream> in,
                                  std::string path);
  std::optional<TraceError> read_header();
  size_t decode_frame();
  size_t decode_jsonl();
  size_t check_trailer();
  bool read(uint8_t* out, size_t n);
  bool read_into_buffer(size_t n);
  size_t fail(TraceError::Kind kind, const std::string& message);

  std::unique_ptr<std::istream> in_;
  std::string path_;  // for I/O messages; empty for a caller's stream
  Format format_ = Format::kBinary;
  tlm::RecordStreamMeta meta_;
  std::shared_ptr<const tlm::Snapshot::Keys> keys_;
  std::vector<uint8_t> buffer_;  // the current frame's payload and CRC
  // The current span is records_[0, n). Every element keeps its data and
  // snapshot value capacity from earlier frames.
  std::vector<tlm::TransactionRecord> records_;
  uint64_t records_decoded_ = 0;  // checked against the trailer count
  bool done_ = true;              // until open() reads a valid header
  std::optional<TraceError> error_;
};

// Decodes and fully validates a whole log: after a successful open() the
// meta, the records and the original frame sizes are in memory. It drains
// a TraceStreamSource, so it applies the same checks.
class TraceReader {
 public:
  // Returns the (distinct-kind) rejection reason, or nullopt on success.
  std::optional<TraceError> open(const std::string& path);
  // Same over a log already in memory (either encoding).
  std::optional<TraceError> parse(const std::string& bytes);

  const tlm::RecordStreamMeta& meta() const { return meta_; }
  const std::vector<tlm::TransactionRecord>& records() const {
    return records_;
  }
  // Record count of each non-empty 'R' frame, in file order (JSONL: one
  // virtual frame).
  const std::vector<size_t>& frame_sizes() const { return frame_sizes_; }

 private:
  std::optional<TraceError> drain(TraceStreamSource& source);

  tlm::RecordStreamMeta meta_;
  std::vector<tlm::TransactionRecord> records_;
  std::vector<size_t> frame_sizes_;
};

// Parses only the stream identity (binary header / JSONL meta line); cheap
// way for CLIs to pick the run configuration before a full replay.
std::optional<TraceError> read_meta(const std::string& path,
                                    tlm::RecordStreamMeta& out);

// Checks a stream's identity against the configuration a run was built
// with. The dictionary is compared as a set: the binding target is the same,
// only the producing container's iteration order may differ (RTL signal
// bags sort their keys; TLM key tables are declaration-ordered).
std::optional<TraceError> validate_meta(const tlm::RecordStreamMeta& actual,
                                        const tlm::RecordStreamMeta& expected);

// In-memory replay of a whole decoded log: hands out the recorded records
// frame by frame, mirroring the spans the live engine sealed.
class TraceReplaySource : public tlm::RecordSource {
 public:
  // The reader must have open()ed successfully and is consumed (moved from).
  explicit TraceReplaySource(TraceReader reader);

  const tlm::RecordStreamMeta& meta() const override { return reader_.meta(); }
  tlm::RecordSpan next() override;

 private:
  TraceReader reader_;
  size_t record_pos_ = 0;
  size_t frame_pos_ = 0;
};

// JSONL building blocks, shared by the writer and `tools/tracelog dump`.
void write_jsonl_meta(std::string& out, const tlm::RecordStreamMeta& meta);
void write_jsonl_record(std::string& out, const tlm::TransactionRecord& record,
                        const std::vector<std::string>& dictionary);

}  // namespace repro::support::tracelog

#endif  // REPRO_SUPPORT_TRACELOG_H_

#include "support/tracelog.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "support/json.h"

namespace repro::support::tracelog {

namespace {

// ---- little-endian primitives ----------------------------------------------
// Explicit byte shifts, never memcpy of host integers: the format is defined
// as little-endian regardless of the producing host.

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void put_string(std::vector<uint8_t>& out, const std::string& s) {
  put_u16(out, static_cast<uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// Little-endian 32-bit load from explicit bytes (alignment-free).
uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t load_le64(const uint8_t* p) {
  return static_cast<uint64_t>(load_le32(p)) |
         static_cast<uint64_t>(load_le32(p + 4)) << 32;
}

// Bounds-checked cursor over a block already read (the meta block or one
// frame); every read reports whether the bytes were there.
struct Cursor {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  size_t remaining() const { return size - pos; }
  bool take(size_t n, const uint8_t*& out) {
    if (remaining() < n) return false;
    out = data + pos;
    pos += n;
    return true;
  }
  // `count` u64 words; the bound is checked without overflowing.
  bool words(size_t count, const uint8_t*& out) {
    return remaining() / 8 >= count && take(8 * count, out);
  }
  bool u16(uint16_t& v) {
    const uint8_t* p = nullptr;
    if (!take(2, p)) return false;
    v = static_cast<uint16_t>(p[0] | (p[1] << 8));
    return true;
  }
  bool u32(uint32_t& v) {
    const uint8_t* p = nullptr;
    if (!take(4, p)) return false;
    v = load_le32(p);
    return true;
  }
  bool u64(uint64_t& v) {
    const uint8_t* p = nullptr;
    if (!take(8, p)) return false;
    v = load_le64(p);
    return true;
  }
  bool string(std::string& out) {
    uint16_t len = 0;
    const uint8_t* p = nullptr;
    if (!u16(len) || !take(len, p)) return false;
    out.assign(reinterpret_cast<const char*>(p), len);
    return true;
  }
};

TraceError make_error(TraceError::Kind kind, std::string message) {
  TraceError e;
  e.kind = kind;
  e.message = std::move(message);
  return e;
}

// ---- shared record payload layout ------------------------------------------

constexpr uint8_t kEndianLittle = 1;
constexpr uint8_t kFrameRecords = 'R';
constexpr uint8_t kFrameTrailer = 'E';
constexpr uint8_t kFlagHasObservables = 1;

void serialize_record(std::vector<uint8_t>& out,
                      const tlm::TransactionRecord& record,
                      size_t dictionary_size) {
  put_u64(out, record.start);
  put_u64(out, record.end);
  out.push_back(static_cast<uint8_t>(record.command));
  out.push_back(static_cast<uint8_t>(record.response));
  const bool has_obs = !record.observables.empty();
  out.push_back(has_obs ? kFlagHasObservables : 0);
  put_u64(out, record.address);
  put_u32(out, static_cast<uint32_t>(record.data.size()));
  for (const uint64_t word : record.data) put_u64(out, word);
  if (has_obs) {
    // Positional values, one per dictionary entry: the writer already
    // verified the record's key table IS the dictionary.
    for (size_t i = 0; i < dictionary_size; ++i) {
      put_u64(out, record.observables.at(i));
    }
  }
}

// Overwrites every field of `record`, reusing its data and snapshot value
// buffers: a snapshot is re-created only when its key table is not `keys`.
bool deserialize_record(
    Cursor& cur, const std::shared_ptr<const tlm::Snapshot::Keys>& keys,
    tlm::TransactionRecord& record) {
  // start, end, command, response, flags, address, data word count.
  constexpr size_t kFixedBytes = 8 + 8 + 1 + 1 + 1 + 8 + 4;
  const uint8_t* p = nullptr;
  if (!cur.take(kFixedBytes, p)) return false;
  const uint8_t command = p[16];
  const uint8_t response = p[17];
  const uint8_t flags = p[18];
  if (command > static_cast<uint8_t>(tlm::Command::kWrite) ||
      response > static_cast<uint8_t>(tlm::Response::kGenericError)) {
    return false;
  }
  record.start = load_le64(p);
  record.end = load_le64(p + 8);
  record.command = static_cast<tlm::Command>(command);
  record.response = static_cast<tlm::Response>(response);
  record.address = load_le64(p + 19);
  const uint32_t data_count = load_le32(p + 27);
  if (!cur.words(data_count, p)) return false;
  record.data.resize(data_count);
  for (uint32_t i = 0; i < data_count; ++i) {
    record.data[i] = load_le64(p + 8 * i);
  }
  if ((flags & kFlagHasObservables) != 0) {
    if (!cur.words(keys->size(), p)) return false;
    if (record.observables.key_table() != keys) {
      record.observables = tlm::Snapshot(keys);
    }
    for (size_t i = 0; i < keys->size(); ++i) {
      record.observables.set_at(i, load_le64(p + 8 * i));
    }
  } else if (!record.observables.empty()) {
    record.observables = tlm::Snapshot();
  }
  return true;
}

// The meta block's payload: design, level, clock period, dictionary.
std::optional<TraceError> parse_meta_block(Cursor cur,
                                           tlm::RecordStreamMeta& meta) {
  uint32_t observable_count = 0;
  if (!cur.string(meta.design) || !cur.string(meta.level) ||
      !cur.u64(meta.clock_period_ns) || !cur.u32(observable_count)) {
    return make_error(TraceError::Kind::kCorrupt, "malformed meta block");
  }
  meta.observables.clear();
  for (uint32_t i = 0; i < observable_count; ++i) {
    std::string name;
    if (!cur.string(name)) {
      return make_error(TraceError::Kind::kCorrupt, "malformed meta block");
    }
    meta.observables.push_back(std::move(name));
  }
  if (cur.remaining() != 0) {
    return make_error(TraceError::Kind::kCorrupt,
                      "meta block has trailing bytes");
  }
  return std::nullopt;
}

std::optional<TraceError> parse_jsonl_meta(const std::string& line,
                                           tlm::RecordStreamMeta& meta) {
  std::string error;
  const std::optional<json::Value> doc = json::parse(line, &error);
  if (!doc.has_value() || !doc->is_object()) {
    return make_error(TraceError::Kind::kCorrupt,
                      "jsonl meta line does not parse: " + error);
  }
  const json::Value* version = doc->find("schema_version");
  const json::Value* design = doc->find("design");
  const json::Value* level = doc->find("level");
  const json::Value* period = doc->find("clock_period_ns");
  const json::Value* observables = doc->find("observables");
  if (version == nullptr || !version->is_number()) {
    return make_error(TraceError::Kind::kBadMagic,
                      "jsonl first line is not a trace meta object");
  }
  if (version->number > kSchemaVersion) {
    return make_error(TraceError::Kind::kUnsupportedVersion,
                      "schema version " +
                          std::to_string(static_cast<uint64_t>(version->number)) +
                          " is newer than supported version " +
                          std::to_string(kSchemaVersion));
  }
  if (design == nullptr || !design->is_string() || level == nullptr ||
      !level->is_string() || period == nullptr || !period->is_number() ||
      observables == nullptr || !observables->is_array()) {
    return make_error(TraceError::Kind::kCorrupt, "malformed jsonl meta line");
  }
  meta.design = design->string;
  meta.level = level->string;
  meta.clock_period_ns = static_cast<uint64_t>(period->number);
  meta.observables.clear();
  for (const json::Value& name : observables->array) {
    if (!name.is_string()) {
      return make_error(TraceError::Kind::kCorrupt,
                        "malformed jsonl meta line");
    }
    meta.observables.push_back(name.string);
  }
  return std::nullopt;
}

std::optional<TraceError> parse_jsonl_record(
    const std::string& line,
    const std::shared_ptr<const tlm::Snapshot::Keys>& keys,
    tlm::TransactionRecord& record) {
  std::string error;
  const std::optional<json::Value> doc = json::parse(line, &error);
  if (!doc.has_value() || !doc->is_object()) {
    return make_error(TraceError::Kind::kCorrupt,
                      "jsonl record line does not parse: " + error);
  }
  const json::Value* start = doc->find("start");
  const json::Value* end = doc->find("end");
  const json::Value* command = doc->find("command");
  const json::Value* response = doc->find("response");
  const json::Value* address = doc->find("address");
  const json::Value* data = doc->find("data");
  if (start == nullptr || !start->is_number() || end == nullptr ||
      !end->is_number() || command == nullptr || !command->is_number() ||
      response == nullptr || !response->is_number() || address == nullptr ||
      !address->is_number() || data == nullptr || !data->is_array()) {
    return make_error(TraceError::Kind::kCorrupt,
                      "malformed jsonl record line");
  }
  // u64 fields read the parser's exact unsigned value: the double alone
  // cannot represent data words and observables above 2^53.
  const auto exact = [](const json::Value& v) {
    return v.u64.value_or(static_cast<uint64_t>(v.number));
  };
  record = tlm::TransactionRecord();
  record.start = exact(*start);
  record.end = exact(*end);
  const int cmd = static_cast<int>(command->number);
  const int rsp = static_cast<int>(response->number);
  if (cmd < 0 || cmd > static_cast<int>(tlm::Command::kWrite) || rsp < 0 ||
      rsp > static_cast<int>(tlm::Response::kGenericError)) {
    return make_error(TraceError::Kind::kCorrupt,
                      "jsonl record has an unknown command/response");
  }
  record.command = static_cast<tlm::Command>(cmd);
  record.response = static_cast<tlm::Response>(rsp);
  record.address = exact(*address);
  for (const json::Value& word : data->array) {
    if (!word.is_number()) {
      return make_error(TraceError::Kind::kCorrupt,
                        "malformed jsonl record line");
    }
    record.data.push_back(exact(word));
  }
  if (const json::Value* obs = doc->find("observables")) {
    if (!obs->is_object()) {
      return make_error(TraceError::Kind::kCorrupt,
                        "malformed jsonl record line");
    }
    record.observables = tlm::Snapshot(keys);
    for (const auto& [name, value] : obs->object) {
      const auto it = std::find(keys->begin(), keys->end(), name);
      if (it == keys->end() || !value.is_number()) {
        return make_error(
            TraceError::Kind::kCorrupt,
            "jsonl record observable '" + name + "' not in dictionary");
      }
      record.observables.set_at(static_cast<size_t>(it - keys->begin()),
                                exact(value));
    }
  }
  return std::nullopt;
}

}  // namespace

Format format_for_path(const std::string& path) {
  const std::string suffix = ".jsonl";
  return path.size() >= suffix.size() &&
                 path.compare(path.size() - suffix.size(), suffix.size(),
                              suffix) == 0
             ? Format::kJsonl
             : Format::kBinary;
}

const char* to_string(TraceError::Kind kind) {
  switch (kind) {
    case TraceError::Kind::kIo: return "io error";
    case TraceError::Kind::kBadMagic: return "bad magic";
    case TraceError::Kind::kUnsupportedVersion: return "unsupported version";
    case TraceError::Kind::kTruncated: return "truncated";
    case TraceError::Kind::kCrcMismatch: return "crc mismatch";
    case TraceError::Kind::kCorrupt: return "corrupt";
    case TraceError::Kind::kMetaMismatch: return "meta mismatch";
  }
  return "?";
}

std::string TraceError::to_string() const {
  return std::string(tracelog::to_string(kind)) + ": " + message;
}

namespace {

// Slicing-by-16 tables for the IEEE reflected polynomial: row 0 is the
// classic bytewise table; row k advances a byte through k further zero
// bytes, so sixteen lookups fold one 16-byte block.
struct Crc32Tables {
  uint32_t t[16][256];
};

const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables s{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      s.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 16; ++k) {
        const uint32_t prev = s.t[k - 1][i];
        s.t[k][i] = (prev >> 8) ^ s.t[0][prev & 0xFF];
      }
    }
    return s;
  }();
  return tables;
}

}  // namespace

uint32_t crc32(const uint8_t* data, size_t size) {
  const auto& t = crc32_tables().t;
  uint32_t crc = 0xFFFFFFFFu;
  // Whole 16-byte blocks (loads are alignment-free), then the tail bytewise.
  for (; size >= 16; data += 16, size -= 16) {
    const uint32_t a = crc ^ load_le32(data);
    const uint32_t b = load_le32(data + 4);
    const uint32_t c = load_le32(data + 8);
    const uint32_t d = load_le32(data + 12);
    crc = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^ t[13][(a >> 16) & 0xFF] ^
          t[12][a >> 24] ^ t[11][b & 0xFF] ^ t[10][(b >> 8) & 0xFF] ^
          t[9][(b >> 16) & 0xFF] ^ t[8][b >> 24] ^ t[7][c & 0xFF] ^
          t[6][(c >> 8) & 0xFF] ^ t[5][(c >> 16) & 0xFF] ^ t[4][c >> 24] ^
          t[3][d & 0xFF] ^ t[2][(d >> 8) & 0xFF] ^ t[1][(d >> 16) & 0xFF] ^
          t[0][d >> 24];
  }
  for (; size > 0; --size) {
    crc = t[0][(crc ^ *data++) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---- JSONL encoding --------------------------------------------------------

void write_jsonl_meta(std::string& out, const tlm::RecordStreamMeta& meta) {
  std::ostringstream os;
  os << "{\"schema_version\":" << kSchemaVersion << ",\"design\":";
  json::write_string(os, meta.design);
  os << ",\"level\":";
  json::write_string(os, meta.level);
  os << ",\"clock_period_ns\":" << meta.clock_period_ns << ",\"observables\":[";
  for (size_t i = 0; i < meta.observables.size(); ++i) {
    if (i != 0) os << ',';
    json::write_string(os, meta.observables[i]);
  }
  os << "]}\n";
  out += os.str();
}

void write_jsonl_record(std::string& out, const tlm::TransactionRecord& record,
                        const std::vector<std::string>& dictionary) {
  std::ostringstream os;
  os << "{\"start\":" << record.start << ",\"end\":" << record.end
     << ",\"command\":" << static_cast<int>(record.command)
     << ",\"response\":" << static_cast<int>(record.response)
     << ",\"address\":" << record.address << ",\"data\":[";
  for (size_t i = 0; i < record.data.size(); ++i) {
    if (i != 0) os << ',';
    os << record.data[i];
  }
  os << ']';
  if (!record.observables.empty()) {
    os << ",\"observables\":{";
    for (size_t i = 0; i < dictionary.size(); ++i) {
      if (i != 0) os << ',';
      json::write_string(os, dictionary[i]);
      os << ':' << record.observables.at(i);
    }
    os << '}';
  }
  os << "}\n";
  out += os.str();
}

// ---- TraceWriter -----------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, tlm::RecordStreamMeta meta,
                         size_t frame_records)
    : path_(path),
      meta_(std::move(meta)),
      format_(format_for_path(path)),
      frame_records_(frame_records == 0 ? 1 : frame_records),
      out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    fail(TraceError::Kind::kIo, "cannot open '" + path_ + "' for writing");
  }
}

TraceWriter::~TraceWriter() { finish(); }

void TraceWriter::fail(TraceError::Kind kind, const std::string& message) {
  if (error_ == nullptr) {
    error_ = std::make_unique<TraceError>(make_error(kind, message));
  }
}

bool TraceWriter::adopt_dictionary(const tlm::TransactionRecord& record) {
  if (record.observables.empty()) return true;
  const tlm::Snapshot::Keys& keys = *record.observables.keys();
  if (meta_.observables.empty()) {
    // First snapshot-carrying record defines the dictionary, preserving the
    // model's key-table order (witness byte-identity depends on it).
    meta_.observables = keys;
    return true;
  }
  if (meta_.observables != keys) {
    fail(TraceError::Kind::kCorrupt,
         "record key table does not match the observable dictionary");
    return false;
  }
  return true;
}

void TraceWriter::serialize(const tlm::TransactionRecord& record) {
  if (!adopt_dictionary(record)) return;
  if (format_ == Format::kBinary) {
    serialize_record(frame_buf_, record, meta_.observables.size());
  } else {
    write_jsonl_record(jsonl_buf_, record, meta_.observables);
  }
  ++frame_count_;
  ++records_written_;
}

void TraceWriter::append(const tlm::TransactionRecord& record) {
  if (!ok() || finished_) return;
  serialize(record);
  if (frame_count_ >= frame_records_) flush_frame();
}

void TraceWriter::write_span(const tlm::TransactionRecord* begin,
                             const tlm::TransactionRecord* end) {
  if (!ok() || finished_) return;
  // One frame per span: flush any buffered appends first so the span
  // boundary is preserved in the file's framing.
  flush_frame();
  for (const tlm::TransactionRecord* r = begin; r != end; ++r) serialize(*r);
  flush_frame();
}

void TraceWriter::write_header() {
  if (header_written_) return;
  header_written_ = true;
  if (format_ == Format::kJsonl) {
    std::string line;
    write_jsonl_meta(line, meta_);
    out_.write(line.data(), static_cast<std::streamsize>(line.size()));
    return;
  }
  std::vector<uint8_t> head(kMagic, kMagic + sizeof kMagic);
  put_u32(head, kSchemaVersion);
  head.push_back(kEndianLittle);
  std::vector<uint8_t> meta_block;
  put_string(meta_block, meta_.design);
  put_string(meta_block, meta_.level);
  put_u64(meta_block, meta_.clock_period_ns);
  put_u32(meta_block, static_cast<uint32_t>(meta_.observables.size()));
  for (const std::string& name : meta_.observables) {
    put_string(meta_block, name);
  }
  put_u32(head, static_cast<uint32_t>(meta_block.size()));
  head.insert(head.end(), meta_block.begin(), meta_block.end());
  put_u32(head, crc32(meta_block.data(), meta_block.size()));
  out_.write(reinterpret_cast<const char*>(head.data()),
             static_cast<std::streamsize>(head.size()));
}

void TraceWriter::flush_frame() {
  if (!ok() || frame_count_ == 0) return;
  // The dictionary is final by the first flush: every record of this frame
  // (and the positional value layout) was serialized against it.
  write_header();
  if (format_ == Format::kJsonl) {
    out_.write(jsonl_buf_.data(),
               static_cast<std::streamsize>(jsonl_buf_.size()));
    jsonl_buf_.clear();
  } else {
    std::vector<uint8_t> frame;
    frame.push_back(kFrameRecords);
    put_u32(frame, static_cast<uint32_t>(frame_count_));
    put_u32(frame, static_cast<uint32_t>(frame_buf_.size()));
    out_.write(reinterpret_cast<const char*>(frame.data()),
               static_cast<std::streamsize>(frame.size()));
    out_.write(reinterpret_cast<const char*>(frame_buf_.data()),
               static_cast<std::streamsize>(frame_buf_.size()));
    std::vector<uint8_t> crc;
    put_u32(crc, crc32(frame_buf_.data(), frame_buf_.size()));
    out_.write(reinterpret_cast<const char*>(crc.data()),
               static_cast<std::streamsize>(crc.size()));
    frame_buf_.clear();
  }
  frame_count_ = 0;
  if (!out_) fail(TraceError::Kind::kIo, "write error on '" + path_ + "'");
}

bool TraceWriter::finish() {
  if (finished_) return ok();
  flush_frame();
  if (ok()) {
    write_header();  // empty stream: header + trailer, zero frames
    if (format_ == Format::kBinary) {
      std::vector<uint8_t> trailer;
      trailer.push_back(kFrameTrailer);
      std::vector<uint8_t> count;
      put_u64(count, records_written_);
      trailer.insert(trailer.end(), count.begin(), count.end());
      put_u32(trailer, crc32(count.data(), count.size()));
      out_.write(reinterpret_cast<const char*>(trailer.data()),
                 static_cast<std::streamsize>(trailer.size()));
    }
    out_.flush();
    if (!out_) fail(TraceError::Kind::kIo, "write error on '" + path_ + "'");
  }
  finished_ = true;
  out_.close();
  return ok();
}

// ---- TraceStreamSource -----------------------------------------------------

std::optional<TraceError> TraceStreamSource::open(const std::string& path) {
  return start(std::make_unique<std::ifstream>(path, std::ios::binary), path);
}

std::optional<TraceError> TraceStreamSource::open(
    std::unique_ptr<std::istream> in) {
  return start(std::move(in), "");
}

std::optional<TraceError> TraceStreamSource::start(
    std::unique_ptr<std::istream> in, std::string path) {
  *this = TraceStreamSource();
  in_ = std::move(in);
  path_ = std::move(path);
  std::optional<TraceError> err =
      *in_ ? read_header()
           : make_error(TraceError::Kind::kIo, "cannot open '" + path_ + "'");
  if (err) {
    fail(err->kind, err->message);
  } else {
    keys_ = std::make_shared<const tlm::Snapshot::Keys>(meta_.observables);
    done_ = false;
  }
  return error_;
}

// Reads the stream identity: the JSONL meta line or the binary header.
std::optional<TraceError> TraceStreamSource::read_header() {
  // A '{' after leading whitespace marks the JSONL debug encoding. The sniff
  // never needs to rewind, so pipes work: leading whitespace fails a binary
  // log's magic anyway, and the meta line gets its own leading blanks back.
  std::string lead;
  bool skipped = false;
  for (int c = in_->peek(); c == ' ' || c == '\t' || c == '\n' || c == '\r';
       c = in_->peek()) {
    in_->get();
    skipped = true;
    if (c == '\n') {
      lead.clear();
    } else {
      lead.push_back(static_cast<char>(c));
    }
  }
  if (in_->peek() == '{') {
    format_ = Format::kJsonl;
    std::string line;
    std::getline(*in_, line);
    return parse_jsonl_meta(lead + line, meta_);
  }
  if (skipped) return make_error(TraceError::Kind::kBadMagic, "not a trace log");

  uint8_t head[sizeof kMagic];
  in_->read(reinterpret_cast<char*>(head), sizeof head);
  const auto got = static_cast<size_t>(in_->gcount());
  const auto* magic = reinterpret_cast<const uint8_t*>(kMagic);
  if (got < sizeof head) {
    // A short prefix of the magic is still recognizably ours.
    if (std::equal(head, head + got, magic)) {
      return make_error(TraceError::Kind::kTruncated,
                        "file ends inside the magic");
    }
    return make_error(TraceError::Kind::kBadMagic, "not a trace log");
  }
  if (!std::equal(head, head + sizeof head, magic)) {
    return make_error(TraceError::Kind::kBadMagic, "not a trace log");
  }
  uint8_t fields[5];  // u32 version, u8 endian; then reused for u32 meta_len
  if (!read(fields, 5)) {
    return make_error(TraceError::Kind::kTruncated,
                      "file ends inside the header");
  }
  const uint32_t version = load_le32(fields);
  if (version > kSchemaVersion) {
    return make_error(TraceError::Kind::kUnsupportedVersion,
                      "schema version " + std::to_string(version) +
                          " is newer than supported version " +
                          std::to_string(kSchemaVersion));
  }
  if (fields[4] != kEndianLittle) {
    return make_error(TraceError::Kind::kCorrupt, "unknown endianness tag");
  }
  if (!read(fields, 4) || !read_into_buffer(size_t{load_le32(fields)} + 4)) {
    return make_error(TraceError::Kind::kTruncated,
                      "file ends inside the meta block");
  }
  const uint32_t meta_len = load_le32(fields);
  if (crc32(buffer_.data(), meta_len) != load_le32(buffer_.data() + meta_len)) {
    return make_error(TraceError::Kind::kCrcMismatch,
                      "meta block crc mismatch");
  }
  return parse_meta_block(Cursor{buffer_.data(), meta_len}, meta_);
}

bool TraceStreamSource::read(uint8_t* out, size_t n) {
  in_->read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(n));
  return static_cast<size_t>(in_->gcount()) == n;
}

// Reads `n` bytes into buffer_[0, n). The buffer grows at most a chunk
// ahead of the bytes that arrived, so a corrupt length field cannot
// allocate more than the file holds.
bool TraceStreamSource::read_into_buffer(size_t n) {
  constexpr size_t kChunk = size_t{1} << 20;
  size_t have = 0;
  while (have < n) {
    const size_t upto =
        std::min(n, std::max(buffer_.capacity(), have + kChunk));
    if (buffer_.size() < upto) buffer_.resize(upto);
    if (!read(buffer_.data() + have, upto - have)) return false;
    have = upto;
  }
  return true;
}

size_t TraceStreamSource::fail(TraceError::Kind kind,
                               const std::string& message) {
  // A read that failed below the format is an I/O error, not a short file.
  if (in_->bad()) {
    error_ = make_error(TraceError::Kind::kIo,
                        path_.empty() ? "read error"
                                      : "read error on '" + path_ + "'");
  } else {
    error_ = make_error(kind, message);
  }
  done_ = true;
  return 0;
}

tlm::RecordSpan TraceStreamSource::next() {
  if (done_) return {};
  const size_t n =
      format_ == Format::kJsonl ? decode_jsonl() : decode_frame();
  return {records_.data(), records_.data() + n};
}

// The one binary frame decoder: returns the record count of the next
// non-empty 'R' frame, decoded into records_[0, n), or 0 once the trailer
// checked out or a check failed. Empty frames are skipped, so an empty span
// always means the end of the stream.
size_t TraceStreamSource::decode_frame() {
  for (;;) {
    uint8_t head[9];
    if (!read(head, 1)) {
      return fail(TraceError::Kind::kTruncated,
                  "file ends without the trailer frame");
    }
    if (head[0] == kFrameTrailer) return check_trailer();
    if (head[0] != kFrameRecords) {
      return fail(TraceError::Kind::kCorrupt, "unknown frame tag");
    }
    if (!read(head + 1, 8) ||
        !read_into_buffer(size_t{load_le32(head + 5)} + 4)) {
      return fail(TraceError::Kind::kTruncated,
                  "file ends inside a record frame");
    }
    const uint32_t count = load_le32(head + 1);
    const uint32_t len = load_le32(head + 5);
    if (crc32(buffer_.data(), len) != load_le32(buffer_.data() + len)) {
      return fail(TraceError::Kind::kCrcMismatch, "record frame crc mismatch");
    }
    Cursor frame{buffer_.data(), len};
    for (uint32_t i = 0; i < count; ++i) {
      if (i == records_.size()) records_.emplace_back();
      if (!deserialize_record(frame, keys_, records_[i])) {
        return fail(TraceError::Kind::kCorrupt, "malformed record in frame");
      }
    }
    if (frame.remaining() != 0) {
      return fail(TraceError::Kind::kCorrupt,
                  "record frame has trailing bytes");
    }
    records_decoded_ += count;
    if (count != 0) return count;
  }
}

size_t TraceStreamSource::check_trailer() {
  uint8_t trailer[12];
  if (!read(trailer, sizeof trailer)) {
    return fail(TraceError::Kind::kTruncated,
                "file ends inside the trailer frame");
  }
  if (crc32(trailer, 8) != load_le32(trailer + 8)) {
    return fail(TraceError::Kind::kCrcMismatch, "trailer frame crc mismatch");
  }
  if (load_le64(trailer) != records_decoded_) {
    return fail(TraceError::Kind::kCorrupt,
                "trailer record count does not match the frames");
  }
  if (in_->peek() != std::char_traits<char>::eof()) {
    return fail(TraceError::Kind::kCorrupt,
                "trailing bytes after the trailer frame");
  }
  done_ = true;
  return 0;
}

// JSONL's one virtual frame: every record line after the meta line.
size_t TraceStreamSource::decode_jsonl() {
  size_t n = 0;
  std::string line;
  while (std::getline(*in_, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (n == records_.size()) records_.emplace_back();
    if (std::optional<TraceError> err =
            parse_jsonl_record(line, keys_, records_[n])) {
      return fail(err->kind, err->message);
    }
    ++n;
  }
  if (in_->bad()) return fail(TraceError::Kind::kIo, "read error");
  done_ = true;
  return n;
}

// ---- TraceReader -----------------------------------------------------------

std::optional<TraceError> TraceReader::open(const std::string& path) {
  TraceStreamSource source;
  *this = TraceReader();
  if (std::optional<TraceError> err = source.open(path)) return err;
  return drain(source);
}

std::optional<TraceError> TraceReader::parse(const std::string& bytes) {
  TraceStreamSource source;
  *this = TraceReader();
  if (std::optional<TraceError> err =
          source.open(std::make_unique<std::istringstream>(bytes))) {
    return err;
  }
  return drain(source);
}

std::optional<TraceError> TraceReader::drain(TraceStreamSource& source) {
  meta_ = source.meta();
  for (tlm::RecordSpan span = source.next(); !span.empty();
       span = source.next()) {
    records_.insert(records_.end(), span.begin, span.end);
    frame_sizes_.push_back(span.size());
  }
  return source.error();
}

std::optional<TraceError> read_meta(const std::string& path,
                                    tlm::RecordStreamMeta& out) {
  TraceStreamSource source;
  if (std::optional<TraceError> err = source.open(path)) return err;
  out = source.meta();
  return std::nullopt;
}

std::optional<TraceError> validate_meta(const tlm::RecordStreamMeta& actual,
                                        const tlm::RecordStreamMeta& expected) {
  if (!expected.design.empty() && actual.design != expected.design) {
    return make_error(TraceError::Kind::kMetaMismatch,
                      "trace records design '" + actual.design +
                          "', run expects '" + expected.design + "'");
  }
  if (!expected.level.empty() && actual.level != expected.level) {
    return make_error(TraceError::Kind::kMetaMismatch,
                      "trace records level '" + actual.level +
                          "', run expects '" + expected.level + "'");
  }
  if (expected.clock_period_ns != 0 &&
      actual.clock_period_ns != expected.clock_period_ns) {
    return make_error(
        TraceError::Kind::kMetaMismatch,
        "trace clock period " + std::to_string(actual.clock_period_ns) +
            " ns, run expects " + std::to_string(expected.clock_period_ns) +
            " ns");
  }
  if (!expected.observables.empty()) {
    // Set comparison: the same binding target may be enumerated in a
    // different order by different producers (sorted signal bags vs
    // declaration-ordered key tables).
    std::vector<std::string> a = actual.observables;
    std::vector<std::string> b = expected.observables;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) {
      return make_error(
          TraceError::Kind::kMetaMismatch,
          "observable dictionary does not match the run's observables");
    }
  }
  return std::nullopt;
}

// ---- TraceReplaySource -----------------------------------------------------

TraceReplaySource::TraceReplaySource(TraceReader reader)
    : reader_(std::move(reader)) {}

tlm::RecordSpan TraceReplaySource::next() {
  const std::vector<tlm::TransactionRecord>& records = reader_.records();
  if (record_pos_ >= records.size()) return {};
  const size_t count = frame_pos_ < reader_.frame_sizes().size()
                           ? reader_.frame_sizes()[frame_pos_]
                           : records.size() - record_pos_;
  ++frame_pos_;
  const tlm::TransactionRecord* begin = records.data() + record_pos_;
  record_pos_ += count;
  return {begin, begin + count};
}

}  // namespace repro::support::tracelog

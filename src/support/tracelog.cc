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

// Bounds-checked cursor over a decoded file; every read reports whether the
// bytes were there, so truncation is detected exactly where it bites.
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
  bool u8(uint8_t& v) {
    const uint8_t* p = nullptr;
    if (!take(1, p)) return false;
    v = p[0];
    return true;
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
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return true;
  }
  bool u64(uint64_t& v) {
    const uint8_t* p = nullptr;
    if (!take(8, p)) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
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

bool deserialize_record(
    Cursor& cur, const std::shared_ptr<const tlm::Snapshot::Keys>& keys,
    tlm::TransactionRecord& record) {
  uint8_t command = 0;
  uint8_t response = 0;
  uint8_t flags = 0;
  uint32_t data_count = 0;
  if (!cur.u64(record.start) || !cur.u64(record.end) || !cur.u8(command) ||
      !cur.u8(response) || !cur.u8(flags) || !cur.u64(record.address) ||
      !cur.u32(data_count)) {
    return false;
  }
  if (command > static_cast<uint8_t>(tlm::Command::kWrite) ||
      response > static_cast<uint8_t>(tlm::Response::kGenericError)) {
    return false;
  }
  record.command = static_cast<tlm::Command>(command);
  record.response = static_cast<tlm::Response>(response);
  if (cur.remaining() / 8 < data_count) return false;  // overflow-safe bound
  record.data.resize(data_count);
  for (uint32_t i = 0; i < data_count; ++i) {
    if (!cur.u64(record.data[i])) return false;
  }
  if ((flags & kFlagHasObservables) != 0) {
    record.observables = tlm::Snapshot(keys);
    for (size_t i = 0; i < keys->size(); ++i) {
      uint64_t value = 0;
      if (!cur.u64(value)) return false;
      record.observables.set_at(i, value);
    }
  } else {
    record.observables = tlm::Snapshot();
  }
  return true;
}

bool starts_with_jsonl(const std::string& bytes) {
  for (const char c : bytes) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
    return c == '{';
  }
  return false;
}

std::optional<TraceError> slurp(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(TraceError::Kind::kIo, "cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return make_error(TraceError::Kind::kIo, "read error on '" + path + "'");
  }
  bytes = std::move(buf).str();
  return std::nullopt;
}

// Binary header: magic, schema version, endian tag, CRC-protected meta
// block. On success `cur` stands at the first frame tag.
std::optional<TraceError> parse_binary_header(Cursor& cur,
                                              tlm::RecordStreamMeta& meta) {
  const uint8_t* magic = nullptr;
  if (!cur.take(sizeof kMagic, magic)) {
    // A short prefix of the magic is still recognizably ours.
    if (std::equal(cur.data, cur.data + cur.size,
                   reinterpret_cast<const uint8_t*>(kMagic))) {
      return make_error(TraceError::Kind::kTruncated,
                        "file ends inside the magic");
    }
    return make_error(TraceError::Kind::kBadMagic, "not a trace log");
  }
  if (!std::equal(magic, magic + sizeof kMagic,
                  reinterpret_cast<const uint8_t*>(kMagic))) {
    return make_error(TraceError::Kind::kBadMagic, "not a trace log");
  }
  uint32_t version = 0;
  uint8_t endian = 0;
  if (!cur.u32(version) || !cur.u8(endian)) {
    return make_error(TraceError::Kind::kTruncated,
                      "file ends inside the header");
  }
  if (version > kSchemaVersion) {
    return make_error(TraceError::Kind::kUnsupportedVersion,
                      "schema version " + std::to_string(version) +
                          " is newer than supported version " +
                          std::to_string(kSchemaVersion));
  }
  if (endian != kEndianLittle) {
    return make_error(TraceError::Kind::kCorrupt, "unknown endianness tag");
  }
  uint32_t meta_len = 0;
  const uint8_t* payload = nullptr;
  uint32_t stored_crc = 0;
  if (!cur.u32(meta_len) || !cur.take(meta_len, payload) ||
      !cur.u32(stored_crc)) {
    return make_error(TraceError::Kind::kTruncated,
                      "file ends inside the meta block");
  }
  if (crc32(payload, meta_len) != stored_crc) {
    return make_error(TraceError::Kind::kCrcMismatch,
                      "meta block crc mismatch");
  }
  Cursor meta_cur{payload, meta_len};
  uint32_t observable_count = 0;
  if (!meta_cur.string(meta.design) || !meta_cur.string(meta.level) ||
      !meta_cur.u64(meta.clock_period_ns) || !meta_cur.u32(observable_count)) {
    return make_error(TraceError::Kind::kCorrupt, "malformed meta block");
  }
  meta.observables.clear();
  for (uint32_t i = 0; i < observable_count; ++i) {
    std::string name;
    if (!meta_cur.string(name)) {
      return make_error(TraceError::Kind::kCorrupt, "malformed meta block");
    }
    meta.observables.push_back(std::move(name));
  }
  if (meta_cur.remaining() != 0) {
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

// Slicing-by-8 tables for the IEEE reflected polynomial: row 0 is the
// classic bytewise table; row k advances a byte through k further zero
// bytes, so eight lookups fold one 8-byte word.
struct Crc32Tables {
  uint32_t t[8][256];
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
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = s.t[k - 1][i];
        s.t[k][i] = (prev >> 8) ^ s.t[0][prev & 0xFF];
      }
    }
    return s;
  }();
  return tables;
}

// Little-endian 32-bit load from explicit bytes (alignment-free).
uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t crc32(const uint8_t* data, size_t size) {
  const auto& t = crc32_tables().t;
  uint32_t crc = 0xFFFFFFFFu;
  // Unaligned head bytewise, then whole 8-byte words, then the tail.
  while (size > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0) {
    crc = t[0][(crc ^ *data++) & 0xFF] ^ (crc >> 8);
    --size;
  }
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ load_le32(data);
    const uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
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
  // One frame per sealed arena segment: flush any buffered appends first so
  // the segment boundary is preserved in the file's framing.
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

// ---- TraceReader -----------------------------------------------------------

std::optional<TraceError> TraceReader::open(const std::string& path) {
  meta_ = {};
  records_.clear();
  frame_sizes_.clear();
  std::string bytes;
  if (std::optional<TraceError> e = slurp(path, bytes)) return e;

  if (starts_with_jsonl(bytes)) {
    // JSONL debug encoding: meta line, then one record object per line.
    size_t pos = 0;
    bool meta_seen = false;
    auto keys = std::make_shared<tlm::Snapshot::Keys>();
    while (pos < bytes.size()) {
      size_t nl = bytes.find('\n', pos);
      if (nl == std::string::npos) nl = bytes.size();
      const std::string line = bytes.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      if (!meta_seen) {
        if (std::optional<TraceError> e = parse_jsonl_meta(line, meta_)) {
          return e;
        }
        *keys = meta_.observables;
        meta_seen = true;
        continue;
      }
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
      tlm::TransactionRecord record;
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
          const auto it =
              std::find(keys->begin(), keys->end(), name);
          if (it == keys->end() || !value.is_number()) {
            return make_error(
                TraceError::Kind::kCorrupt,
                "jsonl record observable '" + name + "' not in dictionary");
          }
          record.observables.set_at(static_cast<size_t>(it - keys->begin()),
                                    exact(value));
        }
      }
      records_.push_back(std::move(record));
    }
    if (!meta_seen) {
      return make_error(TraceError::Kind::kBadMagic, "not a trace log");
    }
    if (!records_.empty()) frame_sizes_.push_back(records_.size());
    return std::nullopt;
  }

  Cursor cur{reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()};
  if (std::optional<TraceError> e = parse_binary_header(cur, meta_)) return e;
  auto keys = std::make_shared<tlm::Snapshot::Keys>(meta_.observables);

  bool trailer_seen = false;
  while (!trailer_seen) {
    uint8_t tag = 0;
    if (!cur.u8(tag)) {
      return make_error(TraceError::Kind::kTruncated,
                        "file ends without the trailer frame");
    }
    if (tag == kFrameRecords) {
      uint32_t count = 0;
      uint32_t len = 0;
      const uint8_t* payload = nullptr;
      uint32_t stored_crc = 0;
      if (!cur.u32(count) || !cur.u32(len) || !cur.take(len, payload) ||
          !cur.u32(stored_crc)) {
        return make_error(TraceError::Kind::kTruncated,
                          "file ends inside a record frame");
      }
      if (crc32(payload, len) != stored_crc) {
        return make_error(TraceError::Kind::kCrcMismatch,
                          "record frame crc mismatch");
      }
      Cursor frame{payload, len};
      for (uint32_t i = 0; i < count; ++i) {
        tlm::TransactionRecord record;
        if (!deserialize_record(frame, keys, record)) {
          return make_error(TraceError::Kind::kCorrupt,
                            "malformed record in frame");
        }
        records_.push_back(std::move(record));
      }
      if (frame.remaining() != 0) {
        return make_error(TraceError::Kind::kCorrupt,
                          "record frame has trailing bytes");
      }
      frame_sizes_.push_back(count);
    } else if (tag == kFrameTrailer) {
      uint64_t total = 0;
      const uint8_t* count_bytes = cur.data + cur.pos;
      uint32_t stored_crc = 0;
      if (!cur.u64(total) || !cur.u32(stored_crc)) {
        return make_error(TraceError::Kind::kTruncated,
                          "file ends inside the trailer frame");
      }
      if (crc32(count_bytes, 8) != stored_crc) {
        return make_error(TraceError::Kind::kCrcMismatch,
                          "trailer frame crc mismatch");
      }
      if (total != records_.size()) {
        return make_error(TraceError::Kind::kCorrupt,
                          "trailer record count does not match the frames");
      }
      trailer_seen = true;
    } else {
      return make_error(TraceError::Kind::kCorrupt, "unknown frame tag");
    }
  }
  if (cur.remaining() != 0) {
    return make_error(TraceError::Kind::kCorrupt,
                      "trailing bytes after the trailer frame");
  }
  return std::nullopt;
}

std::optional<TraceError> read_meta(const std::string& path,
                                    tlm::RecordStreamMeta& out) {
  std::string bytes;
  if (std::optional<TraceError> e = slurp(path, bytes)) return e;
  if (starts_with_jsonl(bytes)) {
    size_t nl = bytes.find('\n');
    if (nl == std::string::npos) nl = bytes.size();
    return parse_jsonl_meta(bytes.substr(0, nl), out);
  }
  Cursor cur{reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()};
  return parse_binary_header(cur, out);
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

// bench_tracelog: throughput of the versioned trace-log container and the
// offline replay path it feeds.
//
// Part 1 measures the container itself on a synthetic record stream: write
// and read throughput (records/s and MB/s) for both encodings, the CRC-framed
// binary format and the JSONL debug format.
//
// Part 2 compares end-to-end replay against live ingest on the DES56 TLM-AT
// configuration with the full checker suite: a live run records its stream,
// then the same log is replayed through the same checkers. Replay skips the
// simulation kernel, so it must not be slower than live ingest — the run
// exits non-zero if replay throughput drops below 0.9x the live rate, which
// makes this binary usable as a CI regression gate. Replay streams the log
// frame by frame, so its time includes decoding and checking the log.
//
// With REPRO_BENCH_JSON set, every row is also written to
// BENCH_tracelog.json (schema_version 1).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_table_common.h"
#include "models/testbench.h"
#include "support/tracelog.h"
#include "tlm/record_source.h"
#include "tlm/transaction.h"

using namespace repro;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double best_of(int repeats, const std::function<double()>& run) {
  double best = 1e100;
  for (int i = 0; i < repeats; ++i) best = std::min(best, run());
  return best;
}

tlm::RecordStreamMeta bench_meta() {
  tlm::RecordStreamMeta meta;
  meta.design = "DES56";
  meta.level = "TLM-AT";
  meta.clock_period_ns = 10;
  meta.observables = {"ds", "rdy", "out"};
  return meta;
}

std::vector<tlm::TransactionRecord> synth_records(size_t count) {
  auto keys = std::make_shared<tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"ds", "rdy", "out"});
  std::vector<tlm::TransactionRecord> records;
  records.reserve(count);
  sim::Time t = 10;
  for (size_t i = 0; i < count; ++i) {
    tlm::TransactionRecord r;
    r.start = t;
    r.end = t + 40;
    r.address = i % 7;
    r.data = {0xC0FFEE00 + i, i * i};
    r.observables = tlm::Snapshot(keys);
    r.observables.set("ds", i % 3 == 0 ? 1 : 0);
    r.observables.set("rdy", i % 3 == 0 ? 0 : 1);
    r.observables.set("out", i % 5 == 0 ? 0 : i);
    records.push_back(std::move(r));
    t += 40;
  }
  return records;
}

std::string json_row(const char* part, const char* format, size_t records,
                     uint64_t bytes, double seconds, double records_per_s,
                     double mb_per_s) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"part\": \"%s\", \"format\": \"%s\", \"records\": %zu, "
                "\"bytes\": %llu, \"seconds\": %.6f, "
                "\"records_per_s\": %.0f, \"mb_per_s\": %.2f}",
                part, format, records,
                static_cast<unsigned long long>(bytes), seconds, records_per_s,
                mb_per_s);
  return buf;
}

// Part 1: raw container throughput on one synthetic stream, both encodings.
int run_container_bench(bench::BenchJson& json, const std::string& tmp) {
  const size_t kRecords = bench::scaled(200000);
  const auto records = synth_records(kRecords);
  const tlm::RecordStreamMeta meta = bench_meta();

  std::printf("=== Part 1: container throughput (%zu records) ===\n",
              kRecords);
  std::printf("%-8s %8s %12s %12s %14s %10s\n", "format", "op", "bytes",
              "seconds", "records/s", "MB/s");
  for (const char* ext : {".rtabv", ".jsonl"}) {
    const std::string path = tmp + "/bench_tracelog" + ext;
    const char* format = ext[1] == 'r' ? "binary" : "jsonl";

    const double write_s = best_of(3, [&] {
      const double start = now_s();
      support::tracelog::TraceWriter writer(path, meta);
      for (const tlm::TransactionRecord& r : records) writer.append(r);
      writer.finish();
      if (!writer.ok()) {
        std::fprintf(stderr, "write failed: %s\n", writer.error().c_str());
        std::exit(1);
      }
      return now_s() - start;
    });
    const uint64_t bytes = std::filesystem::file_size(path);
    const double mb = double(bytes) / 1e6;
    std::printf("%-8s %8s %12llu %12.4f %14.0f %10.1f\n", format, "write",
                static_cast<unsigned long long>(bytes), write_s,
                double(kRecords) / write_s, mb / write_s);
    json.add_raw(json_row("container_write", format, kRecords, bytes, write_s,
                          double(kRecords) / write_s, mb / write_s));

    const double read_s = best_of(3, [&] {
      const double start = now_s();
      support::tracelog::TraceReader reader;
      if (auto err = reader.open(path)) {
        std::fprintf(stderr, "read failed: %s\n", err->to_string().c_str());
        std::exit(1);
      }
      if (reader.records().size() != kRecords) {
        std::fprintf(stderr, "short read: %zu records\n",
                     reader.records().size());
        std::exit(1);
      }
      return now_s() - start;
    });
    std::printf("%-8s %8s %12llu %12.4f %14.0f %10.1f\n", format, "read",
                static_cast<unsigned long long>(bytes), read_s,
                double(kRecords) / read_s, mb / read_s);
    json.add_raw(json_row("container_read", format, kRecords, bytes, read_s,
                          double(kRecords) / read_s, mb / read_s));
  }
  return 0;
}

// Part 2: live run (recording) vs offline replay of the recorded log, same
// design, level and checker suite. Returns non-zero when replay throughput
// falls below the 0.9x-of-live gate.
int run_replay_bench(bench::BenchJson& json, const std::string& tmp) {
  const std::string log = tmp + "/bench_tracelog_des56.rtabv";

  models::RunConfig live;
  live.design = models::Design::kDes56;
  live.level = models::Level::kTlmAt;
  live.workload = bench::scaled(2400);
  live.checkers = 9;
  live.ingest.record_path = log;

  models::RunConfig replay = live;
  replay.ingest.record_path.clear();
  replay.ingest.replay_path = log;

  std::printf("\n=== Part 2: live ingest vs offline replay "
              "(DES56 TLM-AT, workload %zu, 9 checkers) ===\n",
              live.workload);
  std::printf("%-8s %12s %14s %14s\n", "mode", "seconds", "records", "records/s");

  const bench::Measurement live_m = bench::measure(live);
  const double live_rate = double(live_m.transactions) / live_m.seconds;
  std::printf("%-8s %12.4f %14llu %14.0f\n", "live", live_m.seconds,
              static_cast<unsigned long long>(live_m.transactions), live_rate);
  json.add("live record", live, live_m);

  const bench::Measurement replay_m = bench::measure(replay);
  if (!replay_m.result.ingest_error.empty()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replay_m.result.ingest_error.c_str());
    return 1;
  }
  const double replay_rate = double(replay_m.transactions) / replay_m.seconds;
  std::printf("%-8s %12.4f %14llu %14.0f\n", "replay", replay_m.seconds,
              static_cast<unsigned long long>(replay_m.transactions),
              replay_rate);
  json.add("replay", replay, replay_m);

  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"part\": \"gate\", \"live_records_per_s\": %.0f, "
                "\"replay_records_per_s\": %.0f, \"ratio\": %.3f}",
                live_rate, replay_rate, replay_rate / live_rate);
  json.add_raw(buf);
  std::printf("replay/live throughput ratio: %.2fx (gate: >= 0.90x)\n",
              replay_rate / live_rate);

  if (!live_m.functional_ok || !live_m.properties_ok ||
      !replay_m.properties_ok) {
    std::fprintf(stderr, "verdicts regressed during benchmark run\n");
    return 1;
  }
  if (live_m.transactions != replay_m.transactions) {
    std::fprintf(stderr, "replay saw %llu records, live produced %llu\n",
                 static_cast<unsigned long long>(replay_m.transactions),
                 static_cast<unsigned long long>(live_m.transactions));
    return 1;
  }
  if (replay_rate < 0.9 * live_rate) {
    std::fprintf(stderr, "replay throughput gate failed: %.0f < 0.9 * %.0f\n",
                 replay_rate, live_rate);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  bench::BenchJson json("tracelog");
  std::error_code ec;
  const std::string tmp = std::filesystem::temp_directory_path(ec).string();
  if (ec) {
    std::fprintf(stderr, "no temp directory: %s\n", ec.message().c_str());
    return 1;
  }
  if (int rc = run_container_bench(json, tmp)) return rc;
  return run_replay_bench(json, tmp);
}

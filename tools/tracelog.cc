// tracelog: inspect and validate on-disk trace logs (support::tracelog).
//
//   tracelog dump FILE       decode FILE and print it as JSONL (meta line,
//                            then one record object per line) on stdout —
//                            the same debug encoding .jsonl logs use, so the
//                            output is itself a loadable trace log. FILE is
//                            read twice, validated before anything prints,
//                            so it must be a file, not a pipe: a JSONL dump
//                            has no trailer, and a partial one would load.
//   tracelog validate FILE   fully decode FILE (magic, schema version, CRCs,
//                            trailer, record structure); prints a one-line
//                            verdict. Exit 0 when the log is well-formed,
//                            1 when it is rejected (the distinct error kind
//                            is part of the message), 2 on usage errors.
//   tracelog stats FILE      print stream identity and per-frame statistics:
//                            design/level/clock, observable dictionary,
//                            record and frame counts, time span.
//
// Every command streams the log one frame at a time, so memory stays at one
// frame however long the log is. Replaying a log through the checkers is
// the job of the example binaries (--replay); this tool only looks at the
// container format.
#include <cstdio>
#include <cstring>
#include <string>

#include "support/tracelog.h"
#include "tlm/record_source.h"
#include "tlm/transaction.h"

using namespace repro;
using support::tracelog::TraceStreamSource;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s dump|validate|stats FILE\n", argv0);
}

int report(const char* path, const support::tracelog::TraceError& err) {
  std::fprintf(stderr, "tracelog: %s: %s\n", path, err.to_string().c_str());
  return 1;
}

// One streamed pass over the log, frame by frame, so memory stays at one
// frame however long the log is. Returns what the pass saw; `on_record`, when
// set, sees every record in file order.
struct Pass {
  size_t records = 0;
  size_t frames = 0;
  size_t min_frame = 0;
  size_t max_frame = 0;
  size_t with_obs = 0;
  sim::Time first_start = 0;
  sim::Time last_end = 0;
};

template <typename OnRecord>
int stream(const char* path, TraceStreamSource& source, Pass& pass,
           OnRecord on_record) {
  if (auto err = source.open(path)) return report(path, *err);
  for (tlm::RecordSpan span = source.next(); !span.empty();
       span = source.next()) {
    if (pass.records == 0) pass.first_start = span.begin->start;
    pass.last_end = span.end[-1].end;
    pass.records += span.size();
    ++pass.frames;
    if (pass.min_frame == 0 || span.size() < pass.min_frame) {
      pass.min_frame = span.size();
    }
    if (span.size() > pass.max_frame) pass.max_frame = span.size();
    for (const tlm::TransactionRecord* r = span.begin; r != span.end; ++r) {
      if (!r->observables.empty()) ++pass.with_obs;
      on_record(*r);
    }
  }
  if (source.error()) return report(path, *source.error());
  return 0;
}

int stream(const char* path, TraceStreamSource& source, Pass& pass) {
  return stream(path, source, pass, [](const tlm::TransactionRecord&) {});
}

int cmd_dump(const char* path) {
  TraceStreamSource source;
  Pass pass;
  if (int rc = stream(path, source, pass)) return rc;
  std::string line;
  support::tracelog::write_jsonl_meta(line, source.meta());
  std::fputs(line.c_str(), stdout);
  Pass second;
  return stream(path, source, second, [&](const tlm::TransactionRecord& r) {
    line.clear();
    support::tracelog::write_jsonl_record(line, r, source.meta().observables);
    std::fputs(line.c_str(), stdout);
  });
}

int cmd_validate(const char* path) {
  TraceStreamSource source;
  Pass pass;
  if (int rc = stream(path, source, pass)) return rc;
  std::printf("%s: ok (schema %u, %zu records, %zu frames)\n", path,
              support::tracelog::kSchemaVersion, pass.records, pass.frames);
  return 0;
}

int cmd_stats(const char* path) {
  TraceStreamSource source;
  Pass pass;
  if (int rc = stream(path, source, pass)) return rc;
  const tlm::RecordStreamMeta& meta = source.meta();
  std::printf("design:          %s\n", meta.design.c_str());
  std::printf("level:           %s\n", meta.level.c_str());
  std::printf("clock_period_ns: %llu\n",
              static_cast<unsigned long long>(meta.clock_period_ns));
  std::printf("observables:     %zu (", meta.observables.size());
  for (size_t i = 0; i < meta.observables.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : " ", meta.observables[i].c_str());
  }
  std::printf(")\n");
  std::printf("records:         %zu\n", pass.records);
  std::printf("frames:          %zu\n", pass.frames);
  std::printf("frame records:   min %zu, max %zu\n", pass.min_frame,
              pass.max_frame);
  if (pass.records != 0) {
    std::printf("time span:       %llu..%llu ns\n",
                static_cast<unsigned long long>(pass.first_start),
                static_cast<unsigned long long>(pass.last_end));
    std::printf("with snapshots:  %zu\n", pass.with_obs);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    usage(argv[0]);
    return 2;
  }
  const char* command = argv[1];
  const char* path = argv[2];
  if (std::strcmp(command, "dump") == 0) return cmd_dump(path);
  if (std::strcmp(command, "validate") == 0) return cmd_validate(path);
  if (std::strcmp(command, "stats") == 0) return cmd_stats(path);
  usage(argv[0]);
  return 2;
}

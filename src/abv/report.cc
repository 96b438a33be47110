#include "abv/report.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "support/json.h"

namespace repro::abv {

namespace {

size_t digits(uint64_t v) {
  size_t n = 1;
  while (v >= 10) {
    v /= 10;
    ++n;
  }
  return n;
}

void append_delta(std::string& out, const char* field, int64_t v) {
  if (v == 0) return;
  if (!out.empty()) out += ", ";
  out += field;
  out += v > 0 ? " +" : " -";
  out += std::to_string(v > 0 ? v : -v);
}

}  // namespace

std::string PropertyDelta::to_string() const {
  std::string fields;
  append_delta(fields, "events", events);
  append_delta(fields, "activations", activations);
  append_delta(fields, "holds", holds);
  append_delta(fields, "failures", failures);
  append_delta(fields, "uncompleted", uncompleted);
  append_delta(fields, "steps", steps);
  append_delta(fields, "real_passes", real_passes);
  append_delta(fields, "vacuous_passes", vacuous_passes);
  append_delta(fields, "missed_deadlines", missed_deadlines);
  if (fields.empty()) fields = "no change";
  return name + ": " + fields;
}

void Report::add(const checker::PropertyChecker& checker) {
  const checker::CheckerStats& s = checker.stats();
  PropertyReport p;
  p.name = checker.name();
  p.events = s.events;
  p.activations = s.activations;
  p.holds = s.holds;
  p.failures = s.failures;
  p.uncompleted = s.uncompleted;
  p.steps = s.steps;
  p.trivial = s.trivial;
  p.real_passes = s.real_passes;
  p.vacuous_passes = s.vacuous_passes;
  p.missed_deadlines = s.missed_deadlines;
  p.node_visits = s.node_visits;
  p.latency_ns = checker.latency_histogram();
  p.failure_log = checker.failures();
  properties_.push_back(std::move(p));
}

void Report::add_derived(PropertyReport row) {
  properties_.push_back(std::move(row));
}

void Report::sort_by_name() {
  std::stable_sort(
      properties_.begin(), properties_.end(),
      [](const PropertyReport& a, const PropertyReport& b) { return a.name < b.name; });
}

std::vector<PropertyDelta> Report::diff(const Report& other) const {
  std::map<std::string, const PropertyReport*> mine;
  for (const auto& p : properties_) mine.emplace(p.name, &p);

  std::vector<PropertyDelta> deltas;
  auto signed_delta = [](uint64_t b, uint64_t a) {
    return static_cast<int64_t>(b) - static_cast<int64_t>(a);
  };
  for (const auto& p : other.properties_) {
    const auto it = mine.find(p.name);
    const PropertyReport base = it != mine.end() ? *it->second : PropertyReport{};
    if (it != mine.end()) mine.erase(it);
    PropertyDelta d;
    d.name = p.name;
    d.events = signed_delta(p.events, base.events);
    d.activations = signed_delta(p.activations, base.activations);
    d.holds = signed_delta(p.holds, base.holds);
    d.failures = signed_delta(p.failures, base.failures);
    d.uncompleted = signed_delta(p.uncompleted, base.uncompleted);
    d.steps = signed_delta(p.steps, base.steps);
    d.real_passes = signed_delta(p.real_passes, base.real_passes);
    d.vacuous_passes = signed_delta(p.vacuous_passes, base.vacuous_passes);
    d.missed_deadlines =
        signed_delta(p.missed_deadlines, base.missed_deadlines);
    if (!d.zero()) deltas.push_back(std::move(d));
  }
  // Properties present here but absent from `other` show up as the negated
  // counts, so the diff is symmetric up to sign.
  for (const auto& [name, p] : mine) {
    PropertyDelta d;
    d.name = name;
    d.events = -static_cast<int64_t>(p->events);
    d.activations = -static_cast<int64_t>(p->activations);
    d.holds = -static_cast<int64_t>(p->holds);
    d.failures = -static_cast<int64_t>(p->failures);
    d.uncompleted = -static_cast<int64_t>(p->uncompleted);
    d.steps = -static_cast<int64_t>(p->steps);
    d.real_passes = -static_cast<int64_t>(p->real_passes);
    d.vacuous_passes = -static_cast<int64_t>(p->vacuous_passes);
    d.missed_deadlines = -static_cast<int64_t>(p->missed_deadlines);
    if (!d.zero()) deltas.push_back(std::move(d));
  }
  return deltas;
}

bool Report::all_ok() const {
  for (const auto& p : properties_) {
    if (!p.ok()) return false;
  }
  return true;
}

uint64_t Report::total_failures() const {
  uint64_t total = 0;
  for (const auto& p : properties_) total += p.failures;
  return total;
}

uint64_t Report::total_activations() const {
  uint64_t total = 0;
  for (const auto& p : properties_) total += p.activations;
  return total;
}

void Report::print(std::ostream& os) const {
  PropertyReport totals;
  totals.name = "total";
  size_t name_width = totals.name.size();
  for (const auto& p : properties_) {
    name_width = std::max(name_width, p.name.size());
    totals.events += p.events;
    totals.activations += p.activations;
    totals.holds += p.holds;
    totals.failures += p.failures;
    totals.uncompleted += p.uncompleted;
    totals.real_passes += p.real_passes;
    totals.vacuous_passes += p.vacuous_passes;
  }
  struct Column {
    const char* header;
    uint64_t PropertyReport::*field;
    size_t width;
  };
  Column columns[] = {{"events", &PropertyReport::events, 0},
                      {"activated", &PropertyReport::activations, 0},
                      {"holds", &PropertyReport::holds, 0},
                      {"real", &PropertyReport::real_passes, 0},
                      {"vacuous", &PropertyReport::vacuous_passes, 0},
                      {"fails", &PropertyReport::failures, 0},
                      {"pending", &PropertyReport::uncompleted, 0}};
  size_t rule_width = name_width + 8;
  for (Column& c : columns) {
    // Totals bound every row's value, so sizing to header vs. total suffices.
    c.width = std::max(std::string_view(c.header).size(), digits(totals.*c.field)) + 2;
    rule_width += c.width;
  }
  const std::string rule(rule_width, '-');
  os << std::left << std::setw(static_cast<int>(name_width + 8)) << "property"
     << std::right;
  for (const Column& c : columns) os << std::setw(static_cast<int>(c.width)) << c.header;
  os << "\n";
  for (const auto& p : properties_) {
    os << std::left << std::setw(static_cast<int>(name_width + 8)) << p.name
       << std::right;
    for (const Column& c : columns) os << std::setw(static_cast<int>(c.width)) << p.*c.field;
    os << "\n";
  }
  os << rule << "\n";
  os << std::left << std::setw(static_cast<int>(name_width + 8)) << totals.name
     << std::right;
  for (const Column& c : columns) os << std::setw(static_cast<int>(c.width)) << totals.*c.field;
  os << "\n";
  size_t elided = 0;
  size_t subsumed = 0;
  for (const auto& p : properties_) {
    if (p.prune == "elide") ++elided;
    if (p.prune == "subsumed") ++subsumed;
  }
  if (elided + subsumed > 0) {
    os << "pruned: " << elided << " elided, " << subsumed
       << " subsumed (verdicts derived, never dropped)\n";
  }
}

void Report::write_json(std::ostream& os, const ReportTiming* timing) const {
  // schema_version history:
  //   1  all_ok/totals/properties(+failure_log)/timing
  //   2  adds the "coverage" array; v1 keys are unchanged (additive bump).
  os << "{\n";
  os << "  \"schema_version\": 2,\n";
  os << "  \"all_ok\": " << (all_ok() ? "true" : "false") << ",\n";
  os << "  \"totals\": {\"activations\": " << total_activations()
     << ", \"failures\": " << total_failures() << "},\n";
  os << "  \"properties\": [";
  for (size_t i = 0; i < properties_.size(); ++i) {
    const PropertyReport& p = properties_[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"name\": ";
    support::json::write_string(os, p.name);
    os << ", \"events\": " << p.events << ", \"activations\": " << p.activations
       << ", \"holds\": " << p.holds << ", \"failures\": " << p.failures
       << ", \"uncompleted\": " << p.uncompleted << ", \"steps\": " << p.steps;
    // Prune keys are emitted only for derived rows, so unpruned reports stay
    // byte-identical to schema_version 2 output.
    if (!p.prune.empty()) {
      os << ", \"prune\": ";
      support::json::write_string(os, p.prune);
      os << ", \"derived_from\": ";
      support::json::write_string(os, p.derived_from);
    }
    os << ",\n     \"failure_log\": [";
    for (size_t f = 0; f < p.failure_log.size(); ++f) {
      const checker::Failure& failure = p.failure_log[f];
      os << (f == 0 ? "\n" : ",\n");
      os << "       {\"time_ns\": " << failure.time << ", \"witness\": [";
      for (size_t w = 0; w < failure.witness.size(); ++w) {
        const checker::WitnessEntry& entry = failure.witness[w];
        os << (w == 0 ? "\n" : ",\n");
        os << "         {\"time_ns\": " << entry.time << ", \"observables\": {";
        if (entry.observables != nullptr) {
          for (size_t o = 0; o < entry.observables->size(); ++o) {
            if (o != 0) os << ", ";
            support::json::write_string(os, (*entry.observables)[o].first);
            os << ": " << (*entry.observables)[o].second;
          }
        }
        os << "}}";
      }
      os << (failure.witness.empty() ? "]}" : "\n       ]}");
    }
    os << (p.failure_log.empty() ? "]}" : "\n     ]}");
  }
  os << (properties_.empty() ? "]" : "\n  ]");
  os << ",\n  \"coverage\": [";
  for (size_t i = 0; i < properties_.size(); ++i) {
    const PropertyReport& p = properties_[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"name\": ";
    support::json::write_string(os, p.name);
    os << ", \"activations\": " << p.activations << ", \"holds\": " << p.holds
       << ", \"failures\": " << p.failures << ", \"trivial\": " << p.trivial
       << ", \"real_passes\": " << p.real_passes
       << ", \"vacuous_passes\": " << p.vacuous_passes
       << ", \"missed_deadlines\": " << p.missed_deadlines
       << ", \"node_visits\": " << p.node_visits
       << ", \"dynamically_vacuous\": "
       << (p.dynamically_vacuous() ? "true" : "false")
       << ",\n     \"latency_ns\": {\"bounds\": [";
    for (size_t b = 0; b < p.latency_ns.bounds().size(); ++b) {
      if (b != 0) os << ", ";
      os << p.latency_ns.bounds()[b];
    }
    os << "], \"counts\": [";
    for (size_t c = 0; c < p.latency_ns.counts().size(); ++c) {
      if (c != 0) os << ", ";
      os << p.latency_ns.counts()[c];
    }
    os << "], \"total\": " << p.latency_ns.total()
       << ", \"sum\": " << p.latency_ns.sum()
       << ", \"max\": " << p.latency_ns.max() << "}}";
  }
  os << (properties_.empty() ? "]" : "\n  ]");
  if (timing != nullptr) {
    const double rate = timing->wall_seconds > 0.0
                            ? static_cast<double>(timing->records) / timing->wall_seconds
                            : 0.0;
    const std::ios_base::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    os << ",\n  \"timing\": {\n";
    os << "    \"wall_seconds\": " << std::fixed << std::setprecision(6)
       << timing->wall_seconds << ",\n";
    os << "    \"jobs\": " << timing->jobs << ",\n";
    os << "    \"records\": " << timing->records << ",\n";
    os << "    \"records_per_sec\": " << std::setprecision(1) << rate << ",\n";
    os.flags(flags);
    os.precision(precision);
    os << "    \"metrics\": ";
    {
      std::ostringstream metrics;
      timing->metrics.write_json(metrics);
      // Re-indent the nested metrics block to keep the file readable.
      const std::string text = metrics.str();
      for (const char c : text) {
        os << c;
        if (c == '\n') os << "    ";
      }
    }
    os << "\n  }";
  }
  os << "\n}\n";
}

}  // namespace repro::abv

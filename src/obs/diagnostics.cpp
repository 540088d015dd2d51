#include "obs/diagnostics.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace reveal::obs {

namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  // %.17g round-trips every finite IEEE-754 double exactly.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i32(std::string& out, std::int32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%" PRId32, v);
  out += buf;
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

}  // namespace

std::string DiagnosticsReport::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\n  \"dropped_events\": ";
  append_u64(out, dropped_events);
  out += ",\n  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageRow& r = stages[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"stage\": ";
    append_string(out, r.stage);
    out += ", \"count\": ";
    append_u64(out, r.count);
    out += ", \"total_ns\": ";
    append_u64(out, r.total_ns);
    out += ", \"min_ns\": ";
    append_u64(out, r.min_ns);
    out += ", \"max_ns\": ";
    append_u64(out, r.max_ns);
    out += "}";
  }
  out += stages.empty() ? "]" : "\n  ]";
  out += ",\n  \"counters\": [";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_string(out, counters[i].name);
    out += ", \"value\": ";
    append_u64(out, counters[i].value);
    out += "}";
  }
  out += counters.empty() ? "]" : "\n  ]";
  out += ",\n  \"gauges\": [";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_string(out, gauges[i].name);
    out += ", \"value\": ";
    append_double(out, gauges[i].value);
    out += "}";
  }
  out += gauges.empty() ? "]" : "\n  ]";
  out += ",\n  \"histograms\": [";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramRow& r = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_string(out, r.name);
    out += ", \"lo\": ";
    append_double(out, r.lo);
    out += ", \"hi\": ";
    append_double(out, r.hi);
    out += ", \"counts\": [";
    for (std::size_t b = 0; b < r.counts.size(); ++b) {
      if (b != 0) out += ", ";
      append_u64(out, r.counts[b]);
    }
    out += "], \"sum\": ";
    append_double(out, r.sum);
    out += "}";
  }
  out += histograms.empty() ? "]" : "\n  ]";
  out += ",\n  \"confusion\": [";
  for (std::size_t i = 0; i < confusion.size(); ++i) {
    const ConfusionRow& r = confusion[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"truth\": ";
    append_i32(out, r.truth);
    out += ", \"predicted\": ";
    append_i32(out, r.predicted);
    out += ", \"count\": ";
    append_u64(out, r.count);
    out += "}";
  }
  out += confusion.empty() ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

DiagnosticsReport make_report(const Registry& registry, const SpanTracer* tracer,
                              const sca::ConfusionMatrix* confusion) {
  DiagnosticsReport report;
  if (tracer != nullptr) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const StageTiming& t = tracer->timings()[s];
      if (t.count == 0) continue;  // untouched stages do not pad the report
      report.stages.push_back({to_string(static_cast<Stage>(s)), t.count, t.total_ns,
                               t.min_ns, t.max_ns});
    }
    report.dropped_events = tracer->dropped();
  }
  for (const std::string& name : registry.names(MetricKind::kCounter)) {
    report.counters.push_back({name, registry.counter_value(name)});
  }
  for (const std::string& name : registry.names(MetricKind::kGauge)) {
    report.gauges.push_back({name, registry.gauge_value(name)});
  }
  for (const std::string& name : registry.names(MetricKind::kHistogram)) {
    const LatencyHistogram& h = registry.histogram_values(name);
    report.histograms.push_back({name, h.lo(), h.hi(), h.counts(), h.sum()});
  }
  if (confusion != nullptr) {
    for (const std::int32_t truth : confusion->truths()) {
      for (const std::int32_t predicted : confusion->predictions()) {
        const std::size_t c = confusion->count(truth, predicted);
        if (c == 0) continue;
        report.confusion.push_back(
            {truth, predicted, static_cast<std::uint64_t>(c)});
      }
    }
  }
  return report;
}

void write_json_file(const DiagnosticsReport& report, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("obs::write_json_file: cannot open " + path);
  const std::string json = report.to_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int closed = std::fclose(f);
  if (written != json.size() || closed != 0)
    throw std::runtime_error("obs::write_json_file: short write to " + path);
}

}  // namespace reveal::obs

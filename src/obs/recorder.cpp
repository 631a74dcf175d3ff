#include "obs/recorder.h"

#include <cinttypes>
#include <cstdio>

#include "obs/json.h"

namespace gpuddt::obs {

namespace {

/// The first findings are echoed to stderr as they arrive.
constexpr std::size_t kMaxEchoed = 50;

void append_int(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void echo(const Diagnostic& d) {
  if (d.kind == "hazard") {
    std::fprintf(stderr,
                 "gpuddt-check: %s %s: %s\n"
                 "    a: %-14s queue=%-10s [%#zx,+%lld) window [%lld,%lld) %s\n"
                 "    b: %-14s queue=%-10s [%#zx,+%lld) window [%lld,%lld) %s\n",
                 d.kind.c_str(), d.type.c_str(), d.message.c_str(),
                 d.a.label.c_str(), d.a.queue.c_str(), d.a.ptr,
                 static_cast<long long>(d.a.len),
                 static_cast<long long>(d.a.start),
                 static_cast<long long>(d.a.finish),
                 d.a.write ? "write" : "read", d.b.label.c_str(),
                 d.b.queue.c_str(), d.b.ptr, static_cast<long long>(d.b.len),
                 static_cast<long long>(d.b.start),
                 static_cast<long long>(d.b.finish),
                 d.b.write ? "write" : "read");
  } else {
    std::fprintf(stderr, "gpuddt-check: %s %s: %s (unit %lld)\n",
                 d.kind.c_str(), d.type.c_str(), d.message.c_str(),
                 static_cast<long long>(d.unit_index));
  }
}

void append_access(std::string& out, const char* key, const AccessDesc& a) {
  out += ", \"";
  out += key;
  out += "\": {\"label\": \"" + json::escape(a.label) + "\", \"queue\": \"" +
         json::escape(a.queue) + "\", \"ptr\": ";
  append_int(out, static_cast<std::int64_t>(a.ptr));
  out += ", \"len\": ";
  append_int(out, a.len);
  out += ", \"start\": ";
  append_int(out, a.start);
  out += ", \"finish\": ";
  append_int(out, a.finish);
  out += a.write ? ", \"write\": true}" : ", \"write\": false}";
}

}  // namespace

void Recorder::report(Diagnostic d) {
  if (diagnostics_.size() < kMaxEchoed) echo(d);
  if (diagnostics_.size() < kMaxDiagnostics)
    diagnostics_.push_back(std::move(d));
}

std::string Recorder::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"gpuddt-metrics-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_.counters_snapshot()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::escape(name) + "\": ";
    append_int(out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : metrics_.histograms_snapshot()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::escape(name) + "\": {\"count\": ";
    append_int(out, h.count);
    out += ", \"sum\": ";
    append_int(out, h.sum);
    out += ", \"min\": ";
    append_int(out, h.min);
    out += ", \"max\": ";
    append_int(out, h.max);
    out += ", \"mean\": ";
    append_double(out, h.mean());
    out += ", \"p50\": ";
    append_int(out, h.quantile(0.5));
    out += ", \"p99\": ";
    append_int(out, h.quantile(0.99));
    out += ", \"buckets\": [";
    // Trailing zero buckets carry no information; trim them.
    std::size_t last = Histogram::kBuckets;
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (std::size_t i = 0; i < last; ++i) {
      if (i > 0) out += ", ";
      append_int(out, h.buckets[i]);
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"diagnostics\": [";
  first = true;
  for (const Diagnostic& d : diagnostics_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"kind\": \"" + json::escape(d.kind) + "\", \"type\": \"" +
           json::escape(d.type) + "\", \"message\": \"" +
           json::escape(d.message) + "\", \"device\": ";
    append_int(out, d.device);
    if (d.kind == "hazard") {
      append_access(out, "a", d.a);
      append_access(out, "b", d.b);
    } else {
      out += ", \"unit_index\": ";
      append_int(out, d.unit_index);
    }
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

namespace {

bool write_file(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

bool Recorder::write_json(const std::string& path) const {
  return write_file(path, to_json());
}

bool Recorder::write_chrome_json(const std::string& path) const {
  return write_file(path, to_chrome_json());
}

bool Recorder::write_latency_json(const std::string& path) const {
  return write_file(path, latency_json());
}

Recorder& default_recorder() {
  static Recorder rec;
  return rec;
}

void record_layer_op(Recorder& rec, const LayerOp& op) {
  // One name buffer serves both counters and the flow class.
  std::string name = op.family;
  name += '.';
  name += op.op;
  const std::size_t prefix = name.size();
  name += ".calls";
  rec.metrics().counter(name).inc();
  name.resize(prefix);
  name += ".bytes";
  rec.metrics().counter(name).add(op.bytes);
  name.resize(prefix);
  trace(&rec, {op.op, op.family, op.begin, op.end, op.rank, op.bytes,
               op.rank, op.flow});
  if (op.flow != 0 && rec.flowstats().enabled()) {
    rec.flowstats().complete({op.flow, std::move(name), op.shape, op.bytes,
                              op.begin, op.end, op.participants});
  }
}

}  // namespace gpuddt::obs

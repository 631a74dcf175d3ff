#include "check/config.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "obs/json.h"

namespace gpuddt::check {

namespace {

/// Stored-diagnostic cap: counting is unbounded, storage is not, so a
/// hazard storm cannot exhaust memory. The drop is visible in the report
/// (counts exceed the diagnostics array length).
constexpr std::size_t kMaxStored = 1024;
/// First N diagnostics are echoed to stderr for direct CI visibility.
constexpr std::int64_t kMaxEchoed = 50;

struct Sink {
  std::vector<Diagnostic> stored;
  std::int64_t hazards = 0;
  std::int64_t violations = 0;
  std::int64_t echoed = 0;
  std::int64_t ops = 0;
  std::int64_t ranges = 0;
  std::int64_t dropped = 0;
};

Sink& sink() {
  static Sink s;
  return s;
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

void append_int(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

void append_access(std::string& out, const char* key, const AccessDesc& a) {
  out += '"';
  out += key;
  out += "\":{\"label\":\"";
  out += obs::json::escape(a.label);
  out += "\",\"queue\":\"";
  out += obs::json::escape(a.queue);
  out += "\",\"ptr\":";
  append_int(out, static_cast<std::int64_t>(a.ptr));
  out += ",\"len\":";
  append_int(out, a.len);
  out += ",\"start\":";
  append_int(out, a.start);
  out += ",\"finish\":";
  append_int(out, a.finish);
  out += ",\"write\":";
  out += a.write ? "true" : "false";
  out += '}';
}

}  // namespace

bool Switch::enabled(int tri_state) const {
  if (tri_state >= 0) return tri_state != 0;
  if (forced_) return *forced_;
  const char* v = std::getenv(env_var_);
  if (v == nullptr || *v == '\0') return build_default_;
  const std::string_view s(v);
  return !(s == "0" || s == "off" || s == "false");
}

Switch check_switch{"GPUDDT_CHECK", GPUDDT_CHECK_DEFAULT != 0};

void report(Diagnostic diag) {
  Sink& s = sink();
  (diag.kind == "hazard" ? s.hazards : s.violations) += 1;
  if (s.echoed < kMaxEchoed) {
    echo(diag);
    ++s.echoed;
  }
  if (s.stored.size() < kMaxStored) s.stored.push_back(std::move(diag));
}

std::vector<Diagnostic> diagnostics() {
  Sink& s = sink();
  return s.stored;
}

std::int64_t hazard_count() {
  Sink& s = sink();
  return s.hazards;
}

std::int64_t violation_count() {
  Sink& s = sink();
  return s.violations;
}

void clear_diagnostics() {
  Sink& s = sink();
  s.stored.clear();
  s.hazards = 0;
  s.violations = 0;
  s.echoed = 0;
  s.ops = 0;
  s.ranges = 0;
  s.dropped = 0;
}

void add_tracked(std::int64_t ops, std::int64_t ranges) {
  Sink& s = sink();
  s.ops += ops;
  s.ranges += ranges;
}

void add_dropped(std::int64_t records) {
  Sink& s = sink();
  s.dropped += records;
}

std::int64_t ops_tracked() {
  Sink& s = sink();
  return s.ops;
}

std::int64_t ranges_tracked() {
  Sink& s = sink();
  return s.ranges;
}

std::int64_t records_dropped() {
  Sink& s = sink();
  return s.dropped;
}

std::string report_json() {
  Sink& s = sink();
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"gpuddt-check-v1\",\n  \"hazards\": ";
  append_int(out, s.hazards);
  out += ",\n  \"dev_violations\": ";
  append_int(out, s.violations);
  out += ",\n  \"ops_tracked\": ";
  append_int(out, s.ops);
  out += ",\n  \"ranges_tracked\": ";
  append_int(out, s.ranges);
  out += ",\n  \"records_dropped\": ";
  append_int(out, s.dropped);
  out += ",\n  \"diagnostics\": [";
  bool first = true;
  for (const auto& d : s.stored) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"kind\":\"";
    out += obs::json::escape(d.kind);
    out += "\",\"type\":\"";
    out += obs::json::escape(d.type);
    out += "\",\"message\":\"";
    out += obs::json::escape(d.message);
    out += "\",\"device\":";
    append_int(out, d.device);
    if (d.kind == "hazard") {
      out += ',';
      append_access(out, "a", d.a);
      out += ',';
      append_access(out, "b", d.b);
    } else {
      out += ",\"unit_index\":";
      append_int(out, d.unit_index);
    }
    out += '}';
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool write_report(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << report_json();
  return static_cast<bool>(out);
}

}  // namespace gpuddt::check

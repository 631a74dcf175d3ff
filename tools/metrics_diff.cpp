// Diff / validate gpuddt metrics dumps (the --metrics-out JSON).
//
// Usage:
//   metrics_diff A.json B.json
//       Print counters and histogram means that changed between the two
//       dumps (A = baseline, B = candidate), with absolute and relative
//       deltas. Exits 0 whether or not anything changed.
//   metrics_diff --validate FILE KEY...
//       Parse FILE, check the schema marker, and require each KEY to be
//       present as a counter or histogram. Additionally every metric in
//       the dump must belong to a known counter family (kKnownFamilies
//       below; docs/metrics.md documents each) - an
//       unknown prefix means an instrumentation site invented a family
//       without documenting it in docs/metrics.md. Exits 1 on any
//       failure (used by the bench_metrics_validate CTest entry).
//   metrics_diff --validate-chrome FILE
//       Parse FILE as a Chrome Trace Event Format array (the
//       --trace-out chrome output; docs/tracing.md) and check its
//       shape: a JSON array whose "X" events carry non-negative dur and
//       monotone non-decreasing ts, and whose flow events (ph s/t/f)
//       form well-nested flows - one start and one finish per id, no
//       steps outside the start..finish window, no dangling flows, and
//       every binding point inside an "X" slice on the same pid/tid.
//       Exits 1 on any failure.
//   metrics_diff --validate-latency FILE
//       Parse FILE as a gpuddt-latency-v1 report (the --latency-out
//       output; docs/latency.md) and check its shape: flowstats
//       counters present, every class carries count/bytes, ordered
//       exact-rank percentiles, a full per-stage work/wait breakdown,
//       and a tail block naming a valid dominant stage; per-class
//       counts must sum to flowstats.flows. Exits 1 on any failure.
//   metrics_diff --gate --baseline BASELINE.json CANDIDATE.json
//       Exact gate: canonicalize both dumps (obs/canon.h - counters and
//       histograms only, findings dropped) and require them to match
//       byte-for-byte. Virtual time is deterministic, so a checked-in
//       baseline needs no headroom; any divergence is a behavior change
//       that must be reviewed (and the baseline regenerated with
//       tools/regen_baselines.sh). Prints the per-key differences and
//       exits 1 on mismatch.
//   metrics_diff --canon FILE
//       Print FILE's canonical form on stdout (how baselines are
//       regenerated).
//
// Exit codes (the gate distinguishes the failure kinds so CI logs are
// diagnosable at a glance):
//   0 - ok
//   1 - baseline mismatch / validation failure
//   2 - usage error
//   3 - baseline file missing or unreadable (first gate operand)
//   4 - candidate file missing or unreadable (second gate operand)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/canon.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace {

using gpuddt::obs::json::Value;

constexpr int kExitMismatch = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBaselineMissing = 3;
constexpr int kExitCandidateMissing = 4;

Value load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return gpuddt::obs::json::parse(ss.str());
}

/// Load one gate operand, exiting with `missing_code` (3 = baseline,
/// 4 = candidate) when the file cannot be opened or parsed - distinct
/// from the mismatch exit so a CI failure names its own cause.
Value load_gate_operand(const std::string& path, const char* role,
                        int missing_code) {
  try {
    return load(path);
  } catch (const std::exception& e) {
    std::cerr << "metrics_diff: " << role << " " << e.what() << "\n";
    std::exit(missing_code);
  }
}

void check_schema(const Value& doc, const std::string& path) {
  if (!doc.is_object() || !doc.contains("schema") ||
      doc.at("schema").as_string() != "gpuddt-metrics-v1") {
    throw std::runtime_error(path + ": not a gpuddt-metrics-v1 dump");
  }
}

/// Every counter family a dump may legally contain. One family per
/// instrumented layer; docs/metrics.md documents each. Adding an
/// instrumentation site with a new prefix requires extending this list
/// (and the docs) in the same change.
constexpr const char* kKnownFamilies[] = {
    "engine.", "dev_cache.", "check.",  "pml.",     "gpu.",     "coll.",
    "rma.",    "shmem.",     "verify.", "sim.",     "latency.", "flowstats.",
};

bool known_family(const std::string& name) {
  for (const char* fam : kKnownFamilies) {
    if (name.rfind(fam, 0) == 0) return true;
  }
  return false;
}

int validate(const std::string& path, int nkeys, char** keys) {
  const Value doc = load(path);
  check_schema(doc, path);
  const auto& counters = doc.at("counters").as_object();
  const auto& histos = doc.at("histograms").as_object();
  int missing = 0;
  for (int i = 0; i < nkeys; ++i) {
    const std::string key = keys[i];
    if (counters.count(key) == 0 && histos.count(key) == 0) {
      std::cerr << "missing metric: " << key << "\n";
      ++missing;
    }
  }
  int unknown = 0;
  for (const auto* section : {&counters, &histos}) {
    for (const auto& kv : *section) {
      if (!known_family(kv.first)) {
        std::cerr << "unknown counter family: " << kv.first << "\n";
        ++unknown;
      }
    }
  }
  if (missing > 0 || unknown > 0) {
    std::cerr << path << ": " << missing << " required metric(s) missing, "
              << unknown << " metric(s) outside the known families\n";
    return 1;
  }
  std::cout << path << ": ok (" << counters.size() << " counters, "
            << histos.size() << " histograms)\n";
  return 0;
}

/// Fail `path` with a one-line reason; returns 1 so callers can
/// `return fail_latency(...)`.
int fail_latency(const std::string& path, const std::string& why) {
  std::cerr << path << ": " << why << "\n";
  return 1;
}

/// True when `name` is a latency-report stage key (obs::stage_key).
bool is_stage_key(const std::string& name) {
  for (int s = 0; s < gpuddt::obs::kStageCount; ++s)
    if (name == gpuddt::obs::stage_key(static_cast<gpuddt::obs::Stage>(s)))
      return true;
  return false;
}

/// Require `obj[key]` to be a non-negative number; returns its value via
/// `*out` (unchanged on failure).
bool non_negative(const gpuddt::obs::json::Object& obj, const std::string& key,
                  const std::string& ctx, const std::string& path,
                  double* out) {
  const auto it = obj.find(key);
  if (it == obj.end()) {
    std::cerr << path << ": " << ctx << " missing '" << key << "'\n";
    return false;
  }
  const double v = it->second.as_double();
  if (v < 0.0) {
    std::cerr << path << ": " << ctx << " '" << key << "' is negative\n";
    return false;
  }
  *out = v;
  return true;
}

/// Shape check for a gpuddt-latency-v1 report (docs/latency.md - the
/// --latency-out output): the flowstats counter block must be present and
/// every class entry must carry count/bytes, ordered exact-rank
/// percentiles (p50 <= p99 <= p999 <= max), the full per-stage
/// flows/work/wait breakdown, and a tail block whose dominant stage is
/// either a stage name or "none". Exits 1 on any failure (wired as the
/// bench_latency_validate CTest entry).
int validate_latency(const std::string& path) {
  const Value doc = load(path);
  if (!doc.is_object() || !doc.contains("schema") ||
      doc.at("schema").as_string() != "gpuddt-latency-v1") {
    return fail_latency(path, "not a gpuddt-latency-v1 report");
  }
  if (!doc.contains("flowstats") || !doc.at("flowstats").is_object())
    return fail_latency(path, "missing flowstats section");
  const auto& fs = doc.at("flowstats").as_object();
  double spans = 0.0;
  double flows = 0.0;
  double dropped = 0.0;
  for (const char* key : {"spans", "flows", "dropped", "late_spans",
                          "capped"}) {
    double v = 0.0;
    if (!non_negative(fs, key, "flowstats", path, &v)) return 1;
    if (std::strcmp(key, "spans") == 0) spans = v;
    if (std::strcmp(key, "flows") == 0) flows = v;
    if (std::strcmp(key, "dropped") == 0) dropped = v;
  }
  if (!doc.contains("classes") || !doc.at("classes").is_object())
    return fail_latency(path, "missing classes section");
  const auto& classes = doc.at("classes").as_object();
  double class_flows = 0.0;
  for (const auto& [name, cls] : classes) {
    const std::string ctx = "class " + name;
    if (!cls.is_object())
      return fail_latency(path, ctx + " is not an object");
    const auto& obj = cls.as_object();
    double count = 0.0;
    double ignored = 0.0;
    if (!non_negative(obj, "count", ctx, path, &count)) return 1;
    if (!non_negative(obj, "bytes", ctx, path, &ignored)) return 1;
    if (count <= 0.0)
      return fail_latency(path, ctx + " has zero count");
    class_flows += count;
    if (obj.find("e2e") == obj.end() || !obj.at("e2e").is_object())
      return fail_latency(path, ctx + " missing e2e block");
    const auto& e2e = obj.at("e2e").as_object();
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    double max = 0.0;
    if (!non_negative(e2e, "p50", ctx + " e2e", path, &p50) ||
        !non_negative(e2e, "p99", ctx + " e2e", path, &p99) ||
        !non_negative(e2e, "p999", ctx + " e2e", path, &p999) ||
        !non_negative(e2e, "max", ctx + " e2e", path, &max)) {
      return 1;
    }
    // Nearest-rank percentiles over one distribution are monotone in q.
    if (p50 > p99 || p99 > p999 || p999 > max) {
      return fail_latency(path, ctx + " percentiles not ordered (want p50 <= "
                                      "p99 <= p999 <= max)");
    }
    if (obj.find("stages") == obj.end() || !obj.at("stages").is_object())
      return fail_latency(path, ctx + " missing stages block");
    const auto& stages = obj.at("stages").as_object();
    for (const auto& [stage, sv] : stages) {
      if (!is_stage_key(stage))
        return fail_latency(path, ctx + " has unknown stage '" + stage + "'");
      if (!sv.is_object())
        return fail_latency(path, ctx + " stage " + stage + " not an object");
      const auto& st = sv.as_object();
      const std::string sctx = ctx + " stage " + stage;
      if (!non_negative(st, "flows", sctx, path, &ignored) ||
          !non_negative(st, "work", sctx, path, &ignored) ||
          !non_negative(st, "wait", sctx, path, &ignored)) {
        return 1;
      }
    }
    if (obj.find("tail") == obj.end() || !obj.at("tail").is_object())
      return fail_latency(path, ctx + " missing tail block");
    const auto& tail = obj.at("tail").as_object();
    if (!non_negative(tail, "count", ctx + " tail", path, &ignored) ||
        !non_negative(tail, "threshold", ctx + " tail", path, &ignored)) {
      return 1;
    }
    const auto dom = tail.find("dominant");
    if (dom == tail.end())
      return fail_latency(path, ctx + " tail missing 'dominant'");
    const std::string dname = dom->second.as_string();
    if (dname != "none" && !is_stage_key(dname))
      return fail_latency(path, ctx + " tail dominant '" + dname +
                                    "' is not a stage name or \"none\"");
    if (tail.find("work") == tail.end() || !tail.at("work").is_object())
      return fail_latency(path, ctx + " tail missing work block");
  }
  // Cross-check: the per-class counts must add up to the flow total the
  // engine reported - a flow may not appear in a class without being
  // counted, nor be counted without a class (dropped flows are excluded
  // from both).
  if (class_flows != flows) {
    std::ostringstream why;
    why << "class counts sum to " << class_flows << " but flowstats.flows is "
        << flows;
    return fail_latency(path, why.str());
  }
  std::cout << path << ": ok (" << classes.size() << " classes, " << flows
            << " flows, " << spans << " spans, " << dropped << " dropped)\n";
  return 0;
}

/// Shape check for --trace-out chrome output (docs/tracing.md),
/// including the fragment flow events: every flow id must open with one
/// "s", close with one "f", never continue after closing, and each flow
/// event's binding point must lie inside an "X" slice on the same
/// pid/tid (flow events bind to their enclosing slice, bp:"e").
int validate_chrome(const std::string& path) {
  const Value doc = load(path);
  if (!doc.is_array()) {
    std::cerr << path << ": not a JSON array\n";
    return 1;
  }
  int complete = 0;
  double last_ts = 0.0;
  bool have_ts = false;
  // The recorder marks a capacity-bounded capture with a
  // "trace_truncated" instant event (docs/tracing.md): the tail of the
  // timeline - including flow finishes - was dropped on purpose, so a
  // started-but-unfinished flow is expected there, not a grammar error.
  bool truncated = false;
  // (pid, tid) -> [begin, end] of every complete event, for flow binding.
  std::map<std::pair<double, double>,
           std::vector<std::pair<double, double>>>
      slices;
  for (const Value& ev : doc.as_array()) {
    if (!ev.is_object() || !ev.contains("ph") || !ev.contains("name") ||
        !ev.contains("pid") || !ev.contains("tid")) {
      std::cerr << path << ": event missing ph/name/pid/tid\n";
      return 1;
    }
    if (ev.at("ph").as_string() == "i" &&
        ev.at("name").as_string() == "trace_truncated") {
      truncated = true;
    }
    if (ev.at("ph").as_string() != "X") continue;
    ++complete;
    const double ts = ev.at("ts").as_double();
    const double dur = ev.at("dur").as_double();
    if (dur < 0.0) {
      std::cerr << path << ": negative dur at ts " << ts << "\n";
      return 1;
    }
    if (have_ts && ts < last_ts) {
      std::cerr << path << ": ts not monotone (" << ts << " after "
                << last_ts << ")\n";
      return 1;
    }
    last_ts = ts;
    have_ts = true;
    slices[{ev.at("pid").as_double(), ev.at("tid").as_double()}]
        .emplace_back(ts, ts + dur);
  }
  struct FlowState {
    bool started = false;
    bool finished = false;
  };
  std::map<double, FlowState> flows;
  for (const Value& ev : doc.as_array()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    if (!ev.contains("id") || !ev.contains("ts")) {
      std::cerr << path << ": flow event missing id/ts\n";
      return 1;
    }
    const double id = ev.at("id").as_double();
    FlowState& st = flows[id];
    if (ph == "s") {
      if (st.started) {
        std::cerr << path << ": duplicate flow start, id " << id << "\n";
        return 1;
      }
      st.started = true;
    } else {
      if (!st.started) {
        std::cerr << path << ": flow '" << ph << "' before start, id " << id
                  << "\n";
        return 1;
      }
      if (st.finished) {
        std::cerr << path << ": flow event after finish, id " << id << "\n";
        return 1;
      }
      if (ph == "f") st.finished = true;
    }
    // Binding point: the flow event's ts must fall inside some slice on
    // its own (pid, tid), or Perfetto has no span to anchor the arrow to.
    const double ts = ev.at("ts").as_double();
    const auto it =
        slices.find({ev.at("pid").as_double(), ev.at("tid").as_double()});
    bool bound = false;
    if (it != slices.end()) {
      for (const auto& [b, e] : it->second) {
        if (ts >= b && ts <= e) {
          bound = true;
          break;
        }
      }
    }
    if (!bound) {
      std::cerr << path << ": flow event at ts " << ts << " (id " << id
                << ") binds outside every slice on its pid/tid\n";
      return 1;
    }
  }
  int dangling = 0;
  for (const auto& [id, st] : flows) {
    if (!st.finished) {
      std::cerr << path << ": " << (truncated ? "warning: " : "")
                << "dangling flow (no finish), id " << id
                << (truncated ? " (trace_truncated present)" : "") << "\n";
      ++dangling;
    }
  }
  if (dangling > 0 && !truncated) return 1;
  std::cout << path << ": ok (" << doc.as_array().size() << " events, "
            << complete << " complete, " << flows.size() << " flows"
            << (truncated ? ", truncated" : "") << ")\n";
  return 0;
}

void diff_section(const char* title, const gpuddt::obs::json::Object& a,
                  const gpuddt::obs::json::Object& b,
                  double (*value_of)(const Value&)) {
  std::printf("== %s ==\n", title);
  int shown = 0;
  for (const auto& [name, bv] : b) {
    const auto it = a.find(name);
    const double vb = value_of(bv);
    if (it == a.end()) {
      std::printf("  + %-42s %14.0f\n", name.c_str(), vb);
      ++shown;
      continue;
    }
    const double va = value_of(it->second);
    if (va == vb) continue;
    const double rel = va != 0.0 ? (vb - va) / va * 100.0 : 0.0;
    std::printf("  ~ %-42s %14.0f -> %-14.0f (%+.1f%%)\n", name.c_str(), va,
                vb, rel);
    ++shown;
  }
  for (const auto& [name, av] : a) {
    if (b.find(name) == b.end()) {
      std::printf("  - %-42s %14.0f\n", name.c_str(), value_of(av));
      ++shown;
    }
  }
  if (shown == 0) std::printf("  (no differences)\n");
}

int diff(const std::string& pa, const std::string& pb) {
  const Value a = load(pa);
  const Value b = load(pb);
  check_schema(a, pa);
  check_schema(b, pb);
  diff_section("counters", a.at("counters").as_object(),
               b.at("counters").as_object(),
               [](const Value& v) { return v.as_double(); });
  diff_section("histogram means", a.at("histograms").as_object(),
               b.at("histograms").as_object(),
               [](const Value& v) { return v.at("mean").as_double(); });
  return 0;
}

/// Canonical text of one section entry, for exact per-key comparison.
std::string entry_text(const std::string& name, const Value& v,
                       bool histogram) {
  using gpuddt::obs::json::Object;
  Object doc{{"schema", Value(std::string("gpuddt-metrics-v1"))},
             {"counters", Value(Object{})},
             {"histograms", Value(Object{})}};
  doc[histogram ? "histograms" : "counters"] = Value(Object{{name, v}});
  return gpuddt::obs::canonical_metrics(Value(std::move(doc)));
}

/// Exact per-key comparison of a section; prints every divergence the
/// canonical comparison counts (keys it drops are skipped).
int diff_exact(const char* title, const gpuddt::obs::json::Object& a,
               const gpuddt::obs::json::Object& b, bool histogram) {
  using gpuddt::obs::instrumentation_metric;
  int diffs = 0;
  for (const auto& [name, av] : a) {
    if (instrumentation_metric(name)) continue;
    const auto it = b.find(name);
    if (it == b.end()) {
      std::printf("FAIL %s %-42s only in baseline\n", title, name.c_str());
      ++diffs;
    } else if (entry_text(name, av, histogram) !=
               entry_text(name, it->second, histogram)) {
      if (histogram) {
        std::printf("FAIL %s %-42s differs\n", title, name.c_str());
      } else {
        std::printf("FAIL %s %-42s %14.0f -> %-14.0f\n", title, name.c_str(),
                    av.as_double(), it->second.as_double());
      }
      ++diffs;
    }
  }
  for (const auto& [name, bv] : b) {
    if (!instrumentation_metric(name) && a.find(name) == a.end()) {
      std::printf("FAIL %s %-42s only in candidate\n", title, name.c_str());
      ++diffs;
    }
  }
  return diffs;
}

int gate_baseline(const std::string& pa, const std::string& pb) {
  const Value a = load_gate_operand(pa, "baseline", kExitBaselineMissing);
  const Value b = load_gate_operand(pb, "candidate", kExitCandidateMissing);
  // canonical_report dispatches on the schema marker, so the same gate
  // covers gpuddt-metrics-v1 dumps and gpuddt-latency-v1 reports.
  const std::string ca = gpuddt::obs::canonical_report(a);
  const std::string cb = gpuddt::obs::canonical_report(b);
  if (ca == cb) {
    std::printf("ok   %s == %s (canonical, %zu bytes)\n", pa.c_str(),
                pb.c_str(), ca.size());
    return 0;
  }
  std::printf("baseline mismatch: %s vs %s\n", pa.c_str(), pb.c_str());
  int diffs = 0;
  if (a.is_object() && a.contains("counters") && b.is_object() &&
      b.contains("counters")) {
    diffs = diff_exact("counter", a.at("counters").as_object(),
                       b.at("counters").as_object(), /*histogram=*/false) +
            diff_exact("histogram", a.at("histograms").as_object(),
                       b.at("histograms").as_object(), /*histogram=*/true);
  }
  std::cerr << (diffs > 0 ? diffs : 1)
            << " difference(s) against checked-in baseline " << pa << "\n"
            << "(intended change? regenerate with "
               "tools/regen_baselines.sh)\n";
  return kExitMismatch;
}

int canon(const std::string& path) {
  const std::string text = gpuddt::obs::canonical_report(load(path));
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 3 && std::strcmp(argv[1], "--validate") == 0) {
      return validate(argv[2], argc - 3, argv + 3);
    }
    if (argc == 3 && std::strcmp(argv[1], "--validate-chrome") == 0) {
      return validate_chrome(argv[2]);
    }
    if (argc == 3 && std::strcmp(argv[1], "--validate-latency") == 0) {
      return validate_latency(argv[2]);
    }
    if (argc == 5 && std::strcmp(argv[1], "--gate") == 0 &&
        std::strcmp(argv[2], "--baseline") == 0) {
      return gate_baseline(argv[3], argv[4]);
    }
    if (argc == 3 && std::strcmp(argv[1], "--canon") == 0) {
      return canon(argv[2]);
    }
    if (argc == 3) return diff(argv[1], argv[2]);
  } catch (const std::exception& e) {
    std::cerr << "metrics_diff: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: metrics_diff A.json B.json\n"
               "       metrics_diff --validate FILE KEY...\n"
               "       metrics_diff --validate-chrome FILE\n"
               "       metrics_diff --validate-latency FILE\n"
               "       metrics_diff --gate --baseline BASE.json CAND.json\n"
               "       metrics_diff --canon FILE\n";
  return kExitUsage;
}

// Per-fragment critical-path profiler over gpuddt traces.
//
// Reconstructs the fragment dependency DAG from a trace - the Chrome
// Trace Event Format array a bench writes with --trace-out=FILE - using
// two edge kinds:
//
//   flow edges   events sharing a non-zero fragment flow id
//                (mpi::frag_flow: conv -> H2D desc -> pack kernel ->
//                wire/RDMA GET -> unpack, across ranks), and
//   stage edges  queueing on one (rank, stage-row) timeline: an event
//                waits for the previous event on its row.
//
// From the DAG it computes the end-to-end critical path (backward walk
// from the last-finishing event, always taking the predecessor that
// released the current event last), splits every stage's contribution
// into work (the span itself) vs. wait (the gap the path spent blocked
// before it), and reports an overlap-efficiency ratio per the paper's
// pipelining model (Section 4.1):
//
//   serial     = sum of all span durations (zero overlap)
//   bottleneck = busiest (rank, stage) row (perfect pipelining cannot
//                beat its busiest stage)
//   efficiency = (serial - span) / (serial - bottleneck), clamped to
//                [0, 1]; 1 when serial == bottleneck (nothing to overlap)
//
// The wait/work accounting telescopes exactly: head wait + sum of path
// work and wait equals the end-to-end span, so the report is internally
// consistent by construction. Virtual time is deterministic
// (docs/determinism.md), so both the report and the gpuddt-critpath-v1
// JSON are byte-identical across runs and can be baseline-gated.
//
// Usage:
//   trace_critpath FILE               human-readable report
//   trace_critpath --json FILE        gpuddt-critpath-v1 JSON on stdout
//   trace_critpath --json-out=P FILE  ... written to P (report on stdout)
//   trace_critpath --check-efficiency FILE
//       additionally require 0 < efficiency <= 1 (exit 1 otherwise);
//       composable with --json/--json-out.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using gpuddt::obs::json::Value;

struct Span {
  std::string name;
  std::string stage;  // named row ("conv", "kernel", "wire", ...)
  int pid = 0;
  std::int64_t begin = 0;  // virtual ns
  std::int64_t end = 0;
  std::uint64_t flow = 0;
};

Value load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return gpuddt::obs::json::parse(ss.str());
}

std::int64_t us_to_ns(double us) {
  return static_cast<std::int64_t>(std::llround(us * 1000.0));
}

/// Chrome export: "X" events only; stage names come from the
/// thread_name metadata the exporter always emits.
std::vector<Span> load_chrome(const Value& doc) {
  std::map<std::pair<int, int>, std::string> rows;
  for (const Value& ev : doc.as_array()) {
    if (!ev.is_object() || !ev.contains("ph")) continue;
    if (ev.at("ph").as_string() != "M") continue;
    if (ev.at("name").as_string() != "thread_name") continue;
    rows[{static_cast<int>(ev.at("pid").as_int()),
          static_cast<int>(ev.at("tid").as_int())}] =
        ev.at("args").at("name").as_string();
  }
  std::vector<Span> spans;
  for (const Value& ev : doc.as_array()) {
    if (!ev.is_object() || !ev.contains("ph")) continue;
    if (ev.at("ph").as_string() != "X") continue;
    Span s;
    s.name = ev.at("name").as_string();
    s.pid = static_cast<int>(ev.at("pid").as_int());
    s.begin = us_to_ns(ev.at("ts").as_double());
    s.end = s.begin + us_to_ns(ev.at("dur").as_double());
    const int tid = static_cast<int>(ev.at("tid").as_int());
    const auto it = rows.find({s.pid, tid});
    s.stage = it != rows.end() ? it->second : "tid" + std::to_string(tid);
    if (ev.contains("args") && ev.at("args").contains("flow"))
      s.flow = static_cast<std::uint64_t>(ev.at("args").at("flow").as_double());
    spans.push_back(std::move(s));
  }
  return spans;
}

struct PathStep {
  std::size_t idx;          // span index
  std::int64_t work = 0;    // ns on the critical path doing this span
  std::int64_t wait = 0;    // ns the path was blocked before this span
};

struct Report {
  std::int64_t t0 = 0, t1 = 0;        // trace extent
  std::int64_t serial = 0;            // sum of all durations
  std::int64_t bottleneck = 0;        // busiest (rank, stage) row
  std::string bottleneck_stage;
  std::int64_t head_wait = 0;         // t0 -> first path event
  double efficiency = 0.0;
  std::size_t flows = 0;
  std::vector<PathStep> path;         // time order
  // stage key ("rank0:kernel") -> accumulated work/wait on the path.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> blame;
};

std::string stage_key(const Span& s) {
  return "rank" + std::to_string(s.pid) + ":" + s.stage;
}

Report analyze(std::vector<Span>& spans) {
  if (spans.empty()) throw std::runtime_error("trace contains no spans");
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.begin != b.begin) return a.begin < b.begin;
                     return a.end < b.end;
                   });

  Report r;
  r.t0 = spans.front().begin;
  r.t1 = spans.front().end;
  // Per-(rank, stage) occupancy as an interval UNION, not a duration sum:
  // pipelined fragments overlap on their own row, and the pipelining
  // bound is "the span cannot beat the busiest row's occupied time" -
  // which is only a valid lower bound without double counting. Spans are
  // begin-sorted, so the union is a single merge pass.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> open;
  std::map<std::string, std::int64_t> busy;
  for (const Span& s : spans) {
    r.t0 = std::min(r.t0, s.begin);
    r.t1 = std::max(r.t1, s.end);
    r.serial += std::max<std::int64_t>(0, s.end - s.begin);
    const std::string key = stage_key(s);
    const auto it = open.find(key);
    if (it == open.end()) {
      open.emplace(key, std::make_pair(s.begin, s.end));
    } else if (s.begin <= it->second.second) {
      it->second.second = std::max(it->second.second, s.end);
    } else {
      busy[key] += it->second.second - it->second.first;
      it->second = {s.begin, s.end};
    }
  }
  for (const auto& [key, iv] : open) busy[key] += iv.second - iv.first;
  for (const auto& [key, ns] : busy) {
    if (ns > r.bottleneck) {
      r.bottleneck = ns;
      r.bottleneck_stage = key;
    }
  }

  // Predecessor indices: previous member of the same flow chain, and
  // previous event on the same (rank, stage) row.
  std::map<std::uint64_t, std::size_t> flow_last;
  std::map<std::string, std::size_t> row_last;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> flow_pred(spans.size(), kNone);
  std::vector<std::size_t> row_pred(spans.size(), kNone);
  std::size_t sink = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.flow != 0) {
      const auto it = flow_last.find(s.flow);
      if (it != flow_last.end()) flow_pred[i] = it->second;
      flow_last[s.flow] = i;
    }
    const std::string row = stage_key(s);
    const auto it = row_last.find(row);
    if (it != row_last.end()) row_pred[i] = it->second;
    row_last[row] = i;
    if (s.end >= spans[sink].end) sink = i;
  }
  r.flows = flow_last.size();

  // Backward walk: of the two possible predecessors, blame the one that
  // released this event last (max end). Both predecessors are earlier in
  // the sorted order, so the walk terminates.
  std::vector<std::size_t> chain{sink};
  for (std::size_t cur = sink;;) {
    const std::size_t f = flow_pred[cur];
    const std::size_t q = row_pred[cur];
    std::size_t pred = kNone;
    if (f != kNone && q != kNone)
      pred = spans[f].end >= spans[q].end ? f : q;
    else
      pred = f != kNone ? f : q;
    if (pred == kNone) break;
    chain.push_back(pred);
    cur = pred;
  }
  std::reverse(chain.begin(), chain.end());

  // Forward accounting sweep. The cursor starts at t0 and ends at the
  // sink's end == t1, so head_wait + sum(work + wait) == t1 - t0 exactly.
  std::int64_t cursor = r.t0;
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const Span& s = spans[chain[k]];
    PathStep step;
    step.idx = chain[k];
    step.wait = std::max<std::int64_t>(0, s.begin - cursor);
    cursor = std::max(cursor, s.begin);
    step.work = std::max<std::int64_t>(0, s.end - cursor);
    cursor = std::max(cursor, s.end);
    if (k == 0) {
      r.head_wait = step.wait;
      step.wait = 0;
    }
    auto& [w, wt] = r.blame[stage_key(s)];
    w += step.work;
    wt += step.wait;
    r.path.push_back(step);
  }

  const std::int64_t span = r.t1 - r.t0;
  if (r.serial <= r.bottleneck) {
    r.efficiency = 1.0;  // one busy stage: nothing to overlap
  } else {
    r.efficiency = static_cast<double>(r.serial - span) /
                   static_cast<double>(r.serial - r.bottleneck);
    r.efficiency = std::clamp(r.efficiency, 0.0, 1.0);
  }
  return r;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

std::string to_json(const std::vector<Span>& spans, const Report& r) {
  std::string out;
  out.reserve(4096);
  char buf[64];
  out += "{\n  \"schema\": \"gpuddt-critpath-v1\",\n  \"t0_ns\": ";
  append_i64(out, r.t0);
  out += ",\n  \"t1_ns\": ";
  append_i64(out, r.t1);
  out += ",\n  \"span_ns\": ";
  append_i64(out, r.t1 - r.t0);
  out += ",\n  \"serial_ns\": ";
  append_i64(out, r.serial);
  out += ",\n  \"bottleneck_ns\": ";
  append_i64(out, r.bottleneck);
  out += ",\n  \"bottleneck_stage\": \"" +
         gpuddt::obs::json::escape(r.bottleneck_stage) + "\",\n";
  std::snprintf(buf, sizeof(buf), "  \"overlap_efficiency\": %.6f,\n",
                r.efficiency);
  out += buf;
  out += "  \"events\": ";
  append_i64(out, static_cast<std::int64_t>(spans.size()));
  out += ",\n  \"flows\": ";
  append_i64(out, static_cast<std::int64_t>(r.flows));
  out += ",\n  \"head_wait_ns\": ";
  append_i64(out, r.head_wait);
  out += ",\n  \"critical_path\": [";
  bool first = true;
  for (const PathStep& st : r.path) {
    const Span& s = spans[st.idx];
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + gpuddt::obs::json::escape(s.name) +
           "\", \"stage\": \"" + gpuddt::obs::json::escape(stage_key(s)) +
           "\", \"begin_ns\": ";
    append_i64(out, s.begin);
    out += ", \"end_ns\": ";
    append_i64(out, s.end);
    out += ", \"work_ns\": ";
    append_i64(out, st.work);
    out += ", \"wait_ns\": ";
    append_i64(out, st.wait);
    std::snprintf(buf, sizeof(buf), ", \"flow\": %" PRIu64 "}", s.flow);
    out += buf;
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"stage_blame\": {";
  first = true;
  for (const auto& [key, ww] : r.blame) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + gpuddt::obs::json::escape(key) + "\": {\"work_ns\": ";
    append_i64(out, ww.first);
    out += ", \"wait_ns\": ";
    append_i64(out, ww.second);
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

void print_report(const std::vector<Span>& spans, const Report& r) {
  const std::int64_t span = r.t1 - r.t0;
  std::printf("trace: %zu spans, %zu fragment flows\n", spans.size(),
              r.flows);
  std::printf("end-to-end span     %12" PRId64 " ns  [%" PRId64
              " .. %" PRId64 "]\n",
              span, r.t0, r.t1);
  std::printf("serial (no overlap) %12" PRId64 " ns\n", r.serial);
  std::printf("bottleneck stage    %12" PRId64 " ns  (%s)\n", r.bottleneck,
              r.bottleneck_stage.c_str());
  std::printf("overlap efficiency  %15.3f  (achieved/ideal overlap)\n",
              r.efficiency);
  std::printf("\ncritical path (%zu steps, head wait %" PRId64 " ns):\n",
              r.path.size(), r.head_wait);
  std::printf("  %-18s %-20s %12s %12s %12s\n", "span", "stage", "begin_ns",
              "work_ns", "wait_ns");
  for (const PathStep& st : r.path) {
    const Span& s = spans[st.idx];
    std::printf("  %-18s %-20s %12" PRId64 " %12" PRId64 " %12" PRId64 "\n",
                s.name.c_str(), stage_key(s).c_str(), s.begin, st.work,
                st.wait);
  }
  std::printf("\nper-stage blame (path time only):\n");
  std::printf("  %-20s %12s %12s\n", "stage", "work_ns", "wait_ns");
  for (const auto& [key, ww] : r.blame) {
    std::printf("  %-20s %12" PRId64 " %12" PRId64 "\n", key.c_str(),
                ww.first, ww.second);
  }
  // Internal-consistency line the tests pin: the accounting telescopes.
  std::int64_t work = 0, wait = 0;
  for (const PathStep& st : r.path) {
    work += st.work;
    wait += st.wait;
  }
  std::printf("\naccounting: head_wait %" PRId64 " + work %" PRId64
              " + wait %" PRId64 " = span %" PRId64 " ns\n",
              r.head_wait, work, wait, span);
}

}  // namespace

int main(int argc, char** argv) {
  bool json_stdout = false;
  bool check_eff = false;
  std::string json_out;
  std::string file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_stdout = true;
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(std::strlen("--json-out="));
    } else if (arg == "--check-efficiency") {
      check_eff = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "trace_critpath: unknown flag " << arg << "\n";
      return 2;
    } else if (file.empty()) {
      file = arg;
    } else {
      std::cerr << "trace_critpath: more than one input file\n";
      return 2;
    }
  }
  if (file.empty()) {
    std::cerr << "usage: trace_critpath [--json] [--json-out=PATH] "
                 "[--check-efficiency] TRACE.json\n"
                 "TRACE.json: the chrome trace array a bench writes "
                 "with --trace-out=FILE\n";
    return 2;
  }

  try {
    const Value doc = load(file);
    if (!doc.is_array()) {
      std::cerr << file << ": not a chrome trace array (a bench writes "
                << "one with --trace-out=FILE; a --metrics-out document "
                << "holds no trace events)\n";
      return 1;
    }
    std::vector<Span> spans = load_chrome(doc);
    const Report r = analyze(spans);
    const std::string json = to_json(spans, r);
    if (!json_out.empty()) {
      std::ofstream out(json_out, std::ios::binary);
      out << json;
      if (!out) throw std::runtime_error("cannot write " + json_out);
    }
    if (json_stdout) {
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else {
      print_report(spans, r);
    }
    if (check_eff && !(r.efficiency > 0.0 && r.efficiency <= 1.0)) {
      std::cerr << "trace_critpath: overlap efficiency "
                << r.efficiency << " outside (0, 1]\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "trace_critpath: " << e.what() << "\n";
    return 1;
  }
}

#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/json.h"

namespace gpuddt::obs {

void TraceBuffer::record(TraceEvent ev) {
  if (!enabled()) return;
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

namespace {

/// Virtual ns -> Trace Event Format microseconds, fractional to keep the
/// full nanosecond resolution ("%.3f" is exact for int64 nanoseconds).
void append_us(std::string& out, std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000));
  out += buf;
}

void append_int(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

// Chrome row and latency-report key of each Stage, indexed by its value
// (kOther spans row by their category instead).
const std::string kRows[static_cast<int>(Stage::kOther)] = {
    "conv", "H2D desc", "kernel", "wire", "RDMA GET", "unpack"};
constexpr const char* kKeys[kStageCount] = {"conv", "desc",   "kernel", "wire",
                                            "rdma", "unpack", "other"};

/// Row id of `ev`: pipeline stages keep their Stage value, so viewers
/// always stack them in pipeline order; other rows (one per category)
/// number on from kOther by first appearance in `others`.
int row_id(const TraceEvent& ev,
           std::map<std::string, int, std::less<>>& others) {
  if (ev.stage != Stage::kOther) return static_cast<int>(ev.stage);
  const int next = kStageCount - 1 + static_cast<int>(others.size());
  return others.try_emplace(ev.cat, next).first->second;
}

/// The named timeline row `ev` renders on: its pipeline stage's row
/// ("conv", "H2D desc", "kernel", "wire", "RDMA GET", "unpack"), or its
/// category for kOther spans.
const std::string& row_name(const TraceEvent& ev) {
  return ev.stage == Stage::kOther ? ev.cat
                                   : kRows[static_cast<int>(ev.stage)];
}

}  // namespace

const char* stage_key(Stage s) { return kKeys[static_cast<int>(s)]; }

std::string chrome_trace_json(std::vector<TraceEvent> events,
                              std::int64_t dropped) {
  // Sort by begin time so `ts` is monotone non-decreasing - viewers do
  // not require it, but it makes the array diffable and lets shape checks
  // (metrics_diff --validate-chrome) assert ordering.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.begin < b.begin;
                   });

  // Rows by first appearance are deterministic: events are sorted.
  std::map<std::string, int, std::less<>> other_rows;
  // (pid, tid) -> row name, for the thread_name metadata events.
  std::map<std::pair<int, int>, std::string> named_rows;

  // Flow membership after the sort: the k-th member of a flow (in begin
  // order, i.e. virtual-time order) decides its flow phase - "s" for the
  // first, "t" for the middle, "f" for the last. Single-member flows get
  // args.flow but no flow events (an arrow needs two ends).
  std::map<std::uint64_t, std::int64_t> flow_sizes;
  for (const TraceEvent& ev : events)
    if (ev.flow != 0) ++flow_sizes[ev.flow];
  std::map<std::uint64_t, std::int64_t> flow_seen;

  std::string body;
  body.reserve(events.size() * 96);
  std::int64_t last_end = 0;
  for (const TraceEvent& ev : events) {
    const int pid = ev.pid >= 0 ? ev.pid : (ev.tid >= 0 ? ev.tid : 0);
    const int tid = row_id(ev, other_rows);
    named_rows.try_emplace({pid, tid}, row_name(ev));
    last_end = std::max(last_end, ev.end);

    body += ",\n{\"name\": \"" + json::escape(ev.name) + "\", \"cat\": \"" +
            json::escape(ev.cat) + "\", \"ph\": \"X\", \"ts\": ";
    append_us(body, ev.begin);
    body += ", \"dur\": ";
    append_us(body, std::max<std::int64_t>(0, ev.end - ev.begin));
    body += ", \"pid\": ";
    append_int(body, pid);
    body += ", \"tid\": ";
    append_int(body, tid);
    body += ", \"args\": {\"arg0\": ";
    append_int(body, ev.arg0);
    if (ev.flow != 0) {
      body += ", \"flow\": ";
      append_u64(body, ev.flow);
    }
    body += "}}";
    if (ev.flow != 0 && flow_sizes[ev.flow] >= 2) {
      // One flow event right after its span, at the span's begin ts (so
      // the array stays ts-monotone and `bp:"e"` binds it to exactly
      // this slice: same pid/tid, ts inside the span bounds).
      const std::int64_t k = ++flow_seen[ev.flow];
      const char* ph = k == 1 ? "s"
                     : k == flow_sizes[ev.flow] ? "f"
                                                : "t";
      body += ",\n{\"name\": \"frag_flow\", \"cat\": \"flow\", \"ph\": \"";
      body += ph;
      body += "\", \"id\": ";
      append_u64(body, ev.flow);
      body += ", \"ts\": ";
      append_us(body, ev.begin);
      body += ", \"pid\": ";
      append_int(body, pid);
      body += ", \"tid\": ";
      append_int(body, tid);
      if (*ph != 's') body += ", \"bp\": \"e\"";
      body += "}";
    }
  }
  if (dropped > 0) {
    // A truncated timeline must never read as a complete one: flag the
    // buffer-cap overflow as a global instant event at the trace's end.
    body += ",\n{\"name\": \"trace_truncated\", \"cat\": \"obs\", "
            "\"ph\": \"i\", \"ts\": ";
    append_us(body, last_end);
    body += ", \"pid\": 0, \"tid\": 0, \"s\": \"g\", "
            "\"args\": {\"dropped\": ";
    append_int(body, dropped);
    body += "}}";
  }

  // Metadata first: name every rank process and every stage row.
  std::string out = "[";
  bool first = true;
  int last_pid = -1;
  for (const auto& [key, row] : named_rows) {
    const auto [pid, tid] = key;
    if (pid != last_pid) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
      append_int(out, pid);
      out += ", \"tid\": 0, \"args\": {\"name\": \"rank ";
      append_int(out, pid);
      out += "\"}}";
      last_pid = pid;
    }
    out += ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": ";
    append_int(out, pid);
    out += ", \"tid\": ";
    append_int(out, tid);
    out += ", \"args\": {\"name\": \"" + json::escape(row) + "\"}}";
  }
  if (first && !body.empty()) body.erase(0, 1);  // no metadata: drop comma
  out += body;
  out += "\n]\n";
  return out;
}

std::string stage_profile_table(const std::vector<TraceEvent>& events) {
  if (events.empty()) return "";
  // Busy time per (rank, stage row) as interval-union occupancy: spans on
  // one row can overlap when the pipeline keeps several fragments in
  // flight, and merging intervals keeps busy_% a true utilization
  // (<= 100%) instead of "work issued", which trace_critpath already
  // reports as serial/blame time.
  struct Cell {
    std::vector<std::pair<std::int64_t, std::int64_t>> ivals;
    std::int64_t count = 0;
  };
  std::map<std::string, int, std::less<>> other_rows;
  std::map<std::pair<int, std::pair<int, std::string>>, Cell> cells;
  std::int64_t t0 = events.front().begin, t1 = events.front().end;
  for (const TraceEvent& ev : events) {
    const int pid = ev.pid >= 0 ? ev.pid : (ev.tid >= 0 ? ev.tid : 0);
    Cell& c = cells[{pid, {row_id(ev, other_rows), row_name(ev)}}];
    c.ivals.emplace_back(ev.begin, std::max(ev.begin, ev.end));
    ++c.count;
    t0 = std::min(t0, ev.begin);
    t1 = std::max(t1, ev.end);
  }
  const std::int64_t span = std::max<std::int64_t>(1, t1 - t0);

  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "stage utilization over %" PRId64 " virtual ns\n", t1 - t0);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-6s %-12s %14s %8s %8s\n", "rank",
                "stage", "busy_ns", "busy_%", "events");
  out += buf;
  for (auto& [key, c] : cells) {
    std::sort(c.ivals.begin(), c.ivals.end());
    std::int64_t busy = 0, open_b = c.ivals.front().first,
                 open_e = c.ivals.front().second;
    for (const auto& [b, e] : c.ivals) {
      if (b > open_e) {
        busy += open_e - open_b;
        open_b = b;
        open_e = e;
      } else {
        open_e = std::max(open_e, e);
      }
    }
    busy += open_e - open_b;
    std::snprintf(buf, sizeof(buf),
                  "%-6d %-12s %14" PRId64 " %7.2f%% %8" PRId64 "\n",
                  key.first, key.second.second.c_str(), busy,
                  100.0 * static_cast<double>(busy) /
                      static_cast<double>(span),
                  c.count);
    out += buf;
  }
  return out;
}

}  // namespace gpuddt::obs

// Runner of the repository benchmark (perfbench/README.md).
//
//   perfbench_workload --workload engine_pack|host_ring|gpu_mix
//                      [--seed N] [--seconds S] [--trace 0|1]
//
// Repeats episodes of one workload until S host seconds are spent, checks
// that every episode of the seed replays bit for bit, and prints a metric
// table followed, as the last line, by one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 prints the end-to-end metrics. --trace 1 rotates attached,
// detached and traced episodes and prints the per-layer metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"

namespace gpuddt::perfbench {

Tracer* g_tracer = nullptr;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kDatatype: return "mpi.datatype";
    case Layer::kCursor: return "mpi.cursor";
    case Layer::kCpuPack: return "mpi.cpu_pack";
    case Layer::kDev: return "core.dev";
    case Layer::kEngine: return "core.engine";
    case Layer::kDevCache: return "core.dev_cache";
    case Layer::kSimgpu: return "simgpu";
    case Layer::kProtocols: return "protocols";
    case Layer::kPml: return "mpi.pml";
    case Layer::kColl: return "mpi.coll";
    case Layer::kRma: return "rma";
    case Layer::kCheck: return "bench.check";
    case Layer::kCount: break;
  }
  return "?";
}

std::vector<int> balanced_deck(std::mt19937_64& rng, int kinds, int reps) {
  std::vector<int> deck;
  deck.reserve(static_cast<std::size_t>(kinds * reps));
  for (int r = 0; r < reps; ++r) {
    std::vector<int> pass(static_cast<std::size_t>(kinds));
    for (int k = 0; k < kinds; ++k) pass[static_cast<std::size_t>(k)] = k;
    // Fisher-Yates on the raw generator output: the order is a function
    // of the seed alone, independent of the standard library.
    for (std::size_t i = pass.size(); i > 1; --i)
      std::swap(pass[i - 1], pass[rng() % i]);
    deck.insert(deck.end(), pass.begin(), pass.end());
  }
  return deck;
}

void fill_pattern(std::byte* p, std::size_t n, std::uint64_t key) {
  std::uint64_t x = key;
  for (std::size_t i = 0; i < n; i += 8) {
    // splitmix64
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(p + i, &z, std::min<std::size_t>(8, n - i));
  }
}

namespace {

/// Fixed default seed. Claims are re-checked on the held-out seed that
/// README.md names, which no tuning run used.
constexpr std::uint64_t kDefaultSeed = 20160531;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// --- Statistics --------------------------------------------------------------

/// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         (static_cast<double>(v[hi]) - static_cast<double>(v[lo])) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

/// The virtual-time results of an episode: equal for every episode of a
/// seed, whatever is attached or traced.
std::uint64_t vt_digest(const Episode& e) {
  Digest d;
  for (vt::Time t : e.xfer_ns) d.add(static_cast<std::uint64_t>(t));
  d.add(static_cast<std::uint64_t>(e.makespan_ns));
  d.add(e.step_us.size());
  d.add(static_cast<std::uint64_t>(e.attempted));
  return d.h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Trace analysis ----------------------------------------------------------

struct LayerTotals {
  std::int64_t calls = 0;
  std::int64_t busy_ns = 0;
  std::int64_t wait_ns = 0;
  std::int64_t vt_ns = 0;
  std::int64_t bytes = 0;
  std::int64_t failed = 0;
};

struct TraceTotals {
  LayerTotals layer[kLayers];
  std::int64_t host_ns = 0;         // the analysed window
  std::int64_t sched_ns = 0;        // rank context, outside every span
  std::int64_t main_ns = 0;         // main context, outside every span
  std::int64_t unbalanced = 0;      // span ends without a matching begin
};

/// Attribute the host interval [t0, t1] from the event log. All ranks share
/// one host thread, so each interval between two events belongs to the
/// context that emitted the earlier one. Within that context it is the
/// busy time of the innermost open span, or, outside every span, scheduler
/// time (rank contexts) or runner time (main context). A span's wait time
/// is the rest of its duration: the part that other contexts ran while it
/// was open, excluding nested spans.
void analyse(const std::vector<TraceEvent>& events, std::int64_t t0,
             std::int64_t t1, TraceTotals* out) {
  struct Frame {
    Layer layer;
    std::int64_t begin;
    vt::Time vt_begin;
    std::int64_t busy = 0;
    std::int64_t child = 0;
  };
  std::vector<std::vector<Frame>> stacks;  // index ctx + 1
  auto stack_of = [&](std::int32_t ctx) -> std::vector<Frame>& {
    const auto i = static_cast<std::size_t>(ctx + 1);
    if (stacks.size() <= i) stacks.resize(i + 1);
    return stacks[i];
  };
  bool attributed = false;
  std::int32_t cur = kMainCtx;
  std::int64_t prev = t0;
  auto charge = [&](std::int64_t until) {
    const std::int64_t dt = until - prev;
    prev = until;
    if (!attributed) return;  // before the first event: left as remainder
    auto& st = stack_of(cur);
    if (!st.empty()) {
      st.back().busy += dt;
    } else if (cur == kMainCtx) {
      out->main_ns += dt;
    } else {
      out->sched_ns += dt;
    }
  };
  for (const TraceEvent& e : events) {
    charge(e.host_ns);
    attributed = true;
    cur = e.ctx;
    auto& st = stack_of(e.ctx);
    if (e.kind == TraceEvent::Kind::kBegin) {
      st.push_back(Frame{e.layer, e.host_ns, e.vt});
    } else if (e.kind == TraceEvent::Kind::kEnd) {
      if (st.empty() || st.back().layer != e.layer) {
        ++out->unbalanced;
        continue;
      }
      const Frame f = st.back();
      st.pop_back();
      const std::int64_t dur = e.host_ns - f.begin;
      LayerTotals& l = out->layer[static_cast<int>(e.layer)];
      ++l.calls;
      l.busy_ns += f.busy;
      l.wait_ns += dur - f.busy - f.child;
      l.vt_ns += e.vt - f.vt_begin;
      l.bytes += e.bytes;
      l.failed += e.failed ? 1 : 0;
      if (!st.empty()) st.back().child += dur;
    }
  }
  charge(t1);
  for (const auto& st : stacks)
    out->unbalanced += static_cast<std::int64_t>(st.size());
  out->host_ns += t1 - t0;
}

/// Counts a traced episode must repeat exactly across episodes of a seed.
std::uint64_t count_digest(const TraceTotals& t, const Episode& e) {
  Digest d;
  for (const LayerTotals& l : t.layer) {
    d.add(static_cast<std::uint64_t>(l.calls));
    d.add(static_cast<std::uint64_t>(l.bytes));
  }
  d.add(static_cast<std::uint64_t>(e.cursor_pieces));
  d.add(static_cast<std::uint64_t>(e.dev_units));
  d.add(e.cache_hits);
  d.add(e.cache_misses);
  d.add(e.cache_evictions);
  return d.h;
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // clock and sample count, for the table only
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-28s %18.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

using WorkloadFn = Episode (*)(const EpisodeConfig&);

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
};

/// Episodes of one kind (attached / detached / traced) and what they
/// measured; a thrown episode counts as one failed operation.
struct Runs {
  std::vector<Episode> eps;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

bool run_one(WorkloadFn fn, const EpisodeConfig& cfg, Runs* runs,
             Tracer* tracer, TraceTotals* totals) {
  const std::int64_t t0 = host_ns();
  g_tracer = tracer;
  mark(kMainCtx);
  try {
    runs->eps.push_back(fn(cfg));
  } catch (const std::exception& e) {
    g_tracer = nullptr;
    std::fprintf(stderr, "perfbench: episode failed: %s\n", e.what());
    ++runs->attempted;
    ++runs->failed;
    return false;
  }
  mark(kMainCtx);
  g_tracer = nullptr;
  if (tracer != nullptr) analyse(tracer->events, t0, host_ns(), totals);
  const Episode& ep = runs->eps.back();
  runs->attempted += ep.attempted;
  runs->failed += ep.failed;
  return true;
}

/// Counts episodes whose virtual-time results differ from the first
/// episode's (of any kind): a determinism failure, never noise.
std::int64_t vt_mismatches(const std::vector<const Runs*>& all,
                           std::uint64_t* ref) {
  std::int64_t bad = 0;
  bool have = false;
  for (const Runs* r : all) {
    for (const Episode& e : r->eps) {
      const std::uint64_t d = vt_digest(e);
      if (!have) {
        *ref = d;
        have = true;
      } else if (d != *ref) {
        ++bad;
      }
    }
  }
  if (bad > 0)
    std::fprintf(stderr,
                 "perfbench: %lld episode(s) broke virtual-time determinism\n",
                 static_cast<long long>(bad));
  return bad;
}

/// Host time of each step of an episode, best of the run's episodes. Every
/// episode replays the same steps, and on a shared machine other tenants
/// only ever add time, so the fastest sample of a step is its undisturbed
/// cost.
std::vector<double> best_steps(const Runs& r) {
  std::vector<double> best;
  for (const Episode& e : r.eps) {
    if (best.empty()) best = e.step_us;
    for (std::size_t k = 0; k < best.size() && k < e.step_us.size(); ++k)
      best[k] = std::min(best[k], e.step_us[k]);
  }
  return best;
}

/// Steps per host second at the best-of-run step times.
double step_rate(const std::vector<double>& best) {
  const double us = sum(best);
  return us > 0 ? static_cast<double>(best.size()) * 1e6 / us : 0.0;
}

std::string count_note(const char* clock, std::size_t n) {
  return std::string(clock) + ", n=" + std::to_string(n);
}

int run_end_to_end(WorkloadFn fn, const Args& a) {
  Runs runs;
  EpisodeConfig cfg;
  cfg.seed = a.seed;
  const std::int64_t t0 = host_ns();
  do {
    if (!run_one(fn, cfg, &runs, nullptr, nullptr)) break;
  } while (static_cast<double>(host_ns() - t0) * 1e-9 < a.seconds);

  std::uint64_t ref = 0;
  const std::int64_t det_bad = vt_mismatches({&runs}, &ref);
  const std::int64_t attempted = runs.attempted + det_bad;
  const std::int64_t failed = runs.failed + det_bad;

  std::vector<double> setups;
  for (const Episode& e : runs.eps) setups.push_back(e.setup_s);
  const std::vector<double> best = best_steps(runs);
  std::vector<vt::Time> xfer;
  vt::Time makespan = 0;
  if (!runs.eps.empty()) {
    xfer = runs.eps.front().xfer_ns;
    makespan = runs.eps.front().makespan_ns;
  }
  std::printf("# episodes=%zu vt_digest=%016llx\n", runs.eps.size(),
              static_cast<unsigned long long>(ref));
  const std::string best_note =
      "host, n=" + std::to_string(best.size()) + " steps, best of " +
      std::to_string(runs.eps.size()) + " episodes";
  const std::vector<Metric> metrics = {
      {"steps_per_s", step_rate(best), "1/s", best_note},
      {"host_step_us_p50", quantile(best, 0.5), "us", best_note},
      {"host_step_us_p90", quantile(best, 0.9), "us", best_note},
      {"vt_xfer_us_p50", quantile(xfer, 0.5) / 1e3, "us",
       count_note("virtual", xfer.size())},
      {"vt_xfer_us_p99", quantile(xfer, 0.99) / 1e3, "us",
       count_note("virtual", xfer.size())},
      {"vt_makespan_ms", static_cast<double>(makespan) / 1e6, "ms",
       "virtual"},
      {"setup_s", median(setups), "s",
       count_note("host, median of episodes", setups.size())},
      {"peak_rss_mb", peak_rss_mib(), "MiB", "host"},
  };
  std::printf("%-28s %18.6f %-6s attempted=%lld failed=%lld\n", "failed_frac",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              "ratio", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  print_result(failed == 0 && !runs.eps.empty(),
               std::max<std::int64_t>(attempted, 1), failed, metrics);
  return 0;
}

int run_traced(WorkloadFn fn, const Args& a) {
  Runs attached, detached, traced;
  TraceTotals tt;
  std::vector<std::uint64_t> counts;
  const std::int64_t t0 = host_ns();
  for (int i = 0;; ++i) {
    if (i >= 3 && static_cast<double>(host_ns() - t0) * 1e-9 >= a.seconds)
      break;
    EpisodeConfig cfg;
    cfg.seed = a.seed;
    bool ok = true;
    if (i % 3 == 0) {
      ok = run_one(fn, cfg, &attached, nullptr, nullptr);
    } else if (i % 3 == 1) {
      cfg.attach_recorder = false;
      ok = run_one(fn, cfg, &detached, nullptr, nullptr);
    } else {
      cfg.traced = true;
      Tracer tracer;
      TraceTotals one;
      ok = run_one(fn, cfg, &traced, &tracer, &one);
      if (ok) {
        counts.push_back(count_digest(one, traced.eps.back()));
        for (int l = 0; l < kLayers; ++l) {
          tt.layer[l].calls += one.layer[l].calls;
          tt.layer[l].busy_ns += one.layer[l].busy_ns;
          tt.layer[l].wait_ns += one.layer[l].wait_ns;
          tt.layer[l].vt_ns += one.layer[l].vt_ns;
          tt.layer[l].bytes += one.layer[l].bytes;
          tt.layer[l].failed += one.layer[l].failed;
        }
        tt.host_ns += one.host_ns;
        tt.sched_ns += one.sched_ns;
        tt.main_ns += one.main_ns;
        tt.unbalanced += one.unbalanced;
      }
    }
    if (!ok) break;
  }

  std::uint64_t ref = 0;
  std::int64_t det_bad = vt_mismatches({&attached, &detached, &traced}, &ref);
  for (std::uint64_t c : counts) det_bad += c != counts.front() ? 1 : 0;
  det_bad += tt.unbalanced > 0 ? 1 : 0;
  std::int64_t layer_failed = 0;
  for (const LayerTotals& l : tt.layer) layer_failed += l.failed;
  const std::int64_t attempted =
      attached.attempted + detached.attempted + traced.attempted + det_bad;
  const std::int64_t failed = attached.failed + detached.failed +
                              traced.failed + det_bad + layer_failed;

  // Per-layer values are per traced episode.
  const double n = std::max<std::size_t>(traced.eps.size(), 1);
  auto per = [&](double v) { return v / n; };
  auto ms = [&](std::int64_t ns) { return per(static_cast<double>(ns) / 1e6); };
  const Episode none;
  const Episode& first = traced.eps.empty() ? none : traced.eps.front();

  std::printf("# traced=%zu attached=%zu detached=%zu vt_digest=%016llx\n",
              traced.eps.size(), attached.eps.size(), detached.eps.size(),
              static_cast<unsigned long long>(ref));
  std::printf("# %-16s %10s %12s %12s %12s %14s %6s\n", "layer", "calls",
              "busy_ms", "wait_ms", "vt_ms", "bytes", "failed");
  std::int64_t busy_total = 0;
  for (int l = 0; l < kLayers; ++l) {
    const LayerTotals& t = tt.layer[l];
    busy_total += t.busy_ns;
    std::printf("# %-16s %10.0f %12.3f %12.3f %12.3f %14.0f %6lld\n",
                layer_name(static_cast<Layer>(l)), per(t.calls),
                ms(t.busy_ns), ms(t.wait_ns), ms(t.vt_ns), per(t.bytes),
                static_cast<long long>(t.failed));
  }
  std::printf(
      "# accounting per traced episode: host %.3f ms = busy %.3f + "
      "vtime.sched %.3f + main %.3f + remainder %.3f ms\n",
      ms(tt.host_ns), ms(busy_total), ms(tt.sched_ns), ms(tt.main_ns),
      ms(tt.host_ns - busy_total - tt.sched_ns - tt.main_ns));

  auto layer = [&](Layer l) -> const LayerTotals& {
    return tt.layer[static_cast<int>(l)];
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // Host-time ratios, each printed with its bases: step rates at the
  // best-of-kind step times, so a ratio of rates is an inverse ratio of
  // host times.
  const std::vector<double> att_best = best_steps(attached);
  const double att_rate = step_rate(att_best);
  const double det_rate = step_rate(best_steps(detached));
  const double trc_rate = step_rate(best_steps(traced));
  const double attached_overhead = ratio(det_rate, att_rate);
  const double trace_overhead = ratio(att_rate, trc_rate);
  std::printf("# obs.attached_overhead = %.3f steps/s detached / %.3f steps/s "
              "attached (best of %zu / %zu episodes)\n",
              det_rate, att_rate, detached.eps.size(), attached.eps.size());
  std::printf("# trace.overhead = %.3f steps/s untraced / %.3f steps/s traced "
              "(best of %zu / %zu episodes)\n",
              att_rate, trc_rate, attached.eps.size(), traced.eps.size());
  const double vns_per_wall_s =
      ratio(static_cast<double>(first.makespan_ns) * 1e6, sum(att_best));
  const std::uint64_t lookups = first.cache_hits + first.cache_misses;

  std::vector<Metric> m;
  auto add_layer = [&](Layer l, bool wait, bool vt, bool bytes) {
    const LayerTotals& t = layer(l);
    const std::string p = layer_name(l);
    m.push_back({p + ".calls", per(t.calls), "count", "traced"});
    m.push_back({p + ".busy_ms", ms(t.busy_ns), "ms", "host, traced"});
    if (wait)
      m.push_back({p + ".wait_ms", ms(t.wait_ns), "ms", "host, traced"});
    if (vt) m.push_back({p + ".vt_ms", ms(t.vt_ns), "ms", "virtual"});
    if (bytes) m.push_back({p + ".bytes", per(t.bytes), "count", "traced"});
  };
  add_layer(Layer::kDatatype, false, false, false);
  add_layer(Layer::kCursor, false, false, false);
  m.push_back({"mpi.cursor.pieces", static_cast<double>(first.cursor_pieces),
               "count", "probe"});
  m.push_back({"mpi.cursor.ns_per_piece",
               ratio(per(layer(Layer::kCursor).busy_ns),
                     static_cast<double>(first.cursor_pieces)),
               "ns", "host, probe"});
  add_layer(Layer::kCpuPack, false, false, true);
  add_layer(Layer::kDev, false, false, false);
  m.push_back({"core.dev.units", static_cast<double>(first.dev_units),
               "count", "probe"});
  add_layer(Layer::kEngine, false, true, true);
  m.push_back({"core.engine.ns_per_kib",
               ratio(per(layer(Layer::kEngine).busy_ns),
                     per(layer(Layer::kEngine).bytes) / 1024.0),
               "ns", "host, traced"});
  m.push_back({"core.dev_cache.calls", per(layer(Layer::kDevCache).calls),
               "count", "traced"});
  m.push_back({"core.dev_cache.hit_ratio",
               ratio(static_cast<double>(first.cache_hits),
                     static_cast<double>(lookups)),
               "ratio", "traced"});
  m.push_back({"core.dev_cache.misses", static_cast<double>(first.cache_misses),
               "count", "traced"});
  m.push_back({"core.dev_cache.evictions",
               static_cast<double>(first.cache_evictions), "count", "traced"});
  add_layer(Layer::kSimgpu, false, true, true);
  // Plugin calls run inside PML progress and never block, so protocols
  // has no wait time.
  add_layer(Layer::kProtocols, false, true, false);
  add_layer(Layer::kPml, true, true, true);
  add_layer(Layer::kColl, true, true, false);
  add_layer(Layer::kRma, true, true, false);
  m.push_back({"vtime.sched_ms", ms(tt.sched_ns), "ms", "host, traced"});
  m.push_back({"vtime.vns_per_wall_s", vns_per_wall_s, "1/s",
               "virtual ns per host s, attached, best steps"});
  m.push_back({"obs.attached_overhead", attached_overhead, "ratio",
               "host, attached/detached"});
  m.push_back({"trace.overhead", trace_overhead, "ratio",
               "host, untraced/traced steps_per_s"});
  m.push_back({"trace.remainder_ms",
               ms(tt.host_ns - busy_total - tt.sched_ns - tt.main_ns), "ms",
               "host, traced"});
  print_result(failed == 0 && !traced.eps.empty(),
               std::max<std::int64_t>(attempted, 1), failed, m);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload engine_pack|host_ring|"
               "gpu_mix [--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) return usage();
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return usage();
      a.trace = v[0] == '1';
    } else {
      return usage();
    }
  }
  // These variables select behaviour that the ROADMAP retires; a run under
  // any of them would not measure the configuration the benchmark defines.
  for (const char* var : {"GPUDDT_SIM_BACKEND", "GPUDDT_CHECK", "GPUDDT_VERIFY",
                          "GPUDDT_STREAM_TRIGGERED"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  // Pin glibc's allocation thresholds. By default they adapt to the
  // process's own history (freeing an mmapped block raises the mmap
  // threshold), so the same episode would fault fresh pages in on some
  // runs and reuse heap pages on others.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  WorkloadFn fn = nullptr;
  if (a.workload == "engine_pack") fn = run_engine_pack;
  if (a.workload == "host_ring") fn = run_host_ring;
  if (a.workload == "gpu_mix") fn = run_gpu_mix;
  if (fn == nullptr) return usage();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "build=%s cores=%u\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());
  return a.trace ? run_traced(fn, a) : run_end_to_end(fn, a);
}

}  // namespace
}  // namespace gpuddt::perfbench

int main(int argc, char** argv) { return gpuddt::perfbench::run(argc, argv); }

// Tests for the observability layer (src/obs): metrics registry,
// histograms, trace buffer, JSON writer/parser, and the end-to-end dump
// that --metrics-out produces.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/canon.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace gpuddt::obs {
namespace {

TEST(Counter, AccumulatesAtomically) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Registry, SameNameReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("x");
  a.add(7);
  EXPECT_EQ(reg.counter("x").value(), 7);
  EXPECT_EQ(&reg.counter("x"), &a);
  EXPECT_NE(&reg.counter("y"), &a);
  EXPECT_EQ(&reg.histogram("h"), &reg.histogram("h"));
}

TEST(Histogram, TracksMomentsAndQuantiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.sum, 5050);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  // Log2 buckets: quantiles land on bucket upper bounds, so p50 of
  // 1..100 is somewhere in [32, 127] and p99 at or above 64.
  EXPECT_GE(s.quantile(0.5), 32.0);
  EXPECT_LE(s.quantile(0.5), 127.0);
  EXPECT_GE(s.quantile(0.99), 64.0);
}

TEST(Histogram, NearestRankHelperMatchesDefinition) {
  // rank = ceil(q * count), clamped to [1, count]: the exact nearest-rank
  // definition FlowStats uses for its percentiles (docs/latency.md).
  EXPECT_EQ(nearest_rank(0.5, 100), 50);
  EXPECT_EQ(nearest_rank(0.99, 100), 99);
  EXPECT_EQ(nearest_rank(0.999, 100), 100);
  EXPECT_EQ(nearest_rank(0.999, 10000), 9990);
  EXPECT_EQ(nearest_rank(0.0, 10), 1);   // clamped up
  EXPECT_EQ(nearest_rank(1.0, 10), 10);
  EXPECT_EQ(nearest_rank(0.5, 1), 1);
  EXPECT_EQ(nearest_rank(0.5, 0), 0);    // empty distribution
}

TEST(Histogram, QuantileNearestRankIsExactAndDeterministic) {
  // Unlike quantile() (approximate, frozen into the historic baselines),
  // quantile_nearest_rank answers with the log2 bucket bound of the
  // exact nearest-rank sample, clamped into [min, max] - repeat calls
  // are bit-identical and a quantile can never leave the observed range.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(10);   // bucket hi 15
  for (int i = 0; i < 9; ++i) h.record(100);   // bucket hi 127
  h.record(5000);                              // bucket hi 8191
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.quantile_nearest_rank(0.5), 15);    // rank 50: a 10
  EXPECT_EQ(s.quantile_nearest_rank(0.90), 15);   // rank 90: still a 10
  EXPECT_EQ(s.quantile_nearest_rank(0.99), 127);  // rank 99: a 100
  EXPECT_EQ(s.quantile_nearest_rank(0.999), 5000);  // rank 100: the max
  EXPECT_EQ(s.quantile_nearest_rank(1.0), 5000);
}

TEST(Histogram, QuantileNearestRankSingleValueIsExact) {
  Histogram h;
  h.record(42);
  const auto s = h.snapshot();
  EXPECT_EQ(s.quantile_nearest_rank(0.5), 42);
  EXPECT_EQ(s.quantile_nearest_rank(0.999), 42);
  EXPECT_EQ(Histogram().snapshot().quantile_nearest_rank(0.5), 0);
}

TEST(Histogram, EmptySnapshotIsInert) {
  Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(TraceBuffer, DisabledByDefaultAndBounded) {
  TraceBuffer buf(4);
  buf.record({"e", "c", 0, 1, 0, 0});
  EXPECT_EQ(buf.snapshot().size(), 0u);  // tracing off: no-op
  buf.enable(true);
  for (int i = 0; i < 6; ++i)
    buf.record({"e", "c", i, i + 1, 0, 0});
  EXPECT_EQ(buf.snapshot().size(), 4u);
  EXPECT_EQ(buf.dropped(), 2);
}

TEST(Json, ParsesNestedDocument) {
  const auto v = json::parse(
      R"({"a": [1, 2.5, -3], "s": "hi\nthere", "t": true, "n": null,)"
      R"( "o": {"k": 7}})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_double(), 2.5);
  EXPECT_EQ(v.at("a").as_array()[2].as_int(), -3);
  EXPECT_EQ(v.at("s").as_string(), "hi\nthere");
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_EQ(v.at("n").kind(), json::Value::Kind::kNull);
  EXPECT_EQ(v.at("o").at("k").as_int(), 7);
  EXPECT_TRUE(v.contains("o"));
  EXPECT_FALSE(v.contains("missing"));
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(json::parse("tru"), std::runtime_error);
  EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const auto v = json::parse("\"" + json::escape(nasty) + "\"");
  EXPECT_EQ(v.as_string(), nasty);
}

TEST(Recorder, ToJsonRoundTrips) {
  Recorder rec;
  rec.metrics().counter("engine.pack.bytes.dev").add(4096);
  rec.metrics().counter("dev_cache.hits").add(3);
  for (int i = 0; i < 10; ++i)
    rec.metrics().histogram("pml.rts_to_cts_ns").record(1000 + i);

  const auto doc = json::parse(rec.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "gpuddt-metrics-v1");
  EXPECT_EQ(doc.at("counters").at("engine.pack.bytes.dev").as_int(), 4096);
  EXPECT_EQ(doc.at("counters").at("dev_cache.hits").as_int(), 3);
  const auto& h = doc.at("histograms").at("pml.rts_to_cts_ns");
  EXPECT_EQ(h.at("count").as_int(), 10);
  EXPECT_EQ(h.at("min").as_int(), 1000);
  EXPECT_EQ(h.at("max").as_int(), 1009);
  EXPECT_GT(h.at("mean").as_double(), 999.0);
}

TEST(Recorder, WriteJsonProducesParsableFile) {
  Recorder rec;
  rec.metrics().counter("a.b").add(1);
  rec.metrics().histogram("c.d").record(5);
  const std::string path =
      ::testing::TempDir() + "/gpuddt_metrics_test.json";
  ASSERT_TRUE(rec.write_json(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = json::parse(ss.str());
  EXPECT_EQ(doc.at("schema").as_string(), "gpuddt-metrics-v1");
  EXPECT_EQ(doc.at("counters").at("a.b").as_int(), 1);
  EXPECT_EQ(doc.at("histograms").at("c.d").at("count").as_int(), 1);
  std::remove(path.c_str());
}

TEST(Recorder, ClearDropsEverything) {
  Recorder rec;
  rec.metrics().counter("x").add(9);
  rec.metrics().histogram("y").record(2);
  rec.clear();
  const auto doc = json::parse(rec.to_json());
  EXPECT_TRUE(doc.at("counters").as_object().empty());
  EXPECT_TRUE(doc.at("histograms").as_object().empty());
}

TEST(Canon, DropsTraceAndInstrumentationMetrics) {
  Recorder rec;
  rec.enable_tracing(true);
  rec.metrics().counter("pml.frags").add(7);
  rec.metrics().counter("check.hazards").add(3);  // checker-only metric
  rec.metrics().histogram("check.lat").record(1);
  trace(&rec, {"ev", "cat", 0, 10, 0, 0});
  const std::string text = canonical_metrics(json::parse(rec.to_json()));
  EXPECT_NE(text.find("\"pml.frags\": 7"), std::string::npos);
  EXPECT_EQ(text.find("check."), std::string::npos);
  EXPECT_EQ(text.find("trace"), std::string::npos);
  EXPECT_EQ(text.find("ev"), std::string::npos);
}

TEST(Canon, IsInvariantToTraceAndCheckerState) {
  // The determinism harness compares a run with the checker/tracing off
  // against a run with them on; the canonical text must not move.
  Recorder plain;
  plain.metrics().counter("engine.bytes").add(4096);
  plain.metrics().histogram("lat").record(250);
  Recorder instrumented;
  instrumented.enable_tracing(true);
  instrumented.metrics().counter("engine.bytes").add(4096);
  instrumented.metrics().histogram("lat").record(250);
  instrumented.metrics().counter("check.ops").add(12);
  trace(&instrumented, {"op", "engine", 0, 5, 1, 0});
  EXPECT_EQ(canonical_metrics(json::parse(plain.to_json())),
            canonical_metrics(json::parse(instrumented.to_json())));
}

TEST(Canon, RejectsForeignDocuments) {
  EXPECT_THROW(canonical_metrics(json::parse("{\"schema\": \"other\"}")),
               std::runtime_error);
  EXPECT_THROW(
      canonical_metrics(json::parse(
          "{\"schema\": \"gpuddt-metrics-v1\", \"counters\": {}}")),
      std::runtime_error);
}

TEST(Canon, StableNumberFormatting) {
  // Integers (counter values, histogram fields) must round-trip through
  // the double-typed parser without drifting into exponent notation.
  const auto doc = json::parse(
      "{\"schema\": \"gpuddt-metrics-v1\","
      " \"counters\": {\"big\": 9007199254740991, \"neg\": -12},"
      " \"histograms\": {\"h\": {\"count\": 2, \"mean\": 1.5}}}");
  const std::string text = canonical_metrics(doc);
  EXPECT_NE(text.find("\"big\": 9007199254740991"), std::string::npos);
  EXPECT_NE(text.find("\"neg\": -12"), std::string::npos);
  EXPECT_NE(text.find("\"mean\":1.5"), std::string::npos);
}

TEST(ChromeTrace, RoundTripsThroughParser) {
  // A recorded op must export as a parseable Chrome Trace Event Format
  // array: ph:"X" complete events with monotone ts, non-negative dur,
  // the rank as pid, and named stage rows (docs/tracing.md).
  Recorder rec;
  rec.enable_tracing();
  // Deliberately out of order and with a negative-duration input event:
  // the exporter must sort and clamp.
  trace(&rec, {"convert_chunk", "engine", 3000, 5000, 0, 64, 1});
  trace(&rec, {"dev_kernel", "engine", 1000, 500, 0, 32, 1});
  trace(&rec, {"frag", "pml", 2000, 2000, 0, 4096, 0});
  trace(&rec, {"put", "rma", 500, 9000, 1, 1 << 20, 1});
  const json::Value doc = json::parse(rec.to_chrome_json());
  ASSERT_TRUE(doc.is_array());
  std::int64_t last_ts = -1;
  int complete = 0;
  for (const json::Value& ev : doc.as_array()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph != "X") continue;
    ++complete;
    EXPECT_GE(ev.at("ts").as_double(), static_cast<double>(last_ts));
    last_ts = ev.at("ts").as_int();
    EXPECT_GE(ev.at("dur").as_double(), 0.0);
    EXPECT_GE(ev.at("pid").as_int(), 0);
  }
  EXPECT_EQ(complete, 4);
  // ts/dur are microseconds with the nanosecond clock preserved as the
  // fractional part: 500ns -> 0.5us.
  const std::string text = rec.to_chrome_json();
  EXPECT_NE(text.find("\"ts\": 0.500"), std::string::npos);
  // Rank as pid: the engine events carried pid=1 even though their tid
  // field holds the device.
  bool engine_on_pid1 = false;
  for (const json::Value& ev : doc.as_array())
    if (ev.at("ph").as_string() == "X" &&
        ev.at("cat").as_string() == "engine" && ev.at("pid").as_int() == 1)
      engine_on_pid1 = true;
  EXPECT_TRUE(engine_on_pid1);
}

TEST(ChromeTrace, NamesStageRowsAndProcesses) {
  Recorder rec;
  rec.enable_tracing();
  trace(&rec, {"convert_chunk", "engine", 0, 10, 0, 1, 0, 0, Stage::kConv});
  trace(&rec, {"rdma_frag", "gpu", 5, 20, 1, 1, 1, 0, Stage::kRdma});
  const json::Value doc = json::parse(rec.to_chrome_json());
  bool saw_conv = false, saw_rdma = false, saw_proc = false;
  for (const json::Value& ev : doc.as_array()) {
    if (ev.at("ph").as_string() != "M") continue;
    const std::string& name = ev.at("name").as_string();
    const std::string& arg = ev.at("args").at("name").as_string();
    if (name == "thread_name" && arg == "conv") saw_conv = true;
    if (name == "thread_name" && arg == "RDMA GET") saw_rdma = true;
    if (name == "process_name" && arg == "rank 1") saw_proc = true;
  }
  EXPECT_TRUE(saw_conv);
  EXPECT_TRUE(saw_rdma);
  EXPECT_TRUE(saw_proc);
}

TEST(ChromeTrace, FlowEventsChainFragmentsAcrossRanks) {
  // Three spans sharing one fragment flow id (sender kernel -> receiver
  // RDMA GET -> receiver unpack) must export as args.flow on each X
  // event plus an s -> t -> f flow-event chain with the shared id, each
  // bound at its span's begin; a flow with a single member gets args.flow
  // but NO flow events (there is nothing to draw an arrow to), and a span
  // with flow 0 gets neither.
  Recorder rec;
  rec.enable_tracing();
  const std::uint64_t flow = (1ull << 40) | (7ull << 20) | 3ull;
  trace(&rec, {"dev_kernel", "engine", 100, 200, 0, 64, 0, flow,
               Stage::kKernel});
  trace(&rec, {"rdma_frag", "gpu", 250, 400, 1, 64, 1, flow, Stage::kRdma});
  trace(&rec, {"host_frag_unpack", "gpu", 450, 500, 1, 64, 1, flow,
               Stage::kUnpack});
  trace(&rec, {"dev_kernel", "engine", 600, 700, 0, 64, 0, 42,
               Stage::kKernel});
  trace(&rec, {"frag", "pml", 800, 900, 1, 64, 1, 0, Stage::kWire});
  const json::Value doc = json::parse(rec.to_chrome_json());
  int args_flow = 0;
  std::vector<std::string> phases;
  for (const json::Value& ev : doc.as_array()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "X" && ev.at("args").contains("flow")) ++args_flow;
    if (ph != "s" && ph != "t" && ph != "f") continue;
    phases.push_back(ph);
    EXPECT_EQ(ev.at("name").as_string(), "frag_flow");
    EXPECT_EQ(static_cast<std::uint64_t>(ev.at("id").as_double()), flow);
    // Bind points ride the owning span's begin (keeps ts monotone).
    if (ph == "s") {
      EXPECT_EQ(ev.at("ts").as_double(), 0.100);
      EXPECT_EQ(ev.at("pid").as_int(), 0);
      EXPECT_FALSE(ev.contains("bp"));
    } else {
      EXPECT_EQ(ev.at("pid").as_int(), 1);
      EXPECT_EQ(ev.at("bp").as_string(), "e");
    }
  }
  EXPECT_EQ(args_flow, 4);  // every flow-carrying X, single-member too
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0], "s");
  EXPECT_EQ(phases[1], "t");
  EXPECT_EQ(phases[2], "f");
}

TEST(StageProfile, TableUsesIntervalUnionOccupancy) {
  // Two overlapping kernels on one rank occupy [0, 150) - the union, not
  // the 200ns duration sum - so busy_% stays a true utilization.
  std::vector<TraceEvent> events;
  events.push_back({"dev_kernel", "engine", 0, 100, 0, 1, 0, 0,
                    Stage::kKernel});
  events.push_back({"dev_kernel", "engine", 50, 150, 0, 1, 0, 0,
                    Stage::kKernel});
  events.push_back({"frag", "pml", 100, 200, 1, 1, 1, 0, Stage::kWire});
  const std::string table = stage_profile_table(events);
  EXPECT_NE(table.find("stage utilization over 200 virtual ns"),
            std::string::npos);
  EXPECT_NE(table.find("kernel"), std::string::npos);
  EXPECT_NE(table.find("150"), std::string::npos);   // union, not 200
  EXPECT_NE(table.find("75.00%"), std::string::npos);  // 150 / 200
  EXPECT_NE(table.find("wire"), std::string::npos);
  EXPECT_NE(table.find("50.00%"), std::string::npos);  // 100 / 200
  EXPECT_TRUE(stage_profile_table({}).empty());
}

TEST(ChromeTrace, EmptyAndTruncatedBuffers) {
  Recorder rec;
  const json::Value empty = json::parse(rec.to_chrome_json());
  ASSERT_TRUE(empty.is_array());
  EXPECT_TRUE(empty.as_array().empty());
  // A full buffer must flag the truncation as an instant event.
  TraceBuffer tiny(/*max_events=*/1);
  tiny.enable();
  tiny.record({"a", "c", 0, 1, 0, 0});
  tiny.record({"b", "c", 1, 2, 0, 0});
  const json::Value doc =
      json::parse(chrome_trace_json(tiny.snapshot(), tiny.dropped()));
  bool truncated = false;
  for (const json::Value& ev : doc.as_array())
    if (ev.at("ph").as_string() == "i" &&
        ev.at("name").as_string() == "trace_truncated" &&
        ev.at("args").at("dropped").as_int() == 1)
      truncated = true;
  EXPECT_TRUE(truncated);
}

TEST(ChromeTrace, WriteChromeJsonProducesParsableFile) {
  Recorder rec;
  rec.enable_tracing();
  trace(&rec, {"put", "shmem", 100, 200, 0, 64, 0});
  const std::string path = "chrome_trace_test.json";
  ASSERT_TRUE(rec.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::parse(ss.str());
  ASSERT_TRUE(doc.is_array());
  std::remove(path.c_str());
}

TEST(Recorder, GuardedHelpersIgnoreNull) {
  // The instrumentation sites pass nullable pointers; null must be a
  // silent no-op (production default).
  count(nullptr, "anything", 5);
  observe(nullptr, "anything", 5);
  trace(nullptr, {"e", "c", 0, 1, 0, 0});
  Recorder rec;
  count(&rec, "c", 2);
  observe(&rec, "h", 3);
  EXPECT_EQ(rec.metrics().counter("c").value(), 2);
  EXPECT_EQ(rec.metrics().histogram("h").snapshot().count, 1);
}

}  // namespace
}  // namespace gpuddt::obs

// Tests for the streaming per-flow latency engine (src/obs/flowstats.h):
// span-to-flow assembly, multi-participant collective finalization, the
// flow-lifecycle leak rules (open flows and flow-less completions count
// as flowstats.dropped, never as percentiles), late-span accounting, the
// distinct-value cap, generation fences, and canonical-JSON idempotence
// of the gpuddt-latency-v1 serialization.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "mpi/pml.h"
#include "obs/canon.h"
#include "obs/flowstats.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace gpuddt::obs {
namespace {

TraceEvent span(const char* name, const char* cat, std::int64_t begin,
                std::int64_t end, std::uint64_t flow) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.begin = begin;
  ev.end = end;
  ev.tid = 0;
  ev.flow = flow;
  return ev;
}

int stage_of(const char* short_name) {
  for (int i = 0; i < obs::kStageCount; ++i)
    if (std::string(FlowStats::stage_name(i)) == short_name) return i;
  ADD_FAILURE() << "no stage named " << short_name;
  return -1;
}

TEST(FlowStats, AssemblesFragmentSpansIntoOneLogicalFlow) {
  Registry reg;
  FlowStats fs(&reg);
  fs.enable(true);
  // Two fragments of one rendezvous send share the logical flow (upper
  // 44 bits of frag_flow); their spans union per stage.
  const std::uint64_t f0 = mpi::frag_flow(0, 1, 0);
  const std::uint64_t f1 = mpi::frag_flow(0, 1, 1);
  fs.on_span(span("dev_kernel", "engine", 100, 200, f0));
  fs.on_span(span("frag", "pml", 200, 300, f0));
  fs.on_span(span("dev_kernel", "engine", 250, 350, f1));
  fs.on_span(span("frag", "pml", 350, 450, f1));
  fs.complete({f0, "send", 0xabcu, 4096, -1, -1, 1});

  const FlowStats::Report rep = fs.report();
  EXPECT_EQ(rep.spans, 4);
  EXPECT_EQ(rep.flows, 1);
  EXPECT_EQ(rep.dropped, 0);
  ASSERT_EQ(rep.classes.size(), 1u);
  const auto& [key, cls] = *rep.classes.begin();
  // Class key: kind / shape digest / log2 size bucket.
  EXPECT_EQ(key.rfind("send/0000000000000abc/b", 0), 0u) << key;
  EXPECT_EQ(cls.count, 1);
  EXPECT_EQ(cls.bytes, 4096);
  // Window derived from the spans: 100..450.
  EXPECT_EQ(cls.p50, 350);
  EXPECT_EQ(cls.p99, 350);
  EXPECT_EQ(cls.max, 350);
  const int kernel = stage_of("kernel");
  const int wire = stage_of("wire");
  // Interval unions: kernel [100,200]+[250,350], wire [200,300]+[350,450].
  EXPECT_EQ(cls.work[kernel], 200);
  EXPECT_EQ(cls.work[wire], 200);
  EXPECT_EQ(cls.wait[kernel], 150);
  EXPECT_EQ(cls.wait[wire], 150);
  EXPECT_EQ(cls.stage_flows[kernel], 1);
  // One flow at p99: tail attribution picks its biggest stage (tied
  // kernel/wire resolve to the earlier pipeline stage).
  EXPECT_EQ(cls.tail_count, 1);
  EXPECT_EQ(cls.tail_threshold, 350);
  EXPECT_EQ(cls.tail_dominant, kernel);
}

TEST(FlowStats, OverlappingSpansUnionNotSum) {
  Registry reg;
  FlowStats fs(&reg);
  fs.enable(true);
  const std::uint64_t f = mpi::frag_flow(1, 9, 0);
  fs.on_span(span("dev_kernel", "engine", 0, 100, f));
  fs.on_span(span("dev_kernel", "engine", 50, 150, f));
  fs.complete({f, "pack", 0, 64, -1, -1, 1});
  const auto rep = fs.report();
  const auto& cls = rep.classes.begin()->second;
  EXPECT_EQ(cls.work[stage_of("kernel")], 150);  // union, not 200
  EXPECT_EQ(cls.max, 150);
}

TEST(FlowStats, CollectiveFinalizesWhenAllParticipantsComplete) {
  Registry reg;
  FlowStats fs(&reg);
  fs.enable(true);
  const std::uint64_t f = mpi::coll_flow(3, 1);
  fs.complete({f, "coll.bcast", 0x11u, 100, 1000, 2000, 3});
  fs.complete({f, "coll.bcast", 0x11u, 100, 1100, 2500, 3});
  EXPECT_EQ(fs.report().flows, 0);  // still open: 2 of 3 completions
  fs.complete({f, "coll.bcast", 0x11u, 100, 900, 2200, 3});
  const auto rep = fs.report();
  EXPECT_EQ(rep.flows, 1);
  ASSERT_EQ(rep.classes.size(), 1u);
  const auto& cls = rep.classes.begin()->second;
  // End-to-end window: earliest begin (900) to latest end (2500); bytes
  // accumulate across members.
  EXPECT_EQ(cls.max, 1600);
  EXPECT_EQ(cls.bytes, 300);
  EXPECT_EQ(cls.count, 1);
}

TEST(FlowStats, FlowlessCompletionCountsDroppedNotPercentiles) {
  // Eager sends complete with flow id 0: there is nothing to assemble,
  // so they must land in flowstats.dropped and leave every class alone.
  Registry reg;
  FlowStats fs(&reg);
  fs.enable(true);
  fs.drop_unidentified();
  fs.drop_unidentified();
  const auto rep = fs.report();
  EXPECT_EQ(rep.dropped, 2);
  EXPECT_EQ(rep.flows, 0);
  EXPECT_TRUE(rep.classes.empty());
}

TEST(FlowStats, OpenFlowAtShutdownIsDroppedNotFolded) {
  // Leak regression: a seeded incomplete flow (spans recorded, layer
  // completion never arrives - a truncated run) must be counted in
  // flowstats.dropped at the generation fence and must never contribute
  // to any class's percentiles.
  Registry reg;
  FlowStats fs(&reg);
  fs.enable(true);
  const std::uint64_t open_flow = mpi::frag_flow(0, 5, 0);
  const std::uint64_t done_flow = mpi::frag_flow(1, 6, 0);
  fs.on_span(span("dev_kernel", "engine", 0, 70, open_flow));
  fs.on_span(span("frag", "pml", 70, 900000, open_flow));  // huge outlier
  fs.on_span(span("dev_kernel", "engine", 0, 100, done_flow));
  fs.complete({done_flow, "send", 0x7u, 512, -1, -1, 1});
  fs.end_generation();  // Runtime teardown with open_flow still open

  const auto rep = fs.report();
  EXPECT_EQ(rep.dropped, 1);
  EXPECT_EQ(rep.flows, 1);
  ASSERT_EQ(rep.classes.size(), 1u);
  // The survivor's statistics are untouched by the dropped outlier.
  EXPECT_EQ(rep.classes.begin()->second.max, 100);
  EXPECT_EQ(reg.counter("flowstats.dropped").value(), 1);
}

TEST(FlowStats, LateSpanAfterFinalizationIsCountedNotFolded) {
  Registry reg;
  FlowStats fs(&reg);
  fs.enable(true);
  const std::uint64_t f = mpi::frag_flow(0, 2, 0);
  fs.on_span(span("dev_kernel", "engine", 0, 100, f));
  fs.complete({f, "send", 0, 256, -1, -1, 1});
  // A straggler span for the already-finalized flow (e.g. the sender's
  // last fragment ack) must not reopen or skew the class.
  fs.on_span(span("frag", "pml", 100, 5000, f));
  const auto rep = fs.report();
  EXPECT_EQ(rep.late_spans, 1);
  EXPECT_EQ(rep.classes.begin()->second.max, 100);
}

TEST(FlowStats, DistinctValueCapCoarsensAndCounts) {
  Registry reg;
  FlowStats fs(&reg);
  fs.enable(true);
  // More distinct e2e values in one class than kMaxDistinctValues (1024):
  // overflow values coarsen to their log2 bucket bound and count as
  // flowstats.capped; the flow count stays exact and percentiles ordered.
  const int n = 1200;
  for (int i = 0; i < n; ++i) {
    fs.complete({mpi::frag_flow(0, static_cast<std::uint64_t>(i + 1), 0),
                 "send", 0x1u, 64, 0, 1000 + i, 1});
  }
  const auto rep = fs.report();
  EXPECT_GT(rep.capped, 0);
  ASSERT_EQ(rep.classes.size(), 1u);
  const auto& cls = rep.classes.begin()->second;
  EXPECT_EQ(cls.count, n);
  EXPECT_LE(cls.p50, cls.p99);
  EXPECT_LE(cls.p99, cls.p999);
  EXPECT_LE(cls.p999, cls.max);
  EXPECT_EQ(reg.counter("flowstats.capped").value(), rep.capped);
}

TEST(FlowStats, GenerationFenceUnaliasesRestartedFlowIds) {
  // Send ids restart when a new Runtime is built: the same frag_flow
  // value in the next generation is a NEW flow, not a late span of the
  // finalized one.
  Registry reg;
  FlowStats fs(&reg);
  fs.enable(true);
  const std::uint64_t f = mpi::frag_flow(0, 1, 0);
  fs.begin_generation();
  fs.on_span(span("dev_kernel", "engine", 0, 10, f));
  fs.complete({f, "send", 0, 32, -1, -1, 1});
  fs.end_generation();
  fs.begin_generation();  // next Runtime: ids restart
  fs.on_span(span("dev_kernel", "engine", 0, 20, f));
  fs.complete({f, "send", 0, 32, -1, -1, 1});
  fs.end_generation();
  const auto rep = fs.report();
  EXPECT_EQ(rep.late_spans, 0);
  EXPECT_EQ(rep.flows, 2);
  EXPECT_EQ(rep.classes.begin()->second.count, 2);
}

TEST(FlowStats, ToJsonIsCanonicalAndIdempotent) {
  Registry reg;
  FlowStats fs(&reg);
  fs.enable(true);
  const std::uint64_t f = mpi::frag_flow(0, 3, 0);
  fs.on_span(span("dev_kernel", "engine", 10, 50, f));
  fs.on_span(span("frag", "pml", 50, 90, f));
  fs.complete({f, "send", 0xbeefu, 2048, -1, -1, 1});
  fs.drop_unidentified();
  const std::string text = fs.to_json();
  // Serialize -> parse -> canonicalize must be byte-identical: the
  // report IS its canonical form (the baseline gate depends on this).
  EXPECT_EQ(canonical_latency(json::parse(text)), text);
  // And canonical_report dispatches latency documents to the same form.
  EXPECT_EQ(canonical_report(json::parse(text)), text);
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.at("schema").as_string(), "gpuddt-latency-v1");
  EXPECT_EQ(doc.at("flowstats").at("flows").as_int(), 1);
  EXPECT_EQ(doc.at("flowstats").at("dropped").as_int(), 1);
  ASSERT_EQ(doc.at("classes").as_object().size(), 1u);
  const auto& cls = doc.at("classes").as_object().begin()->second;
  EXPECT_EQ(cls.at("e2e").at("max").as_int(), 80);
  EXPECT_EQ(cls.at("stages").at("kernel").at("work").as_int(), 40);
  EXPECT_EQ(cls.at("stages").at("wire").at("work").as_int(), 40);
}

TEST(FlowStats, DisabledEngineRecordsNothing) {
  // With the engine off (the default), spans and completions are no-ops
  // and no flowstats.* instruments appear in the registry - historic
  // metrics baselines must not change when code paths are merely built.
  Registry reg;
  FlowStats fs(&reg);
  const std::uint64_t f = mpi::frag_flow(0, 1, 0);
  fs.on_span(span("dev_kernel", "engine", 0, 10, f));
  fs.complete({f, "send", 0, 32, -1, -1, 1});
  fs.drop_unidentified();
  const auto rep = fs.report();
  EXPECT_EQ(rep.spans, 0);
  EXPECT_EQ(rep.flows, 0);
  EXPECT_EQ(rep.dropped, 0);
  const json::Value doc = json::parse(Recorder().to_json());
  EXPECT_TRUE(doc.at("counters").as_object().empty());
}

TEST(Recorder, TraceHelperFeedsFlowStatsEvenWithTracingOff) {
  // obs::trace hands flow-stamped spans to FlowStats before the ring
  // buffer: latency assembly must work with tracing disabled entirely.
  Recorder rec;
  rec.flowstats().enable(true);
  const std::uint64_t f = mpi::frag_flow(0, 4, 0);
  trace(&rec, {"dev_kernel", "engine", 0, 60, 0, 64, 0, f});
  rec.flowstats().complete({f, "send", 0, 64, -1, -1, 1});
  EXPECT_TRUE(rec.trace().snapshot().empty());  // tracing stayed off
  const auto rep = rec.flowstats().report();
  EXPECT_EQ(rep.flows, 1);
  EXPECT_EQ(rep.classes.begin()->second.max, 60);
  // write_latency_json emits the canonical report to disk.
  const std::string path =
      ::testing::TempDir() + "/gpuddt_flow_report_test.json";
  ASSERT_TRUE(rec.write_latency_json(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gpuddt::obs

// Tests for the checking layer (src/check/, docs/checking.md): the stream
// hazard detector over the simulated runtime, the DEV invariant checker at
// the engine boundary, their wiring into machines, engines and the MPI
// runtime, and the one resolver behind every opt-in switch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "check/access_tracker.h"
#include "check/config.h"
#include "check/dev_invariants.h"
#include "core/engine.h"
#include "core/layouts.h"
#include "harness/harness.h"
#include "mpi/runtime.h"
#include "obs/canon.h"
#include "obs/json.h"
#include "obs/recorder.h"
#include "simgpu/runtime.h"
#include "simgpu/staging.h"
#include "test_helpers.h"
#include "verify/hook.h"

namespace gpuddt {
namespace {

using core::CudaDevDist;
using Dir = core::GpuDatatypeEngine::Dir;

sg::MachineConfig checked_config(int devices = 1) {
  sg::MachineConfig m = test::machine_config(devices);
  m.check = 1;  // explicit per-machine setting beats env / build default
  return m;
}

/// Hazards a machine's tracker counted into `rec` (check::set_recorder).
std::int64_t hazards(const obs::Recorder& rec) {
  return test::counter(rec, "check.hazards");
}

/// DEV-invariant violations reported into `rec`.
std::int64_t violations(const obs::Recorder& rec) {
  return std::count_if(
      rec.diagnostics().begin(), rec.diagnostics().end(),
      [](const obs::Diagnostic& d) { return d.kind == "dev_invariant"; });
}

// --- Enablement -------------------------------------------------------------

TEST(CheckConfig, MachineSettingWins) {
  sg::MachineConfig off = test::machine_config(1);
  off.check = 0;
  sg::Machine m_off(off);
  EXPECT_EQ(m_off.observer(), nullptr);

  sg::Machine m_on(checked_config());
  ASSERT_NE(m_on.observer(), nullptr);
  EXPECT_NE(check::tracker_of(m_on), nullptr);
}

// --- Hazard detector --------------------------------------------------------

TEST(CheckHazard, UnorderedWritesAreWaw) {
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> h1(bytes), h2(bytes);
  sg::Stream s1(&m.device(0), "s1");
  sg::Stream s2(&m.device(0), "s2");

  sg::MemcpyAsync(ctx, dev, h1.data(), bytes, s1);
  // No event wait: the second upload is enqueued while the first may
  // still be in flight - a WAW on the device buffer.
  sg::MemcpyAsync(ctx, dev, h2.data(), bytes, s2);
  EXPECT_GE(hazards(rec), 1);

  ASSERT_FALSE(rec.diagnostics().empty());
  const obs::Diagnostic& diag = rec.diagnostics().back();
  EXPECT_EQ(diag.kind, "hazard");
  EXPECT_EQ(diag.type, "WAW");
  EXPECT_EQ(diag.device, 0);
  EXPECT_EQ(diag.a.queue, "s1");
  EXPECT_EQ(diag.b.queue, "s2");
  EXPECT_EQ(diag.a.label, "memcpy_async");
  EXPECT_EQ(diag.a.len, static_cast<std::int64_t>(bytes));
  EXPECT_EQ(diag.a.ptr, reinterpret_cast<std::uintptr_t>(dev));
  EXPECT_TRUE(diag.a.write);
  EXPECT_TRUE(diag.b.write);
  EXPECT_LT(diag.a.start, diag.b.finish);  // overlapping windows
  EXPECT_LT(diag.b.start, diag.a.finish);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, RegisteredHostScratchExposesHiddenWaw) {
  // Two D2H copies from DISJOINT device buffers land in the SAME plain
  // (malloc'd) host vector with no ordering between their streams. The
  // only conflicting range is the host scratch, which the tracker skips
  // while unregistered - this WAW used to go undetected. Registering the
  // scratch (sg::ScopedStagingRegistration, what the protocol layers now
  // do for their staging) makes the same pair of copies a reported WAW.
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev1 = sg::Malloc(ctx, bytes);
  void* dev2 = sg::Malloc(ctx, bytes);
  std::vector<std::byte> scratch(bytes);
  sg::Stream s1(&m.device(0), "s1");
  sg::Stream s2(&m.device(0), "s2");

  {
    const std::int64_t h0 = hazards(rec);
    sg::MemcpyAsync(ctx, scratch.data(), dev1, bytes, s1);
    sg::MemcpyAsync(ctx, scratch.data(), dev2, bytes, s2);
    EXPECT_EQ(hazards(rec) - h0, 0);  // the historical blind spot
  }
  sg::StreamSynchronize(ctx, s1);
  sg::StreamSynchronize(ctx, s2);
  {
    sg::ScopedStagingRegistration reg(m, scratch.data(), scratch.size());
    const std::int64_t h0 = hazards(rec);
    sg::MemcpyAsync(ctx, scratch.data(), dev1, bytes, s1);
    sg::MemcpyAsync(ctx, scratch.data(), dev2, bytes, s2);
    EXPECT_GE(hazards(rec) - h0, 1);
    ASSERT_FALSE(rec.diagnostics().empty());
    const obs::Diagnostic& diag = rec.diagnostics().back();
    EXPECT_EQ(diag.type, "WAW");
    EXPECT_EQ(diag.a.ptr, reinterpret_cast<std::uintptr_t>(scratch.data()));
  }
  sg::Free(ctx, dev1);
  sg::Free(ctx, dev2);
}

TEST(CheckHazard, ReadAfterUnorderedWriteIsRaw) {
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "writer");
  sg::Stream s2(&m.device(0), "reader");

  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s1);
  sg::MemcpyAsync(ctx, host.data(), dev, bytes, s2);  // missing wait
  EXPECT_GE(hazards(rec), 1);
  ASSERT_FALSE(rec.diagnostics().empty());
  EXPECT_EQ(rec.diagnostics().back().type, "RAW");
  sg::Free(ctx, dev);
}

TEST(CheckHazard, WriteAfterUnorderedReadIsWar) {
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "reader");
  sg::Stream s2(&m.device(0), "writer");

  sg::MemcpyAsync(ctx, host.data(), dev, bytes, s1);  // read dev
  const std::int64_t h0 = hazards(rec);
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s2);  // overwrite, no wait
  EXPECT_GE(hazards(rec) - h0, 1);
  ASSERT_FALSE(rec.diagnostics().empty());
  EXPECT_EQ(rec.diagnostics().back().type, "WAR");
  sg::Free(ctx, dev);
}

TEST(CheckHazard, EventWaitOrdersAccesses) {
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "producer");
  sg::Stream s2(&m.device(0), "consumer");

  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s1);
  sg::StreamWaitEvent(ctx, s2, sg::EventRecord(ctx, s1));
  sg::MemcpyAsync(ctx, host.data(), dev, bytes, s2);
  EXPECT_EQ(hazards(rec), 0);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, SameStreamIsOrdered) {
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> h1(bytes), h2(bytes);
  sg::Stream s(&m.device(0), "only");

  sg::MemcpyAsync(ctx, dev, h1.data(), bytes, s);
  sg::MemcpyAsync(ctx, dev, h2.data(), bytes, s);
  sg::MemcpyAsync(ctx, h1.data(), dev, bytes, s);
  EXPECT_EQ(hazards(rec), 0);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, DisjointRangesAreClean) {
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  auto* dev = static_cast<std::byte*>(sg::Malloc(ctx, 2 * bytes));
  std::vector<std::byte> h1(bytes), h2(bytes);
  sg::Stream s1(&m.device(0), "a");
  sg::Stream s2(&m.device(0), "b");

  sg::MemcpyAsync(ctx, dev, h1.data(), bytes, s1);
  sg::MemcpyAsync(ctx, dev + bytes, h2.data(), bytes, s2);  // disjoint halves
  EXPECT_EQ(hazards(rec), 0);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, FreeDropsHistory) {
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "a");
  sg::Stream s2(&m.device(0), "b");

  void* dev = sg::Malloc(ctx, bytes);
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s1);
  sg::Free(ctx, dev);
  // A fresh allocation can land at the same address; the old history must
  // not produce a false positive against it.
  void* dev2 = sg::Malloc(ctx, bytes);
  sg::MemcpyAsync(ctx, dev2, host.data(), bytes, s2);
  EXPECT_EQ(hazards(rec), 0);
  sg::Free(ctx, dev2);
}

TEST(CheckHazard, UnregisteredHostStagingIsInvisible) {
  // Two unordered D2H downloads into the SAME malloc'd staging buffer are
  // a WAW on the host side - but plain host memory is not keyed to any
  // allocation, so the tracker has nowhere to file the ranges. This is
  // the blind spot register_host_range closes (next test).
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> staging(bytes);
  sg::Stream s1(&m.device(0), "a");
  sg::Stream s2(&m.device(0), "b");

  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s1);
  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s2);
  EXPECT_EQ(hazards(rec), 0);  // undetected: documents the gap
  sg::Free(ctx, dev);
}

TEST(CheckHazard, RegisteredHostStagingIsTracked) {
  // Same seeded WAW as above, with the staging registered the way the
  // protocol registers payload staging: now the hazard is caught.
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> staging(bytes);
  sg::Stream s1(&m.device(0), "a");
  sg::Stream s2(&m.device(0), "b");

  m.register_host_range(staging.data(), bytes);
  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s1);
  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s2);
  EXPECT_GE(hazards(rec), 1);
  ASSERT_FALSE(rec.diagnostics().empty());
  EXPECT_EQ(rec.diagnostics().back().type, "WAW");

  // Unregistering drops the history: a reuse of the same addresses as a
  // new logical buffer must not alias the old accesses.
  m.unregister_host_range(staging.data());
  const std::int64_t h1 = hazards(rec);
  m.register_host_range(staging.data(), bytes);
  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s2);
  EXPECT_EQ(hazards(rec) - h1, 0);
  m.unregister_host_range(staging.data());
  EXPECT_THROW(m.unregister_host_range(staging.data()),
               std::invalid_argument);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, CountersReachRecorder) {
  sg::Machine m(checked_config());
  check::set_recorder(m, &obs::default_recorder());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> h1(bytes), h2(bytes);
  sg::Stream s1(&m.device(0), "r1");
  sg::Stream s2(&m.device(0), "r2");

  auto& reg = obs::default_recorder().metrics();
  const std::int64_t ops0 = reg.counter("check.ops").value();
  const std::int64_t haz0 = reg.counter("check.hazards").value();
  sg::MemcpyAsync(ctx, dev, h1.data(), bytes, s1);
  sg::MemcpyAsync(ctx, dev, h2.data(), bytes, s2);
  EXPECT_GE(reg.counter("check.ops").value(), ops0 + 2);
  EXPECT_GE(reg.counter("check.hazards").value(), haz0 + 1);
  check::set_recorder(m, nullptr);
  sg::Free(ctx, dev);
}

// --- Engine under checking --------------------------------------------------

void roundtrip(sg::HostContext& ctx, core::GpuDatatypeEngine& eng,
               const mpi::DatatypePtr& dt, std::int64_t count,
               std::int64_t frag_bytes) {
  const std::int64_t total = dt->size() * count;
  const std::int64_t span = test::span_bytes(dt, count);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, total));
  auto* back = static_cast<std::byte*>(sg::Malloc(ctx, span));
  test::fill_pattern(src, static_cast<std::size_t>(span), 5);
  std::byte* src_base = src - dt->true_lb();
  std::byte* back_base = back - dt->true_lb();

  auto pack = eng.start(Dir::kPack, dt, count, src_base);
  eng.drain(*pack, packed, 0, frag_bytes);
  auto unpack = eng.start(Dir::kUnpack, dt, count, back_base);
  eng.drain(*unpack, packed, 0, frag_bytes);
  eng.synchronize();
  EXPECT_EQ(test::reference_pack(dt, count, back_base),
            test::reference_pack(dt, count, src_base));
  sg::Free(ctx, src);
  sg::Free(ctx, packed);
  sg::Free(ctx, back);
}

/// convert_chunk spans the engine traced into `rec`.
std::int64_t conversion_chunks(const obs::Recorder& rec) {
  const auto events = rec.trace().snapshot();
  return std::count_if(events.begin(), events.end(),
                       [](const obs::TraceEvent& e) {
                         return e.name == "convert_chunk";
                       });
}

// The triangle has 4608 units at S = 1 KiB, more than one 4096-unit
// conversion chunk, so the pack refills its unit list between checked
// windows.
TEST(CheckEngine, PipelinedConversionRunsClean) {
  obs::Recorder rec;
  rec.enable_tracing();
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  core::EngineConfig cfg;
  cfg.unit_bytes = 1024;
  cfg.recorder = &rec;
  check::set_recorder(m, &rec);
  core::GpuDatatypeEngine eng(ctx, cfg);

  roundtrip(ctx, eng, core::lower_triangular_type(1024, 1024), 1, 8 * 1024);
  EXPECT_EQ(hazards(rec), 0);
  EXPECT_EQ(violations(rec), 0);
  EXPECT_GT(test::counter(rec, "engine.kernels.dev"), 2);
  EXPECT_GE(conversion_chunks(rec), 2);
}

TEST(CheckEngine, ResidueStreamRunsClean) {
  obs::Recorder rec;
  rec.enable_tracing();
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  core::EngineConfig cfg;
  cfg.unit_bytes = 1024;
  cfg.residue_separate_stream = true;
  cfg.recorder = &rec;
  check::set_recorder(m, &rec);
  core::GpuDatatypeEngine eng(ctx, cfg);

  roundtrip(ctx, eng, core::lower_triangular_type(1024, 1024), 1, 8 * 1024);
  EXPECT_EQ(hazards(rec), 0);
  EXPECT_EQ(violations(rec), 0);
  EXPECT_GE(conversion_chunks(rec), 2);
}

TEST(CheckEngine, CachedPathRunsCleanAndCountsDistinctUnits) {
  obs::Recorder rec;
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  core::EngineConfig cfg;
  cfg.unit_bytes = 1024;
  cfg.recorder = &rec;
  check::set_recorder(m, &rec);
  core::GpuDatatypeEngine eng(ctx, cfg);
  auto dt = core::lower_triangular_type(64, 64);

  roundtrip(ctx, eng, dt, 1, 64 * 1024);  // first run fills the cache
  const auto* entry = eng.cache().find(dt, 1, cfg.unit_bytes);
  ASSERT_NE(entry, nullptr);
  const auto n_units = static_cast<std::int64_t>(entry->units.size());

  // Second run is served from the cache, with a budget of half a unit so
  // every unit is split across two windows: the per-window counter sees
  // each unit about twice, the distinct counter exactly once.
  const std::int64_t from_cache0 =
      test::counter(rec, "engine.units.from_cache");
  const std::int64_t distinct0 =
      test::counter(rec, "engine.units.from_cache_distinct");
  const std::int64_t total = dt->size();
  auto* src = static_cast<std::byte*>(
      sg::Malloc(ctx, test::span_bytes(dt, 1)));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, total));
  auto op = eng.start(Dir::kPack, dt, 1, src - dt->true_lb());
  ASSERT_TRUE(op->used_cache());
  eng.drain(*op, packed, 0, 512);
  eng.synchronize();

  const std::int64_t from_cache =
      test::counter(rec, "engine.units.from_cache") - from_cache0;
  const std::int64_t distinct =
      test::counter(rec, "engine.units.from_cache_distinct") - distinct0;
  EXPECT_EQ(distinct, n_units);
  EXPECT_GT(from_cache, distinct);
  EXPECT_EQ(hazards(rec), 0);
  EXPECT_EQ(violations(rec), 0);
  sg::Free(ctx, src);
  sg::Free(ctx, packed);
}

TEST(CheckEngine, PingPongRunsClean) {
  harness::PingPongSpec spec;
  spec.cfg.world_size = 2;
  spec.cfg.machine = checked_config(2);
  spec.cfg.machine.device_memory_bytes = std::size_t{1} << 30;
  spec.dt0 = spec.dt1 = core::lower_triangular_type(256, 256);
  obs::Recorder rec;
  spec.cfg.recorder = &rec;

  const auto res = harness::run_pingpong(spec);
  EXPECT_GT(res.avg_roundtrip, 0);
  EXPECT_EQ(hazards(rec), 0);
  EXPECT_EQ(violations(rec), 0);
}

// --- DEV invariant checker --------------------------------------------------

TEST(CheckInvariants, OutOfBoundsUnitThrows) {
  const check::DevListBounds b{0, 1000, 2048, 1024};
  const CudaDevDist bad[] = {{950, 0, 100}};  // nc end 1050 > 1000
  obs::Recorder rec;
  EXPECT_THROW(check::validate_dev_window({bad}, b, 0, /*contiguous=*/false,
                                          "test", &rec),
               check::InvariantViolation);
  EXPECT_EQ(violations(rec), 1);
  ASSERT_FALSE(rec.diagnostics().empty());
  EXPECT_EQ(rec.diagnostics().back().kind, "dev_invariant");
  EXPECT_EQ(rec.diagnostics().back().type, "nc_bounds");
  EXPECT_EQ(rec.diagnostics().back().unit_index, 0);
}

TEST(CheckInvariants, BadUnitLengthThrows) {
  const check::DevListBounds b{0, 4096, 4096, 1024};
  const CudaDevDist zero[] = {{0, 0, 0}};
  const CudaDevDist oversize[] = {{0, 0, 2048}};
  obs::Recorder rec;
  EXPECT_THROW(check::validate_dev_window({zero}, b, 0, false, "test", &rec),
               check::InvariantViolation);
  EXPECT_THROW(
      check::validate_dev_window({oversize}, b, 0, false, "test", &rec),
      check::InvariantViolation);
}

TEST(CheckInvariants, OverlappingPackDestinationsThrow) {
  const check::DevListBounds b{0, 8192, 2048, 1024};
  // Two units whose packed destinations collide on [512, 1024).
  const CudaDevDist bad[] = {{0, 0, 1024}, {4096, 512, 1024}};
  obs::Recorder rec;
  EXPECT_THROW(check::validate_dev_window({bad}, b, 0, /*contiguous=*/false,
                                          "test", &rec),
               check::InvariantViolation);
  EXPECT_EQ(violations(rec), 1);
  ASSERT_FALSE(rec.diagnostics().empty());
  EXPECT_EQ(rec.diagnostics().back().type, "pk_overlap");
}

TEST(CheckInvariants, NonContiguousWindowThrows) {
  const check::DevListBounds b{0, 8192, 4096, 1024};
  // Valid pairwise, but the window must start at pk_expected=0 and be
  // gap-free; this one jumps 512 bytes.
  const CudaDevDist bad[] = {{0, 0, 1024}, {4096, 1536, 1024}};
  obs::Recorder rec;
  EXPECT_THROW(check::validate_dev_window({bad}, b, 0, /*contiguous=*/true,
                                          "test", &rec),
               check::InvariantViolation);
}

TEST(CheckInvariants, FullListCoverageChecked) {
  const check::DevListBounds b{0, 2048, 2048, 1024};
  const CudaDevDist good[] = {{0, 0, 1024}, {1024, 1024, 1024}};
  obs::Recorder rec;
  EXPECT_NO_THROW(check::validate_dev_list(good, b, "test", &rec));
  // Same list with a missing tail no longer covers [0, total_bytes).
  const CudaDevDist gap[] = {{0, 0, 1024}};
  EXPECT_THROW(check::validate_dev_list(gap, b, "test", &rec),
               check::InvariantViolation);
}

TEST(CheckInvariants, CacheInsertValidates) {
  sg::Machine m(test::machine_config(1));
  sg::HostContext ctx(m, 0);
  core::DevCache cache;
  cache.set_validation(true);
  auto dt = core::lower_triangular_type(16, 16);
  auto units = core::convert_all(dt, 1, 1024);
  ASSERT_FALSE(units.empty());
  units.front().nc_disp = dt->true_extent() + 4096;  // corrupt: out of bounds
  EXPECT_THROW(cache.insert(ctx, dt, 1, 1024, std::move(units)),
               check::InvariantViolation);
}

TEST(CheckInvariants, EngineValidatesWindowsWithoutFalsePositives) {
  // The whole-suite guarantee in miniature: a checked engine validates
  // every window of a real conversion without tripping.
  obs::Recorder rec;
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  core::EngineConfig cfg;
  cfg.unit_bytes = 1024;
  cfg.recorder = &rec;
  core::GpuDatatypeEngine eng(ctx, cfg);
  roundtrip(ctx, eng, core::submatrix_type(64, 32, 96), 1, 4 * 1024);
  roundtrip(ctx, eng, core::lower_triangular_type(48, 48), 2, 4 * 1024);
  EXPECT_EQ(violations(rec), 0);
}

// --- Findings in the recorder's report ---------------------------------------

TEST(CheckReport, JsonCarriesTotalsAndDiagnostics) {
  obs::Recorder rec;
  sg::Machine m(checked_config());
  check::set_recorder(m, &rec);
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "jsa");
  sg::Stream s2(&m.device(0), "jsb");
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s1);
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s2);
  ASSERT_EQ(rec.diagnostics().size(), 1u);
  EXPECT_EQ(rec.diagnostics().front().type, "WAW");

  // The dump carries the finding next to the trace; the canonical text
  // the baseline gates compare does not.
  const obs::json::Value doc = obs::json::parse(rec.to_json());
  const auto& diags = doc.at("diagnostics").as_array();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].at("kind").as_string(), "hazard");
  EXPECT_EQ(diags[0].at("type").as_string(), "WAW");
  EXPECT_EQ(diags[0].at("a").at("queue").as_string(), "jsa");
  EXPECT_EQ(diags[0].at("b").at("queue").as_string(), "jsb");
  const std::string canon = obs::canonical_metrics(doc);
  EXPECT_EQ(canon.find("WAW"), std::string::npos);
  EXPECT_EQ(canon.find("jsa"), std::string::npos);

  // Storage stops at the cap; check.hazards keeps counting.
  const auto cap = static_cast<std::int64_t>(obs::Recorder::kMaxDiagnostics);
  for (int i = 0; i < 4096 && hazards(rec) <= cap; ++i) {
    sg::MemcpyAsync(ctx, dev, host.data(), bytes, (i % 2 == 0) ? s1 : s2);
  }
  EXPECT_GT(hazards(rec), cap);
  EXPECT_EQ(rec.diagnostics().size(), obs::Recorder::kMaxDiagnostics);

  rec.clear();
  EXPECT_TRUE(rec.diagnostics().empty());
  sg::Free(ctx, dev);
}

// --- Switch resolution (check/config.h) -------------------------------------

// Every switch, every environment spelling, every forced state and every
// tri-state: the object's tri-state > set_forced > env var > build default,
// with an empty env value deferring exactly like an unset one.
TEST(SwitchResolver, PrecedenceTableForEverySwitch) {
  struct Row {
    check::Switch* sw;
    const char* env_var;
    bool has_tri_state;
  };
  const Row switches[] = {
      {&check::check_switch, "GPUDDT_CHECK", true},
      {&verify::verify_switch, "GPUDDT_VERIFY", false},
      {&mpi::stream_triggered_switch, "GPUDDT_STREAM_TRIGGERED", true},
  };
  struct EnvValue {
    const char* value;         // nullptr: unset
    std::optional<bool> vote;  // nullopt: defers to the build default
  };
  const EnvValue envs[] = {
      {nullptr, std::nullopt}, {"", std::nullopt}, {"0", false},
      {"off", false},          {"false", false},   {"1", true},
      {"on", true},
  };
  const std::optional<bool> forced_states[] = {std::nullopt, true, false};
  for (const Row& row : switches) {
    SCOPED_TRACE(row.env_var);
    test::ScopedEnv env(row.env_var);
    env.unset();
    row.sw->set_forced(std::nullopt);
    const bool build_default = row.sw->enabled();
    for (const EnvValue& e : envs) {
      if (e.value == nullptr) {
        env.unset();
      } else {
        env.set(e.value);
      }
      for (const std::optional<bool>& forced : forced_states) {
        row.sw->set_forced(forced);
        const bool process_wide =
            forced.value_or(e.vote.value_or(build_default));
        SCOPED_TRACE(std::string("env=") +
                     (e.value != nullptr ? e.value : "<unset>") +
                     " forced=" + (forced ? (*forced ? "on" : "off") : "none"));
        EXPECT_EQ(row.sw->enabled(), process_wide);
        if (!row.has_tri_state) continue;
        EXPECT_EQ(row.sw->enabled(-1), process_wide);
        EXPECT_FALSE(row.sw->enabled(0));
        EXPECT_TRUE(row.sw->enabled(1));
      }
    }
    row.sw->set_forced(std::nullopt);
  }
}

}  // namespace
}  // namespace gpuddt

// The symbolic verifier (src/verify/): every datatype constructor must
// prove clean, the proof must be closed over all counts (subsuming the
// sampled canonical property test), seeded DEV/model mutations must each
// be rejected with the right obligation named, and the GPUDDT_VERIFY
// cache-insert hook must keep uncertifiable DEVs out of the cache.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "core/dev.h"
#include "core/dev_cache.h"
#include "core/engine.h"
#include "core/layouts.h"
#include "mpi/datatype.h"
#include "simgpu/machine.h"
#include "verify/hook.h"
#include "verify/pipeline.h"
#include "verify/symbolic.h"
#include "verify/verifier.h"
#include "test_helpers.h"

namespace gpuddt::verify {
namespace {

using mpi::Datatype;
using mpi::DatatypePtr;

DatatypePtr dbl() { return Datatype::primitive(mpi::Primitive::kDouble); }

/// The failing obligation names of a report, for exact-match assertions.
std::vector<std::string> failed_names(const Report& rep) {
  std::vector<std::string> out;
  for (const Obligation& o : rep.obligations) {
    if (!o.proved) out.push_back(o.name);
  }
  return out;
}

void expect_certified(const Report& rep) {
  const Obligation* o = rep.first_failed();
  EXPECT_TRUE(rep.certified())
      << rep.subject << ": " << (o ? o->name + ": " + o->detail : "");
}

/// Type + production-DEV proofs for one datatype over several
/// (count, unit_bytes) points.
void expect_all_proofs(const DatatypePtr& dt) {
  expect_certified(verify_type(*dt));
  for (const std::int64_t count : {1, 3}) {
    for (const std::int64_t s : {core::kMinUnitBytes, std::int64_t{1024}}) {
      const auto units = core::convert_all(dt, count, s);
      expect_certified(verify_dev(*dt, count, s, units));
    }
  }
}

// --- Every constructor proves clean -----------------------------------------------

TEST(Verify, Primitive) { expect_all_proofs(dbl()); }

TEST(Verify, Contiguous) {
  expect_all_proofs(Datatype::contiguous(16, dbl()));
}

TEST(Verify, Vector) { expect_all_proofs(Datatype::vector(8, 4, 16, dbl())); }

TEST(Verify, Hvector) {
  expect_all_proofs(Datatype::hvector(6, 3, 100, dbl()));
}

TEST(Verify, Indexed) {
  const std::int64_t lens[] = {3, 1, 4};
  const std::int64_t displs[] = {0, 5, 9};
  expect_all_proofs(Datatype::indexed(lens, displs, dbl()));
}

TEST(Verify, Hindexed) {
  const std::int64_t lens[] = {2, 2};
  const std::int64_t displs[] = {0, 40};
  expect_all_proofs(Datatype::hindexed(lens, displs, dbl()));
}

TEST(Verify, IndexedBlock) {
  const std::int64_t displs[] = {0, 4, 9, 15};
  expect_all_proofs(Datatype::indexed_block(2, displs, dbl()));
}

TEST(Verify, Struct) {
  const DatatypePtr types[] = {Datatype::primitive(mpi::Primitive::kChar),
                               dbl()};
  const std::int64_t lens[] = {3, 2};
  const std::int64_t displs[] = {0, 8};
  expect_all_proofs(Datatype::struct_type(lens, displs, types));
}

TEST(Verify, Subarray) {
  const std::int64_t sizes[] = {8, 10};
  const std::int64_t subsizes[] = {3, 4};
  const std::int64_t starts[] = {2, 1};
  expect_all_proofs(Datatype::subarray(sizes, subsizes, starts, dbl()));
}

TEST(Verify, DarrayBlockCyclic) {
  const std::int64_t gsizes[] = {12, 12};
  const Datatype::Distrib distribs[] = {Datatype::Distrib::kCyclic,
                                        Datatype::Distrib::kBlock};
  const std::int64_t dargs[] = {2, Datatype::kDefaultDarg};
  const std::int64_t psizes[] = {2, 2};
  for (int rank = 0; rank < 4; ++rank) {
    expect_all_proofs(
        Datatype::darray(4, rank, gsizes, distribs, dargs, psizes, dbl()));
  }
}

TEST(Verify, Resized) {
  expect_all_proofs(
      Datatype::resized(Datatype::vector(4, 2, 5, dbl()), 0, 50 * 8));
}

TEST(Verify, PaperLayouts) {
  expect_all_proofs(core::submatrix_type(32, 16, 64));
  expect_all_proofs(core::lower_triangular_type(24, 24));
  expect_all_proofs(core::stair_triangular_type(32, 32, 8));
  expect_all_proofs(core::transpose_type(12, 12));
}

// The 200-seed sweep the sampled canonical property test runs - here
// each seed's proof is closed over ALL counts (symbolic equivalence +
// the cross-element shift-disjointness argument), not just the sampled
// ones. Production DEVs at the paper's minimum unit size ride along.
TEST(Verify, RandomTypeSweepProvesForAllCounts) {
  for (std::uint32_t seed = 0; seed < 200; ++seed) {
    std::mt19937 rng(seed);
    const DatatypePtr dt = test::random_datatype(rng);
    const Report rep = verify_type(*dt);
    const Obligation* o = rep.first_failed();
    ASSERT_TRUE(rep.certified())
        << "seed " << seed << ": " << rep.subject << ": "
        << (o ? o->name + ": " + o->detail : "");
    const auto units = core::convert_all(dt, 2, core::kMinUnitBytes);
    expect_certified(verify_dev(*dt, 2, core::kMinUnitBytes, units));
  }
}

// --- Seeded mutations are rejected with the right obligation ----------------------

/// A unit list with enough pieces for index-1 mutations to be
/// interesting.
std::vector<core::CudaDevDist> fixture_units(const DatatypePtr& dt) {
  auto units = core::convert_all(dt, 2, core::kMinUnitBytes);
  EXPECT_GE(units.size(), 2u);
  return units;
}

TEST(VerifyMutation, DroppedUnitFailsUnitCount) {
  const DatatypePtr dt = core::lower_triangular_type(24, 24);
  auto units = fixture_units(dt);
  units.erase(units.begin() + 1);
  const Report rep = verify_dev(*dt, 2, core::kMinUnitBytes, units);
  EXPECT_FALSE(rep.certified());
  const auto names = failed_names(rep);
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), kDevUnitCount);
}

TEST(VerifyMutation, ShiftedDisplacementFailsNcExact) {
  const DatatypePtr dt = core::lower_triangular_type(24, 24);
  auto units = fixture_units(dt);
  units[1].nc_disp += 8;
  const Report rep = verify_dev(*dt, 2, core::kMinUnitBytes, units);
  EXPECT_FALSE(rep.certified());
  EXPECT_EQ(failed_names(rep), std::vector<std::string>{kDevNcExact});
}

TEST(VerifyMutation, OverlappingPackDestinationFailsPkExact) {
  const DatatypePtr dt = core::lower_triangular_type(24, 24);
  auto units = fixture_units(dt);
  units[1].pk_disp = units[0].pk_disp;
  const Report rep = verify_dev(*dt, 2, core::kMinUnitBytes, units);
  EXPECT_FALSE(rep.certified());
  EXPECT_EQ(failed_names(rep), std::vector<std::string>{kDevPkExact});
}

TEST(VerifyMutation, UnmergedSeamFailsUnitCount) {
  // One unit per piece, the particle's [32, 56) and the next element's
  // [56, 84) left apart: six units where the merged split has four.
  const DatatypePtr dt = test::particle_type();
  const std::vector<core::CudaDevDist> unmerged = {
      {0, 0, 28},    {32, 28, 24},   {56, 52, 28},
      {88, 80, 24},  {112, 104, 28}, {144, 132, 24}};
  expect_certified(verify_dev(*dt, 3, 1024, core::convert_all(dt, 3, 1024)));
  const Report rep = verify_dev(*dt, 3, 1024, unmerged);
  EXPECT_FALSE(rep.certified());
  const auto names = failed_names(rep);
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), kDevUnitCount);
}

TEST(VerifyMutation, ReorderedPipelineEdgeFailsHazardFree) {
  EnginePipelineParams p;
  p.windows = 6;
  EXPECT_TRUE(verify_pipeline(p).certified());
  // Dropping the desc_last_use WAR guard reproduces the PR 2
  // descriptor-slot race as a statically refuted obligation.
  p.mutate = MutateDag::kDropWarEdge;
  const Report rep = verify_pipeline(p);
  EXPECT_FALSE(rep.certified());
  EXPECT_EQ(failed_names(rep), std::vector<std::string>{kPipelineHazardFree});
}

TEST(VerifyPipeline, AllEngineShapesProveHazardFree) {
  for (const bool residue : {false, true}) {
    EnginePipelineParams p;
    p.windows = 8;
    p.residue_separate_stream = residue;
    expect_certified(verify_pipeline(p));
  }
  EnginePipelineParams p;
  p.windows = 6;
  p.wire_fragments = 6;
  expect_certified(verify_pipeline(p));
}

TEST(VerifyPipeline, StreamTriggeredChainProvesHazardFree) {
  // Both ring depths exercised well past reuse, at several depth
  // combinations including asymmetric ones.
  for (const int send_ring : {1, 2, 3}) {
    for (const int staging : {1, 2, 4}) {
      EnginePipelineParams p;
      p.windows = 8;
      p.wire_fragments = 8;
      p.stream_triggered = true;
      p.send_ring_depth = send_ring;
      p.staging_depth = staging;
      expect_certified(verify_pipeline(p));
    }
  }
}

TEST(VerifyMutation, DroppedStreamCreditEdgeFailsHazardFree) {
  EnginePipelineParams p;
  p.windows = 8;
  p.wire_fragments = 8;
  p.stream_triggered = true;
  EXPECT_TRUE(verify_pipeline(p).certified());
  // Without the wire(f) -> kernel(f + send_ring_depth) credit event the
  // pack kernel overwrites a send-ring slot an in-flight GET still
  // reads: a WAR the prover must refuse to order.
  p.mutate = MutateDag::kDropCreditEdge;
  const Report rep = verify_pipeline(p);
  EXPECT_FALSE(rep.certified());
  EXPECT_EQ(failed_names(rep), std::vector<std::string>{kPipelineHazardFree});
}

TEST(VerifyPipeline, StreamTriggeredRejectsUnmodeledShapes) {
  EnginePipelineParams p;
  p.windows = 8;
  p.wire_fragments = 8;
  p.stream_triggered = true;
  p.residue_separate_stream = true;  // stage_all refuses it; so does the model
  EXPECT_THROW(build_engine_pipeline(p), std::invalid_argument);
  p.residue_separate_stream = false;
  p.mutate = MutateDag::kDropWarEdge;  // targets the double-buffered uploader
  EXPECT_THROW(build_engine_pipeline(p), std::invalid_argument);
  EnginePipelineParams host;
  host.mutate = MutateDag::kDropCreditEdge;  // targets the stream chain
  EXPECT_THROW(build_engine_pipeline(host), std::invalid_argument);
}

// --- The cache-insert hook --------------------------------------------------------

class ForcedVerify {
 public:
  ForcedVerify() { verify_switch.set_forced(true); }
  ~ForcedVerify() { verify_switch.set_forced(std::nullopt); }
};

TEST(VerifyHook, CertifiesGoodInsertAndRejectsCorruptOne) {
  ForcedVerify forced;
  ASSERT_TRUE(verify_switch.enabled());
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  obs::Recorder rec;
  core::DevCache cache;
  cache.set_recorder(&rec);
  const DatatypePtr dt = core::lower_triangular_type(16, 16);
  auto good = core::convert_all(dt, 1, 1024);
  cache.insert(ctx, dt, 1, 1024, good);  // certifies, no throw
  EXPECT_NE(cache.find(dt, 1, 1024), nullptr);
  EXPECT_TRUE(rec.diagnostics().empty());

  auto bad = core::convert_all(dt, 2, 1024);
  ASSERT_GE(bad.size(), 2u);
  bad[1].nc_disp += 8;
  const Report rep = verify_dev(*dt, 2, 1024, bad);
  ASSERT_NE(rep.first_failed(), nullptr);
  const std::string obligation = rep.first_failed()->name;
  EXPECT_THROW(cache.insert(ctx, dt, 2, 1024, std::move(bad)),
               CertificationFailure);
  // The uncertified DEV never became reachable.
  EXPECT_EQ(cache.find(dt, 2, 1024), nullptr);
  // The rejection is one finding in the cache's recorder, naming the
  // obligation that failed.
  ASSERT_EQ(rec.diagnostics().size(), 1u);
  const obs::Diagnostic& d = rec.diagnostics().front();
  EXPECT_EQ(d.kind, "verify");
  EXPECT_EQ(d.type, obligation);
  EXPECT_NE(d.message.find("'" + obligation + "'"), std::string::npos);
}

TEST(VerifyHook, ForcedOffDisablesCertification) {
  verify_switch.set_forced(false);
  EXPECT_FALSE(verify_switch.enabled());
  verify_switch.set_forced(std::nullopt);
}

// --- Symbolic algebra edge cases --------------------------------------------------

TEST(VerifySymbolic, ByteMapMergesAndComparesRuns) {
  ByteMap a;
  a.push(0, 8);
  a.push(8, 8);   // merges with [0,8)
  a.push(24, 8);  // gap: second run
  EXPECT_EQ(a.runs().size(), 2u);
  EXPECT_EQ(a.size(), 24);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 32);
  EXPECT_TRUE(a.self_disjoint());

  ByteMap b;
  b.push(0, 16);
  b.push(24, 8);
  EXPECT_TRUE(a == b);
}

TEST(VerifySymbolic, ShiftDisjointClosesOverAllCounts) {
  // Runs at [0,8) and [24,32): extent 16 interleaves elements cleanly
  // for every count; extent 12 collides element 0's second run with
  // element 1's first at some count - the prover must find it without
  // enumerating counts.
  ByteMap m;
  m.push(0, 8);
  m.push(24, 8);
  EXPECT_TRUE(m.shift_disjoint(16));
  EXPECT_FALSE(m.shift_disjoint(12));
  EXPECT_FALSE(m.shift_disjoint(0));  // non-empty map, no advance
}

}  // namespace
}  // namespace gpuddt::verify

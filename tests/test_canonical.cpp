// Canonical datatype form (mpi/canonical.h): structurally equal types
// built through different constructor paths must agree on the stored
// (canonical) program and the shape digest, compile to identical DEV
// unit lists, and share one DEV-cache entry (a shape_dedup hit on the
// second build).
// Träff's self-consistency expectation rides along: the canonicalized
// type drives exactly the same conversion work as its hand-flattened
// equivalent, so it can never be slower.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/dev.h"
#include "core/engine.h"
#include "core/layouts.h"
#include "mpi/canonical.h"
#include "mpi/cursor.h"
#include "mpi/datatype.h"
#include "obs/recorder.h"
#include "test_helpers.h"
#include "verify/symbolic.h"

namespace gpuddt::mpi {
namespace {

using core::convert_all;
using core::CudaDevDist;

/// The byte offsets (dt, count) touches, one list per element, in the
/// order the cursor walks the stored program.
std::vector<std::vector<std::int64_t>> walked_elements(const DatatypePtr& dt,
                                                       std::int64_t count) {
  BlockCursor cur(dt, count);
  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(count));
  std::int64_t walked = 0;
  Block b;
  while (cur.next(&b)) {
    for (std::int64_t i = 0; i < b.len; ++i, ++walked)
      out[static_cast<std::size_t>(walked / dt->size())].push_back(b.offset +
                                                                   i);
  }
  return out;
}

/// The same, derived from the constructor tree (verify::element_byte_map,
/// which shares no code with the program compiler or canonicalization):
/// element e is element 0 shifted by e * extent.
std::vector<std::vector<std::int64_t>> tree_elements(const DatatypePtr& dt,
                                                     std::int64_t count) {
  const verify::TreeLayout tree = verify::element_byte_map(*dt);
  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(count));
  for (std::int64_t e = 0; e < count; ++e) {
    for (const verify::Run& r : tree.map.runs())
      for (std::int64_t i = 0; i < r.len; ++i)
        out[static_cast<std::size_t>(e)].push_back(e * tree.extent + r.off +
                                                   i);
  }
  return out;
}

void expect_same_shape(const DatatypePtr& a, const DatatypePtr& b) {
  EXPECT_EQ(a->shape_digest(), b->shape_digest())
      << a->describe() << " vs " << b->describe();
  EXPECT_EQ(a->program(), b->program())
      << a->describe() << " vs " << b->describe();
  EXPECT_EQ(a->size(), b->size());
  EXPECT_EQ(a->extent(), b->extent());
  // Identical compiled DEV programs.
  EXPECT_EQ(convert_all(a, 1, 1024), convert_all(b, 1, 1024));
  EXPECT_EQ(convert_all(a, 3, 512), convert_all(b, 3, 512));
}

TEST(Canonical, ContiguousVectorHvectorChainsCollapse) {
  auto c = Datatype::contiguous(4, kDouble());
  expect_same_shape(c, Datatype::vector(1, 4, 4, kDouble()));
  expect_same_shape(c, Datatype::vector(4, 1, 1, kDouble()));
  expect_same_shape(c, Datatype::hvector(4, 1, 8, kDouble()));  // unit stride
  expect_same_shape(c, Datatype::hvector(2, 2, 16, kDouble()));
  expect_same_shape(c, Datatype::contiguous(2, Datatype::contiguous(2, kDouble())));
  const std::int64_t one_block[] = {4};
  const std::int64_t at_zero[] = {0};
  expect_same_shape(c, Datatype::indexed(one_block, at_zero, kDouble()));
}

TEST(Canonical, VectorIndexedStructEquivalence) {
  // 3 blocks of 2 doubles, block starts 5 doubles apart.
  auto v = Datatype::vector(3, 2, 5, kDouble());
  const std::int64_t lens[] = {2, 2, 2};
  const std::int64_t displs_el[] = {0, 5, 10};
  const std::int64_t displs_by[] = {0, 40, 80};
  expect_same_shape(v, Datatype::indexed(lens, displs_el, kDouble()));
  expect_same_shape(v, Datatype::hindexed(lens, displs_by, kDouble()));
  expect_same_shape(v, Datatype::indexed_block(2, displs_el, kDouble()));
  const DatatypePtr dd[] = {kDouble(), kDouble(), kDouble()};
  expect_same_shape(v, Datatype::struct_type(lens, displs_by, dd));
  // The program is the re-rolled loop.
  ASSERT_EQ(v->program().size(), 3u);
  EXPECT_EQ(v->program()[0].op, Instr::Op::kLoop);
}

TEST(Canonical, RegularPatternHidesInsideIndexed) {
  // A uniform indexed_block re-rolls to the 3-instr loop and must route
  // onto the vector fast path exactly like the vector-built equivalent.
  const std::int64_t displs[] = {0, 5, 10, 15};
  auto ib = Datatype::indexed_block(2, displs, kDouble());
  auto v = Datatype::vector(4, 2, 5, kDouble());
  expect_same_shape(v, ib);
  const auto pat = ib->regular_pattern(1);
  ASSERT_TRUE(pat.has_value());
  EXPECT_EQ(pat->first_disp, 0);
  EXPECT_EQ(pat->blocklen, 16);
  EXPECT_EQ(pat->stride, 40);
  EXPECT_EQ(pat->count, 4);
  const auto vpat = v->regular_pattern(1);
  ASSERT_TRUE(vpat.has_value());
  EXPECT_EQ(pat->stride, vpat->stride);
  EXPECT_EQ(pat->blocklen, vpat->blocklen);
}

TEST(Canonical, PerfectlyNestedLoopsFuse) {
  // Two rows of 4 singles fuse into 8 singles when the outer stride
  // continues the inner progression (extents matched via resized).
  auto inner = Datatype::resized(Datatype::vector(4, 1, 2, kDouble()), 0, 64);
  auto nested = Datatype::contiguous(2, inner);
  auto flat = Datatype::resized(Datatype::vector(8, 1, 2, kDouble()), 0, 128);
  expect_same_shape(flat, nested);
  ASSERT_EQ(nested->program().size(), 3u);
  EXPECT_EQ(nested->program()[0].count, 8);
}

TEST(Canonical, SubarrayEquivalence) {
  const std::int64_t sizes[] = {6, 4};
  const std::int64_t subsizes[] = {3, 2};
  const std::int64_t starts[] = {1, 1};
  auto sub = Datatype::subarray(sizes, subsizes, starts, kDouble());
  // Same shape, hand-built: 3 rows of 2 doubles, 4 doubles apart,
  // starting at element (1,1), padded to the full 6x4 extent.
  const std::int64_t lens[] = {2, 2, 2};
  const std::int64_t displs[] = {40, 72, 104};
  auto hi = Datatype::resized(Datatype::hindexed(lens, displs, kDouble()),
                              0, 192);
  expect_same_shape(sub, hi);
  const DatatypePtr vt[] = {Datatype::vector(3, 2, 4, kDouble())};
  const std::int64_t one[] = {1};
  const std::int64_t at40[] = {40};
  auto st = Datatype::resized(Datatype::struct_type(one, at40, vt), 0, 192);
  expect_same_shape(sub, st);
}

TEST(Canonical, DarrayEquivalence) {
  const std::int64_t gsizes[] = {8};
  const Datatype::Distrib distribs[] = {Datatype::Distrib::kBlock};
  const std::int64_t dargs[] = {Datatype::kDefaultDarg};
  const std::int64_t psizes[] = {1};
  auto da = Datatype::darray(1, 0, gsizes, distribs, dargs, psizes,
                             kDouble());
  expect_same_shape(da, Datatype::contiguous(8, kDouble()));
}

TEST(Canonical, DistinctShapesKeepDistinctDigests) {
  auto v = Datatype::vector(3, 2, 5, kDouble());
  EXPECT_NE(v->shape_digest(),
            Datatype::vector(3, 2, 6, kDouble())->shape_digest());
  EXPECT_NE(v->shape_digest(),
            Datatype::vector(2, 2, 5, kDouble())->shape_digest());
  EXPECT_NE(v->shape_digest(),
            Datatype::vector(3, 3, 5, kDouble())->shape_digest());
  // Same layout, different extent (resized padding) is a different
  // multi-element shape and must not alias.
  EXPECT_NE(v->shape_digest(),
            Datatype::resized(v, 0, v->extent() + 8)->shape_digest());
}

TEST(Canonical, WalkPreservesByteOrderOnRandomTypes) {
  // Property: the cursor's walk of the stored (canonical) program visits
  // exactly the bytes the constructor tree defines, in the same order,
  // element by element, for any constructor mix.
  std::mt19937 rng(20160531);  // the paper's conference date as seed
  for (int i = 0; i < 200; ++i) {
    auto dt = test::random_datatype(rng);
    for (std::int64_t count : {1, 3}) {
      const auto walked = walked_elements(dt, count);
      const auto tree = tree_elements(dt, count);
      for (std::size_t e = 0; e < tree.size(); ++e) {
        EXPECT_EQ(walked[e], tree[e]) << dt->describe_tree()
                                      << " count=" << count << " element "
                                      << e;
      }
    }
  }
}

TEST(Canonical, NeverSlowerThanHandFlattened) {
  // Träff self-consistency: the conversion cost drivers (emitted units,
  // walked pieces) of a constructor-built type equal those of its
  // hand-flattened form, so the canonicalized type is never slower.
  auto v = Datatype::vector(8, 4, 6, kDouble());
  std::vector<std::int64_t> lens(8, 4);
  std::vector<std::int64_t> displs(8);
  for (int i = 0; i < 8; ++i) displs[i] = i * 6;
  auto flat = Datatype::indexed(lens, displs, kDouble());
  core::DevCursor a(v, 1, 1024);
  core::DevCursor b(flat, 1, 1024);
  CudaDevDist bufa[64];
  CudaDevDist bufb[64];
  std::vector<CudaDevDist> ua;
  std::vector<CudaDevDist> ub;
  for (std::size_t n = 0; (n = a.next_units(bufa)) > 0;)
    ua.insert(ua.end(), bufa, bufa + n);
  for (std::size_t n = 0; (n = b.next_units(bufb)) > 0;)
    ub.insert(ub.end(), bufb, bufb + n);
  EXPECT_EQ(ua, ub);
  EXPECT_EQ(a.pieces_visited(), b.pieces_visited());
}

TEST(Canonical, EngineShapeDedupHitOnSecondBuild) {
  // Two structurally equal but differently constructed irregular types:
  // the second build must hit the shape-keyed cache, not recompile.
  sg::Machine m{test::machine_config(1)};
  sg::HostContext ctx(m, 0);
  obs::Recorder rec;
  core::EngineConfig cfg;
  cfg.recorder = &rec;
  core::GpuDatatypeEngine eng(ctx, cfg);
  // Triangle built as indexed...
  auto t1 = core::lower_triangular_type(24, 24);
  // ...and the same triangle hand-built as hindexed over bytes.
  std::vector<std::int64_t> lens(24);
  std::vector<std::int64_t> displs(24);
  for (std::int64_t j = 0; j < 24; ++j) {
    lens[static_cast<std::size_t>(j)] = 24 - j;
    displs[static_cast<std::size_t>(j)] = (j * 24 + j) * 8;
  }
  auto t2 = Datatype::hindexed(lens, displs, kDouble());
  ASSERT_NE(t1->type_id(), t2->type_id());
  ASSERT_EQ(t1->shape_digest(), t2->shape_digest());
  ASSERT_FALSE(t1->regular_pattern(1).has_value());  // genuinely irregular
  void* base = sg::Malloc(ctx, static_cast<std::size_t>(t2->extent()));
  void* packed = sg::Malloc(ctx, static_cast<std::size_t>(t1->size()));
  auto warm = eng.start(core::GpuDatatypeEngine::Dir::kPack, t1, 1, base);
  eng.drain(*warm, packed);
  EXPECT_EQ(eng.cache().size(), 1u);
  auto op = eng.start(core::GpuDatatypeEngine::Dir::kPack, t2, 1, base);
  EXPECT_TRUE(op->used_cache());
  eng.finish(*op);
  EXPECT_EQ(eng.cache().size(), 1u);  // still one entry, shared by shape
  EXPECT_EQ(rec.metrics().value("dev_cache.shape_dedup.hits"), 1);
  sg::Free(ctx, packed);
  sg::Free(ctx, base);
}

}  // namespace
}  // namespace gpuddt::mpi

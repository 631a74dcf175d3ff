// Parameterized property sweeps of the GPU datatype engine: every layout
// class x work-unit size x fragment geometry must round-trip bit-exact,
// and the invariants (exact byte budgets, monotone progress, cache
// coherence across configurations) must hold everywhere.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "core/engine.h"
#include "core/layouts.h"
#include "test_helpers.h"

namespace gpuddt::core {
namespace {

using Dir = GpuDatatypeEngine::Dir;

enum class Layout {
  kVector,
  kVectorOdd,       // misaligned stride/len
  kTriangular,
  kStair,
  kTranspose,
  kStruct,
  kSubarray,
  kDarray,
};

const char* layout_name(Layout l) {
  switch (l) {
    case Layout::kVector: return "vector";
    case Layout::kVectorOdd: return "vector_odd";
    case Layout::kTriangular: return "triangular";
    case Layout::kStair: return "stair";
    case Layout::kTranspose: return "transpose";
    case Layout::kStruct: return "struct";
    case Layout::kSubarray: return "subarray";
    case Layout::kDarray: return "darray";
  }
  return "?";
}

mpi::DatatypePtr make_layout(Layout l) {
  using mpi::Datatype;
  switch (l) {
    case Layout::kVector:
      return core::submatrix_type(64, 24, 96);
    case Layout::kVectorOdd:
      return Datatype::vector(37, 3, 7, mpi::kInt32());
    case Layout::kTriangular:
      return core::lower_triangular_type(72, 88);
    case Layout::kStair:
      return core::stair_triangular_type(64, 64, 16);
    case Layout::kTranspose:
      return core::transpose_type(20, 20);
    case Layout::kStruct: {
      const std::int64_t lens[] = {3, 2, 5};
      const std::int64_t displs[] = {0, 40, 80};
      const mpi::DatatypePtr types[] = {mpi::kInt32(), mpi::kDouble(),
                                        mpi::kFloat()};
      return Datatype::struct_type(lens, displs, types);
    }
    case Layout::kSubarray: {
      const std::int64_t sizes[] = {30, 40};
      const std::int64_t subsizes[] = {11, 13};
      const std::int64_t starts[] = {5, 9};
      return Datatype::subarray(sizes, subsizes, starts, mpi::kDouble(),
                                Datatype::Order::kFortran);
    }
    case Layout::kDarray: {
      const std::int64_t gs[] = {48, 36};
      const Datatype::Distrib ds[] = {Datatype::Distrib::kCyclic,
                                      Datatype::Distrib::kCyclic};
      const std::int64_t da[] = {8, 4};
      const std::int64_t ps[] = {2, 2};
      return Datatype::darray(4, 3, gs, ds, da, ps, mpi::kDouble(),
                              Datatype::Order::kFortran);
    }
  }
  return mpi::kByte();
}

class EngineSweep
    : public ::testing::TestWithParam<std::tuple<Layout, std::int64_t, int>> {
};

TEST_P(EngineSweep, RoundTripsExactly) {
  const auto [layout, unit_bytes, frag_sel] = GetParam();
  const std::int64_t frag_bytes = 300 + 977 * frag_sel;  // odd sizes on purpose
  sg::Machine m{test::machine_config(1)};
  sg::HostContext ctx(m, 0);
  EngineConfig cfg;
  cfg.unit_bytes = unit_bytes;
  GpuDatatypeEngine eng(ctx, cfg);

  auto dt = make_layout(layout);
  const std::int64_t count = 2;
  const std::int64_t total = dt->size() * count;
  const std::int64_t span = test::span_bytes(dt, count);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, total + 8));
  auto* back = static_cast<std::byte*>(sg::Malloc(ctx, span));
  test::fill_pattern(src, static_cast<std::size_t>(span), 1);
  std::memset(back, 0, static_cast<std::size_t>(span));
  std::byte* src_base = src - dt->true_lb();
  std::byte* back_base = back - dt->true_lb();

  // Pack with exact odd-sized budgets.
  auto pack = eng.start(Dir::kPack, dt, count, src_base);
  while (!pack->done()) {
    const std::int64_t before = pack->bytes_done();
    const auto r = eng.process_some(*pack, packed + before, frag_bytes);
    ASSERT_EQ(r.bytes, std::min(frag_bytes, total - before))
        << layout_name(layout);
    ASSERT_EQ(pack->bytes_done(), before + r.bytes);
  }
  eng.finish(*pack);
  const auto ref = test::reference_pack(dt, count, src_base);
  ASSERT_EQ(std::memcmp(packed, ref.data(), ref.size()), 0)
      << layout_name(layout) << " S=" << unit_bytes;

  // Unpack with a different (also odd) budget.
  auto unpack = eng.start(Dir::kUnpack, dt, count, back_base);
  eng.drain(*unpack, packed, 0, frag_bytes + 129);
  EXPECT_EQ(test::reference_pack(dt, count, back_base), ref)
      << layout_name(layout) << " S=" << unit_bytes;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, EngineSweep,
    ::testing::Combine(
        ::testing::Values(Layout::kVector, Layout::kVectorOdd,
                          Layout::kTriangular, Layout::kStair,
                          Layout::kTranspose, Layout::kStruct,
                          Layout::kSubarray, Layout::kDarray),
        ::testing::Values<std::int64_t>(256, 1024, 4096),
        ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::string(layout_name(std::get<0>(info.param))) + "_S" +
             std::to_string(std::get<1>(info.param)) + "_f" +
             std::to_string(std::get<2>(info.param));
    });

class CachedSweep : public ::testing::TestWithParam<Layout> {};

TEST_P(CachedSweep, CachedPathMatchesLivePath) {
  sg::Machine m{test::machine_config(1)};
  sg::HostContext ctx(m, 0);
  GpuDatatypeEngine eng(ctx, {});
  auto dt = make_layout(GetParam());
  const std::int64_t total = dt->size();
  const std::int64_t span = test::span_bytes(dt, 1);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* p1 = static_cast<std::byte*>(sg::Malloc(ctx, total + 8));
  auto* p2 = static_cast<std::byte*>(sg::Malloc(ctx, total + 8));
  test::fill_pattern(src, static_cast<std::size_t>(span), 5);
  std::byte* base = src - dt->true_lb();

  auto run_pack = [&](std::byte* out) {
    auto op = eng.start(Dir::kPack, dt, 1, base);
    eng.drain(*op, out, 0, 3000);
    return op->used_cache();
  };
  const bool first_cached = run_pack(p1);   // live conversion, fills cache
  const bool second_cached = run_pack(p2);  // cache hit
  if (!dt->regular_pattern(1)) {
    EXPECT_FALSE(first_cached);
    EXPECT_TRUE(second_cached);
  }
  EXPECT_EQ(std::memcmp(p1, p2, static_cast<std::size_t>(total)), 0);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, CachedSweep,
                         ::testing::Values(Layout::kTriangular, Layout::kStair,
                                           Layout::kTranspose, Layout::kStruct,
                                           Layout::kSubarray, Layout::kDarray),
                         [](const auto& info) {
                           return layout_name(info.param);
                         });

}  // namespace
}  // namespace gpuddt::core

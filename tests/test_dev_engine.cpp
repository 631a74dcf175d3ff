#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <set>

#include "core/dev.h"
#include "core/dev_cache.h"
#include "core/engine.h"
#include "core/kernels.h"
#include "core/layouts.h"
#include "mpi/pml.h"
#include "obs/recorder.h"
#include "test_helpers.h"

namespace gpuddt::core {
namespace {

using Dir = GpuDatatypeEngine::Dir;

// --- DevCursor --------------------------------------------------------------------

TEST(DevCursor, SplitsLargeBlocksAtUnitSize) {
  auto t = mpi::Datatype::contiguous(512, mpi::kDouble());  // 4096 B
  auto units = convert_all(t, 1, 1024);
  ASSERT_EQ(units.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(units[i].length, 1024);
    EXPECT_EQ(units[i].nc_disp, static_cast<std::int64_t>(i) * 1024);
    EXPECT_EQ(units[i].pk_disp, static_cast<std::int64_t>(i) * 1024);
  }
}

TEST(DevCursor, ResidueUnitsKeepRemainder) {
  auto t = mpi::Datatype::contiguous(300, mpi::kDouble());  // 2400 B
  auto units = convert_all(t, 1, 1024);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[2].length, 2400 - 2048);
}

TEST(DevCursor, PackedDisplacementsAreDense) {
  auto t = core::lower_triangular_type(32, 32);
  auto units = convert_all(t, 1, 1024);
  std::int64_t pk = 0;
  for (const auto& u : units) {
    EXPECT_EQ(u.pk_disp, pk);
    pk += u.length;
  }
  EXPECT_EQ(pk, t->size());
}

TEST(DevCursor, RejectsSubMinimumUnit) {
  EXPECT_THROW(DevCursor(mpi::kDouble(), 1, 128), std::invalid_argument);
}

TEST(DevCursor, IncrementalMatchesOneShot) {
  // The vector's second block [1200, 2000) abuts the next element's first
  // [2000, 2800): a 1600 B run across every seam, longer than S, so the
  // 7-unit buffer leaves a partly emitted run held between calls.
  const std::pair<mpi::DatatypePtr, std::int64_t> cases[] = {
      {core::lower_triangular_type(40, 48), 1},
      {mpi::Datatype::vector(2, 100, 150, mpi::kDouble()), 5}};
  for (const auto& [t, count] : cases) {
    auto whole = convert_all(t, count, 512);
    DevCursor cur(t, count, 512);
    std::vector<CudaDevDist> inc;
    CudaDevDist buf[7];
    for (;;) {
      const std::size_t n = cur.next_units(buf);
      if (n == 0) break;
      inc.insert(inc.end(), buf, buf + n);
      // done() counts the held run, not just the walk.
      EXPECT_EQ(cur.done(), inc.size() == whole.size()) << t->describe_tree();
    }
    ASSERT_EQ(inc.size(), whole.size()) << t->describe_tree();
    for (std::size_t i = 0; i < inc.size(); ++i) {
      EXPECT_EQ(inc[i], whole[i]) << t->describe_tree() << " unit " << i;
    }
    EXPECT_EQ(cur.bytes_emitted(), t->size() * count);
    if (count > 1) {
      // Some unit straddles an element seam.
      const std::int64_t ext = t->extent();
      EXPECT_TRUE(std::any_of(whole.begin(), whole.end(), [&](const auto& u) {
        return u.nc_disp / ext != (u.nc_disp + u.length - 1) / ext;
      })) << t->describe_tree();
    }
  }
}

TEST(DevCursor, MergesAbuttingPiecesAcrossElements) {
  // Element e's [32, 56) run and element e+1's [0, 28) form one 52 B run.
  const auto units = convert_all(test::particle_type(), 3, 1024);
  const std::vector<CudaDevDist> want = {
      {0, 0, 28}, {32, 28, 52}, {88, 80, 52}, {144, 132, 24}};
  EXPECT_EQ(units, want);
}

// --- DevCache ---------------------------------------------------------------------

TEST(DevCache, MissThenHit) {
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  DevCache cache;
  auto t = core::lower_triangular_type(16, 16);
  EXPECT_EQ(cache.find(t, 1, 1024), nullptr);
  cache.insert(ctx, t, 1, 1024, convert_all(t, 1, 1024));
  const auto* e = cache.find(t, 1, 1024);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->total_bytes, t->size());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(DevCache, KeyIncludesCountAndUnitSize) {
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  DevCache cache;
  auto t = core::lower_triangular_type(16, 16);
  cache.insert(ctx, t, 1, 1024, convert_all(t, 1, 1024));
  EXPECT_EQ(cache.find(t, 2, 1024), nullptr);
  EXPECT_EQ(cache.find(t, 1, 2048), nullptr);
}

TEST(DevCache, DeviceCopyUploadedOncePerDevice) {
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  DevCache cache;
  auto t = core::lower_triangular_type(16, 16);
  const auto* e = cache.insert(ctx, t, 1, 1024, convert_all(t, 1, 1024));
  const auto* d1 = cache.device_units(ctx, *e);
  const vt::Time after_first = ctx.clock.now();
  const auto* d2 = cache.device_units(ctx, *e);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(ctx.clock.now(), after_first);  // second call free
  EXPECT_TRUE(m.device(0).arena().contains(d1));
}

TEST(DevCache, EvictsLeastRecentlyUsed) {
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  DevCache cache(2);
  auto a = core::lower_triangular_type(8, 8);
  auto b = core::lower_triangular_type(9, 9);
  auto c = core::lower_triangular_type(10, 10);
  cache.insert(ctx, a, 1, 1024, convert_all(a, 1, 1024));
  cache.insert(ctx, b, 1, 1024, convert_all(b, 1, 1024));
  EXPECT_NE(cache.find(a, 1, 1024), nullptr);  // touch a
  cache.insert(ctx, c, 1, 1024, convert_all(c, 1, 1024));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(b, 1, 1024), nullptr);  // b was the LRU victim
  EXPECT_NE(cache.find(a, 1, 1024), nullptr);
}

TEST(DevCache, CountsEvictionsAndKeepsLruOrder) {
  // After the O(1)-touch refactor (iterators stored in the entry map, hits
  // promoted via splice), the recency order and the eviction counter must
  // both stay exact.
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  DevCache cache(3);
  auto a = core::lower_triangular_type(8, 8);
  auto b = core::lower_triangular_type(9, 9);
  auto c = core::lower_triangular_type(10, 10);
  auto d = core::lower_triangular_type(11, 11);
  cache.insert(ctx, a, 1, 1024, convert_all(a, 1, 1024));
  cache.insert(ctx, b, 1, 1024, convert_all(b, 1, 1024));
  cache.insert(ctx, c, 1, 1024, convert_all(c, 1, 1024));
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.lru_shape_digests(),
            (std::vector<std::uint64_t>{c->shape_digest(), b->shape_digest(),
                                        a->shape_digest()}));
  EXPECT_NE(cache.find(a, 1, 1024), nullptr);  // promote a
  EXPECT_NE(cache.find(b, 1, 1024), nullptr);  // promote b
  EXPECT_EQ(cache.lru_shape_digests(),
            (std::vector<std::uint64_t>{b->shape_digest(), a->shape_digest(),
                                        c->shape_digest()}));
  cache.insert(ctx, d, 1, 1024, convert_all(d, 1, 1024));  // evicts c
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(c, 1, 1024), nullptr);
  EXPECT_EQ(cache.lru_shape_digests(),
            (std::vector<std::uint64_t>{d->shape_digest(), b->shape_digest(),
                                        a->shape_digest()}));
  // Re-inserting an existing key only touches it; nothing is evicted.
  cache.insert(ctx, b, 1, 1024, convert_all(b, 1, 1024));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lru_shape_digests(),
            (std::vector<std::uint64_t>{b->shape_digest(), d->shape_digest(),
                                        a->shape_digest()}));
}

TEST(DevCache, ByteBoundEvictsUnderEntryBudget) {
  // Two 4-unit entries fit the entry budget comfortably but overflow a
  // 6-descriptor byte bound: the LRU one must go even though
  // max_entries would have kept both.
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  obs::Recorder rec;
  const std::int64_t d = sizeof(CudaDevDist);
  DevCache cache(64, 6 * d);
  cache.set_recorder(&rec);
  auto a = mpi::Datatype::contiguous(512, mpi::kDouble());  // 4096 B -> 4 units
  auto b = mpi::Datatype::contiguous(513, mpi::kDouble());  // 4104 B -> 5 units
  cache.insert(ctx, a, 1, 1024, convert_all(a, 1, 1024));
  EXPECT_EQ(cache.bytes(), 4 * d);
  cache.insert(ctx, b, 1, 1024, convert_all(b, 1, 1024));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(a, 1, 1024), nullptr);  // a was the byte-bound victim
  EXPECT_NE(cache.find(b, 1, 1024), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(rec.metrics().value("dev_cache.evictions_bytes"), 4 * d);
  EXPECT_EQ(cache.bytes(), 5 * d);
}

TEST(DevCache, ByteBoundKeepsOversizedNewestEntry) {
  // A single entry larger than max_bytes stays resident - evicting the
  // entry that was just inserted would make every insert a no-op.
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  const std::int64_t d = sizeof(CudaDevDist);
  DevCache cache(64, 2 * d);
  auto a = mpi::Datatype::contiguous(512, mpi::kDouble());  // 4 units > bound
  cache.insert(ctx, a, 1, 1024, convert_all(a, 1, 1024));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_NE(cache.find(a, 1, 1024), nullptr);
}

TEST(DevCache, ExportsByteCounters) {
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  obs::Recorder rec;
  const std::int64_t d = sizeof(CudaDevDist);
  DevCache cache(64, 6 * d);
  cache.set_recorder(&rec);
  auto a = mpi::Datatype::contiguous(512, mpi::kDouble());
  auto b = mpi::Datatype::contiguous(513, mpi::kDouble());
  cache.insert(ctx, a, 1, 1024, convert_all(a, 1, 1024));
  cache.insert(ctx, b, 1, 1024, convert_all(b, 1, 1024));  // evicts a
  auto counters = rec.metrics().counters_snapshot();
  EXPECT_EQ(counters.at("dev_cache.bytes"), cache.bytes());
  EXPECT_EQ(counters.at("dev_cache.evictions_bytes"), 4 * d);
  cache.clear(ctx);
  counters = rec.metrics().counters_snapshot();
  EXPECT_EQ(counters.at("dev_cache.bytes"), 0);
}

TEST(DevCache, KeyHashMixesAllFields) {
  // Regression: the previous `h * prime ^ hash(field)` mixing collapsed
  // for common small-integer fields (the xor of a near-identity
  // std::hash lands in the low bits the multiply just vacated). Proper
  // FNV-1a over all key bytes must give distinct hashes across a dense
  // grid of realistic small keys.
  std::set<std::uint64_t> seen;
  std::size_t n = 0;
  for (std::uint64_t shape = 1; shape <= 16; ++shape) {
    for (std::int64_t count = 1; count <= 16; ++count) {
      for (std::int64_t unit : {256, 512, 1024, 2048, 4096}) {
        seen.insert(DevCache::key_hash(shape, count, unit));
        ++n;
      }
    }
  }
  EXPECT_EQ(seen.size(), n);
  // Field transposition must not collide either.
  EXPECT_NE(DevCache::key_hash(1, 2, 1024), DevCache::key_hash(2, 1, 1024));
}

TEST(DevCache, ReinsertChargesByteDelta) {
  // Re-inserting an existing key with a different program size must
  // charge the byte delta, not double-count the entry (and must free the
  // stale device copies).
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  obs::Recorder rec;
  const std::int64_t d = sizeof(CudaDevDist);
  DevCache cache;
  cache.set_recorder(&rec);
  auto a = core::lower_triangular_type(16, 16);
  const auto* e = cache.insert(ctx, a, 1, 1024, convert_all(a, 1, 1024));
  const auto n0 = static_cast<std::int64_t>(e->units.size());
  EXPECT_EQ(cache.bytes(), n0 * d);
  cache.device_units(ctx, *e);  // upload, so the replace must free it
  // Same key, different program: a hand-built list of a different size.
  std::vector<CudaDevDist> other(static_cast<std::size_t>(n0) + 3);
  std::int64_t pk = 0;
  for (auto& u : other) {
    u = {pk, pk, 8};
    pk += 8;
  }
  cache.insert(ctx, a, 1, 1024, std::move(other));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), (n0 + 3) * d);  // delta charged, no double count
  const auto counters = rec.metrics().counters_snapshot();
  EXPECT_EQ(counters.at("dev_cache.bytes"), cache.bytes());
  EXPECT_EQ(cache.evictions(), 0u);
  // And an identical re-insert (the coalesce path) changes nothing.
  const auto* e2 = cache.find(a, 1, 1024);
  ASSERT_NE(e2, nullptr);
  auto same = e2->units;
  cache.insert(ctx, a, 1, 1024, std::move(same));
  EXPECT_EQ(cache.bytes(), (n0 + 3) * d);
}

TEST(DevCache, ShapeDedupAcrossInstances) {
  // Two structurally identical types built independently share one
  // entry; the second find/insert is counted as shape-dedup traffic.
  sg::Machine m;
  sg::HostContext ctx(m, 0);
  obs::Recorder rec;
  DevCache cache;
  cache.set_recorder(&rec);
  auto a = core::lower_triangular_type(16, 16);
  auto b = core::lower_triangular_type(16, 16);  // fresh instance
  ASSERT_NE(a->type_id(), b->type_id());
  ASSERT_EQ(a->shape_digest(), b->shape_digest());
  const obs::Registry& reg = rec.metrics();
  cache.insert(ctx, a, 1, 1024, convert_all(a, 1, 1024));
  EXPECT_NE(cache.find(b, 1, 1024), nullptr);  // hit, not a second entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(reg.value("dev_cache.shape_dedup.hits"), 1);
  cache.insert(ctx, b, 1, 1024, convert_all(b, 1, 1024));  // coalesced
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(reg.value("dev_cache.shape_dedup.inserts_coalesced"), 1);
  EXPECT_GT(reg.value("dev_cache.shape_dedup.bytes_saved"), 0);
}

// --- Kernels: functional + profile shape -----------------------------------------------

class KernelTest : public ::testing::Test {
 protected:
  sg::Machine m{test::machine_config(2)};
  sg::HostContext ctx{m, 0};
  sg::Stream stream{&m.device(0)};
};

TEST_F(KernelTest, VectorPackGathersCorrectBytes) {
  const std::int64_t rows = 16, cols = 8, ld = 32;
  auto dt = core::submatrix_type(rows, cols, ld);
  const std::int64_t span = ld * cols * 8;
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* dst = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  test::fill_pattern(src, static_cast<std::size_t>(span), 5);
  const auto pat = *dt->regular_pattern(1);
  pack_vector_kernel(ctx, stream, src, pat, 0, dt->size(), dst, 15);
  const auto ref = test::reference_pack(dt, 1, src);
  EXPECT_EQ(std::memcmp(dst, ref.data(), ref.size()), 0);
}

TEST_F(KernelTest, VectorPackSubRange) {
  auto dt = core::submatrix_type(16, 8, 32);
  const std::int64_t span = 32 * 8 * 8;
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* dst = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  test::fill_pattern(src, static_cast<std::size_t>(span), 6);
  const auto pat = *dt->regular_pattern(1);
  // Pack in three uneven pieces.
  const std::int64_t cuts[] = {0, 100, 500, dt->size()};
  for (int i = 0; i < 3; ++i)
    pack_vector_kernel(ctx, stream, src, pat, cuts[i], cuts[i + 1],
                       dst + cuts[i], 15);
  const auto ref = test::reference_pack(dt, 1, src);
  EXPECT_EQ(std::memcmp(dst, ref.data(), ref.size()), 0);
}

TEST_F(KernelTest, VectorUnpackInvertsPack) {
  auto dt = core::submatrix_type(12, 5, 20);
  const std::int64_t span = 20 * 5 * 8;
  auto* orig = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  auto* back = static_cast<std::byte*>(sg::Malloc(ctx, span));
  test::fill_pattern(orig, static_cast<std::size_t>(span), 7);
  std::memset(back, 0, static_cast<std::size_t>(span));
  const auto pat = *dt->regular_pattern(1);
  pack_vector_kernel(ctx, stream, orig, pat, 0, dt->size(), packed, 15);
  unpack_vector_kernel(ctx, stream, back, pat, 0, dt->size(), packed, 15);
  const auto a = test::reference_pack(dt, 1, orig);
  const auto b = test::reference_pack(dt, 1, back);
  EXPECT_EQ(a, b);
}

TEST_F(KernelTest, DevPackMatchesCpuReference) {
  auto dt = core::lower_triangular_type(48, 64);
  const std::int64_t span = 64 * 48 * 8;
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* dst = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  test::fill_pattern(src, static_cast<std::size_t>(span), 8);
  auto units = convert_all(dt, 1, 1024);
  pack_dev_kernel(ctx, stream, src, {units}, 0, dst, nullptr, 15);
  const auto ref = test::reference_pack(dt, 1, src);
  EXPECT_EQ(std::memcmp(dst, ref.data(), ref.size()), 0);
}

TEST_F(KernelTest, DevUnpackInvertsPack) {
  auto dt = core::lower_triangular_type(32, 40);
  const std::int64_t span = 40 * 32 * 8;
  auto* orig = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  auto* back = static_cast<std::byte*>(sg::Malloc(ctx, span));
  test::fill_pattern(orig, static_cast<std::size_t>(span), 9);
  std::memset(back, 0, static_cast<std::size_t>(span));
  auto units = convert_all(dt, 1, 512);
  pack_dev_kernel(ctx, stream, orig, {units}, 0, packed, nullptr, 15);
  unpack_dev_kernel(ctx, stream, back, {units}, 0, packed, nullptr, 15);
  EXPECT_EQ(test::reference_pack(dt, 1, orig),
            test::reference_pack(dt, 1, back));
}

TEST_F(KernelTest, AlignedVectorNearsMemcpyBandwidth) {
  // Large aligned vector: kernel duration within ~15% of a d2d memcpy
  // (the paper's Figure 6 shows ~94% of the copy-engine peak).
  const std::int64_t rows = 3968, cols = 2048, ld = 4096;  // 31KB columns
  auto dt = core::submatrix_type(rows, cols, ld);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, ld * cols * 8));
  auto* dst = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  const auto pat = *dt->regular_pattern(1);
  const vt::Time start = ctx.clock.now();
  const vt::Time fin =
      pack_vector_kernel(ctx, stream, src, pat, 0, dt->size(), dst, 64);
  const vt::Time kernel = fin - start;
  const vt::Time memcpy_time = ctx.cost().d2d_copy_ns(dt->size());
  EXPECT_LT(static_cast<double>(kernel),
            1.15 * static_cast<double>(memcpy_time));
  EXPECT_GT(static_cast<double>(kernel),
            1.01 * static_cast<double>(memcpy_time));
}

TEST_F(KernelTest, MisalignedUnitsCostMoreTransactions) {
  // Same payload; one unit set aligned to 128B, one drifting by 8B.
  std::vector<CudaDevDist> aligned, drifting;
  for (int i = 0; i < 64; ++i) {
    aligned.push_back({i * 1024, i * 1024, 1024});
    drifting.push_back({i * 1032, i * 1024, 1024});
  }
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, 1 << 20));
  auto* dst = static_cast<std::byte*>(sg::Malloc(ctx, 1 << 20));
  auto* dst2 = static_cast<std::byte*>(sg::Malloc(ctx, 1 << 20));
  sg::Stream s1(&m.device(0)), s2(&m.device(0));
  const vt::Time f1 = pack_dev_kernel(ctx, s1, src, {aligned}, 0, dst, nullptr, 15);
  const vt::Time base1 = s1.tail();
  const vt::Time f2 =
      pack_dev_kernel(ctx, s2, src, {drifting}, 0, dst2, nullptr, 15);
  (void)base1;
  // Durations: compare net-of-queue times via fresh streams.
  EXPECT_GT(f2 - f1, 0);
}

TEST_F(KernelTest, ZeroCopyPackChargesPcie) {
  auto dt = core::submatrix_type(64, 16, 128);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, 128 * 16 * 8));
  auto* host = static_cast<std::byte*>(sg::HostAlloc(ctx, dt->size(), true));
  const auto pat = *dt->regular_pattern(1);
  pack_vector_kernel(ctx, stream, src, pat, 0, dt->size(), host, 15);
  EXPECT_GT(m.device(0).pcie().total_busy(), 0);
  // Functional result still correct.
  const auto ref = test::reference_pack(dt, 1, src);
  EXPECT_EQ(std::memcmp(host, ref.data(), ref.size()), 0);
}

// --- Engine -----------------------------------------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  sg::Machine m{test::machine_config(2)};
  sg::HostContext ctx{m, 0};
};

void run_roundtrip(sg::HostContext& ctx, GpuDatatypeEngine& eng,
                   const mpi::DatatypePtr& dt, std::int64_t count,
                   std::int64_t frag_bytes) {
  const std::int64_t total = dt->size() * count;
  const std::int64_t span = test::span_bytes(dt, count);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, total + 1));
  auto* back = static_cast<std::byte*>(sg::Malloc(ctx, span));
  test::fill_pattern(src, static_cast<std::size_t>(span), 11);
  std::memset(back, 0, static_cast<std::size_t>(span));
  std::byte* src_base = src - dt->true_lb();
  std::byte* back_base = back - dt->true_lb();

  auto pack = eng.start(Dir::kPack, dt, count, src_base);
  while (!pack->done()) {
    const auto r =
        eng.process_some(*pack, packed + pack->bytes_done(), frag_bytes);
    ASSERT_EQ(r.bytes, std::min(frag_bytes, total - (pack->bytes_done() -
                                                     r.bytes)));
    if (r.bytes == 0) break;
  }
  eng.finish(*pack);
  const auto ref = test::reference_pack(dt, count, src_base);
  ASSERT_EQ(std::memcmp(packed, ref.data(), ref.size()), 0)
      << dt->describe();

  auto unpack = eng.start(Dir::kUnpack, dt, count, back_base);
  eng.drain(*unpack, packed, 0, frag_bytes);
  EXPECT_EQ(test::reference_pack(dt, count, back_base), ref)
      << dt->describe();
  sg::Free(ctx, src);
  sg::Free(ctx, packed);
  sg::Free(ctx, back);
}

TEST_F(EngineTest, VectorFastPathRoundTrip) {
  GpuDatatypeEngine eng(ctx);
  auto dt = core::submatrix_type(64, 32, 100);
  auto op = eng.start(Dir::kPack, dt, 1, nullptr);
  EXPECT_TRUE(op->on_vector_path());
  run_roundtrip(ctx, eng, dt, 1, 8192);
}

TEST_F(EngineTest, TriangularDevPathRoundTrip) {
  GpuDatatypeEngine eng(ctx);
  run_roundtrip(ctx, eng, core::lower_triangular_type(64, 80), 1, 8192);
}

TEST_F(EngineTest, TransposeTypeRoundTrip) {
  GpuDatatypeEngine eng(ctx);
  run_roundtrip(ctx, eng, core::transpose_type(24, 24), 1, 4096);
}

TEST_F(EngineTest, OddFragmentBoundariesSplitUnits) {
  GpuDatatypeEngine eng(ctx);
  // Fragment size deliberately not a multiple of the unit size.
  run_roundtrip(ctx, eng, core::lower_triangular_type(48, 48), 1, 1000);
}

TEST_F(EngineTest, MultiCountRoundTrip) {
  GpuDatatypeEngine eng(ctx);
  run_roundtrip(ctx, eng, core::submatrix_type(16, 4, 24), 5, 2048);
}

TEST_F(EngineTest, RandomTypesRoundTrip) {
  GpuDatatypeEngine eng(ctx);
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    auto dt = test::random_datatype(rng);
    if (dt->size() == 0) continue;
    run_roundtrip(ctx, eng, dt, 1 + trial % 3, 512 + 256 * (trial % 5));
  }
}

TEST_F(EngineTest, SecondPackHitsCache) {
  GpuDatatypeEngine eng(ctx);
  auto dt = core::lower_triangular_type(64, 64);
  run_roundtrip(ctx, eng, dt, 1, 8192);
  EXPECT_GE(eng.cache().size(), 1u);
  auto op = eng.start(Dir::kPack, dt, 1, nullptr);
  EXPECT_TRUE(op->used_cache());
}

TEST_F(EngineTest, CachedUnitsCountedAcrossWindows) {
  // Each launch window is cut out of the unit list the op already holds:
  // a cache entry, a stage_all batch (driven by process_triggered) or a
  // live conversion chunk. The window skips the first unit's consumed
  // bytes and cuts the last unit at the budget. For every source, type
  // and budget:
  //  * the packed bytes equal cpu_pack's, and the unpack restores them;
  //  * every window holds the units the budget-trimming walk below
  //    replays; on a cache hit, engine.units.from_cache counts a unit
  //    once per window it appears in and _distinct counts it once;
  //  * each op completes at the virtual time pinned below, so a split
  //    unit priced whole fails;
  //  * each window runs against its own slot between guard bytes, so a
  //    split unit copied whole fails: a pack past its cut or before its
  //    skip writes a guard, an unpack reads one into the user buffer.
  // The particle's runs merge across element seams, so most of its units
  // are 52 B, not 28 and 24.
  enum Source { kCached, kBatched, kFresh, kSources };
  const mpi::DatatypePtr types[] = {core::lower_triangular_type(64, 64),
                                    test::particle_type()};
  const std::int64_t counts[] = {1, 300};
  const std::int64_t budgets[] = {1000, 1024, 4104, 0};  // 0: whole
  // {pack, unpack} completion per [source][type][budget].
  const vt::Time pinned[kSources][2][4][2] = {
      {// cached
       {{132928, 243558}, {132927, 243556}, {54932, 87566}, {28934, 35570}},
       {{128843, 233171}, {128842, 233169}, {50849, 77183}, {31348, 38181}}},
      {// stage_all batch
       {{132928, 243558}, {132927, 243556}, {54932, 87566}, {28934, 39584}},
       {{128843, 233171}, {128842, 233169}, {50849, 77183}, {31348, 42556}}},
      {// fresh conversion
       {{196838, 375517}, {196836, 375518}, {70809, 123464}, {28934, 39584}},
       {{188559, 357298}, {188550, 357287}, {62591, 105305}, {31348, 42556}}}};
  for (int source = 0; source < kSources; ++source) {
    for (int t = 0; t < 2; ++t) {
      for (int b = 0; b < 4; ++b) {
        const mpi::DatatypePtr& dt = types[t];
        const std::int64_t count = counts[t];
        const std::int64_t total = dt->size() * count;
        const std::int64_t budget = budgets[b] > 0 ? budgets[b] : total;
        SCOPED_TRACE(testing::Message() << "source " << source << " type "
                                        << t << " budget " << budget);
        // Replay the budget-trimming walk on the host units: units per
        // window, and units first touched.
        const auto units = convert_all(dt, count, 1024);
        std::vector<std::int64_t> expected;
        std::size_t pos = 0;
        std::int64_t off = 0;
        while (pos < units.size()) {
          std::int64_t left = budget;
          expected.push_back(0);
          while (pos < units.size() && left > 0) {
            const std::int64_t take = std::min(units[pos].length - off, left);
            ++expected.back();
            left -= take;
            off += take;
            if (off == units[pos].length) {
              off = 0;
              ++pos;
            }
          }
        }
        std::int64_t pieces = 0;
        for (const std::int64_t n : expected) pieces += n;

        // A fresh machine per case keeps the pinned times independent.
        sg::Machine mach(test::machine_config(1));
        sg::HostContext c(mach, 0);
        obs::Recorder rec;
        rec.enable_tracing();
        EngineConfig cfg;
        cfg.recorder = &rec;
        cfg.cache_enabled = source == kCached;
        GpuDatatypeEngine eng(c, cfg);
        if (source == kCached) eng.prefetch(dt, count);
        const std::int64_t span = test::span_bytes(dt, count);
        auto* src = static_cast<std::byte*>(sg::Malloc(c, span));
        auto* back = static_cast<std::byte*>(sg::Malloc(c, span));
        auto* packed = static_cast<std::byte*>(sg::Malloc(c, total));
        test::fill_pattern(src, static_cast<std::size_t>(span), 29);
        std::memset(back, 0, static_cast<std::size_t>(span));
        std::byte* src_base = src - dt->true_lb();
        std::byte* back_base = back - dt->true_lb();

        constexpr std::int64_t kGuard = 1024;
        const auto stage_bytes = static_cast<std::size_t>(budget + 2 * kGuard);
        auto* stage = static_cast<std::byte*>(sg::Malloc(c, stage_bytes));
        std::byte* slot = stage + kGuard;
        std::int64_t guard_hits = 0;
        auto run = [&](Dir dir, std::byte* user) {
          auto op = eng.start(dir, dt, count, user);
          EXPECT_EQ(op->used_cache(), source == kCached);
          if (source == kBatched) eng.stage_all(*op);
          vt::Time ready = 0;
          while (!op->done()) {
            const std::int64_t at = op->bytes_done();
            const auto n =
                static_cast<std::size_t>(std::min(budget, total - at));
            std::memset(stage, 0x5A, stage_bytes);
            if (dir == Dir::kUnpack) std::memcpy(slot, packed + at, n);
            const auto r = source == kBatched
                               ? eng.process_triggered(*op, slot, budget, 0, 0)
                               : eng.process_some(*op, slot, budget);
            EXPECT_EQ(r.bytes, static_cast<std::int64_t>(n));
            if (r.bytes == 0) break;
            if (dir == Dir::kPack) std::memcpy(packed + at, slot, n);
            for (std::size_t i = 0; i < stage_bytes; ++i) {
              const bool guard = i < kGuard || i >= kGuard + n;
              if (guard && stage[i] != std::byte{0x5A}) ++guard_hits;
            }
            ready = std::max(ready, r.ready);
          }
          eng.finish(*op);
          return ready;
        };
        const vt::Time pack_ready = run(Dir::kPack, src_base);
        const auto ref = test::reference_pack(dt, count, src_base);
        EXPECT_EQ(std::memcmp(packed, ref.data(), ref.size()), 0);
        const vt::Time unpack_ready = run(Dir::kUnpack, back_base);
        EXPECT_EQ(test::reference_pack(dt, count, back_base), ref);
        EXPECT_EQ(guard_hits, 0);
        EXPECT_EQ(pack_ready, pinned[source][t][b][0]);
        EXPECT_EQ(unpack_ready, pinned[source][t][b][1]);

        std::vector<std::int64_t> windows;
        for (const auto& ev : rec.trace().snapshot())
          if (ev.name == "dev_kernel") windows.push_back(ev.arg0);
        const std::size_t n = expected.size();
        ASSERT_EQ(windows.size(), 2 * n);
        EXPECT_EQ(std::vector<std::int64_t>(windows.begin(),
                                            windows.begin() + n),
                  expected);
        EXPECT_EQ(std::vector<std::int64_t>(windows.begin() + n,
                                            windows.end()),
                  expected);
        const std::int64_t ops = source == kCached ? 2 : 0;
        EXPECT_EQ(test::counter(rec, "engine.units.from_cache"),
                  ops * pieces);
        EXPECT_EQ(test::counter(rec, "engine.units.from_cache_distinct"),
                  ops * static_cast<std::int64_t>(units.size()));
      }
    }
  }
}

TEST_F(EngineTest, CacheDisabledNeverCaches) {
  EngineConfig cfg;
  cfg.cache_enabled = false;
  GpuDatatypeEngine eng(ctx, cfg);
  auto dt = core::lower_triangular_type(32, 32);
  run_roundtrip(ctx, eng, dt, 1, 8192);
  EXPECT_EQ(eng.cache().size(), 0u);
}

TEST_F(EngineTest, CachedPackIsFasterThanFirstPack) {
  GpuDatatypeEngine eng(ctx);
  auto dt = core::lower_triangular_type(256, 256);
  const std::int64_t total = dt->size();
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, 256 * 256 * 8));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, total));

  auto time_pack = [&]() {
    const vt::Time t0 = ctx.clock.now();
    auto op = eng.start(Dir::kPack, dt, 1, src);
    ctx.clock.wait_until(eng.drain(*op, packed).ready);
    return ctx.clock.now() - t0;
  };
  const vt::Time first = time_pack();
  const vt::Time second = time_pack();
  EXPECT_LT(second, first);
}

TEST_F(EngineTest, PipelinedConversionBeatsSequential) {
  auto dt = core::lower_triangular_type(512, 512);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, 512 * 512 * 8));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));

  auto run_with = [&](bool pipelined) {
    EngineConfig cfg;
    cfg.cache_enabled = false;
    cfg.pipeline_conversion = pipelined;
    sg::HostContext local(m, 0);
    GpuDatatypeEngine eng(local, cfg);
    const vt::Time t0 = local.clock.now();
    auto op = eng.start(Dir::kPack, dt, 1, src);
    local.clock.wait_until(eng.drain(*op, packed).ready);
    return local.clock.now() - t0;
  };
  const vt::Time sequential = run_with(false);
  m.reset_timing();
  const vt::Time pipelined = run_with(true);
  EXPECT_LT(static_cast<double>(pipelined),
            0.80 * static_cast<double>(sequential));
}

TEST_F(EngineTest, DependencyDelaysKernel) {
  GpuDatatypeEngine eng(ctx);
  auto dt = core::submatrix_type(16, 4, 32);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, 32 * 4 * 8));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  auto op = eng.start(Dir::kPack, dt, 1, src);
  const vt::Time dep = ctx.clock.now() + vt::msec(5);
  const auto r = eng.process_some(*op, packed, dt->size(), dep);
  EXPECT_GE(r.ready, dep);
}

TEST_F(EngineTest, ResidueStreamVariantIsCorrect) {
  EngineConfig cfg;
  cfg.residue_separate_stream = true;
  GpuDatatypeEngine eng(ctx, cfg);
  // Triangular columns produce plenty of residue units.
  run_roundtrip(ctx, eng, core::lower_triangular_type(96, 120), 1, 8192);
  run_roundtrip(ctx, eng, core::transpose_type(24, 24), 1, 4096);
}

TEST_F(EngineTest, ResidueSplitMatchesSingleStreamByteForByte) {
  // The residue-stream variant partitions each window into full units and
  // residues before launching; the packed stream must nevertheless be
  // byte-identical to the single-stream path, cold and cached alike.
  auto dt = core::lower_triangular_type(96, 120);
  const std::int64_t span = test::span_bytes(dt, 1);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  test::fill_pattern(src, static_cast<std::size_t>(span), 21);
  std::byte* base = src - dt->true_lb();

  auto* out_plain = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  auto* out_split = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  auto pack_with = [&](GpuDatatypeEngine& eng, std::byte* out,
                       std::int64_t frag) {
    std::memset(out, 0, static_cast<std::size_t>(dt->size()));
    auto op = eng.start(Dir::kPack, dt, 1, base);
    eng.drain(*op, out, 0, frag);
  };

  EngineConfig plain_cfg;
  EngineConfig split_cfg;
  split_cfg.residue_separate_stream = true;
  GpuDatatypeEngine plain(ctx, plain_cfg);
  GpuDatatypeEngine split(ctx, split_cfg);
  // Cold pass (converting) and cached pass, with an odd fragment size so
  // windows end mid-unit.
  for (const std::int64_t frag : {std::int64_t{3000}, std::int64_t{3000},
                                  dt->size()}) {
    pack_with(plain, out_plain, frag);
    pack_with(split, out_split, frag);
    EXPECT_EQ(std::memcmp(out_plain, out_split,
                          static_cast<std::size_t>(dt->size())),
              0);
  }
}

TEST_F(EngineTest, ResidueSplitUploadsSplitOrderedDescriptors) {
  // Regression: the residue-stream path used to hand both launches a
  // device descriptor array laid out in ws_ order (or, when cached, the
  // cache's original-geometry array), while the host spans were reordered
  // full-first - so device-side descriptor indices no longer matched the
  // host span. The fix uploads the split-ordered descriptors, which is
  // observable as descriptor-upload traffic even on the cached path
  // (previously zero).
  obs::Recorder rec;
  EngineConfig cfg;
  cfg.residue_separate_stream = true;
  cfg.recorder = &rec;
  GpuDatatypeEngine eng(ctx, cfg);
  auto dt = core::lower_triangular_type(64, 64);
  run_roundtrip(ctx, eng, dt, 1, 8192);  // fills the cache
  ASSERT_GE(eng.cache().size(), 1u);

  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, 64 * 64 * 8));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  const std::int64_t uploads_before =
      rec.metrics().counter("engine.desc_uploads").value();
  auto op = eng.start(Dir::kPack, dt, 1, src);
  ASSERT_TRUE(op->used_cache());
  eng.drain(*op, packed, 0, 4096);
  EXPECT_GT(rec.metrics().counter("engine.desc_uploads").value(),
            uploads_before);
}

TEST_F(EngineTest, ResidueStreamCostsExtraLaunches) {
  // The paper treats residues like full units "to launch a single kernel
  // and therefore minimize launching overhead"; the alternative must
  // measure slower on residue-heavy types.
  auto dt = core::lower_triangular_type(512, 512);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, 512 * 512 * 8));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  auto time_with = [&](bool residue_stream) {
    EngineConfig cfg;
    cfg.cache_enabled = false;
    cfg.residue_separate_stream = residue_stream;
    sg::HostContext local(m, 0);
    GpuDatatypeEngine eng(local, cfg);
    const vt::Time t0 = local.clock.now();
    auto op = eng.start(Dir::kPack, dt, 1, src);
    local.clock.wait_until(eng.drain(*op, packed).ready);
    return local.clock.now() - t0;
  };
  const vt::Time equal_treatment = time_with(false);
  m.reset_timing();
  const vt::Time separate = time_with(true);
  EXPECT_GT(separate, equal_treatment);
}

TEST_F(EngineTest, DrainStampsChunkFlowsAndStopsAtLimit) {
  // drain(): chunk k of a chunked drain carries frag_flow(rank, id, k), a
  // limit stops the op exactly there, and an empty op launches nothing and
  // returns its dependency.
  obs::Recorder rec;
  rec.enable_tracing(true);
  EngineConfig cfg;
  cfg.recorder = &rec;
  GpuDatatypeEngine eng(ctx, cfg);
  auto dt = core::submatrix_type(64, 32, 100);  // vector path, 16 KiB
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, 64 * 100 * 8));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, dt->size()));
  test::fill_pattern(src, 64 * 100 * 8, 3);
  const std::int64_t chunk = 4096;
  const std::int64_t limit = 3 * chunk + 1000;
  auto op = eng.start(Dir::kPack, dt, 1, src);
  ASSERT_TRUE(op->on_vector_path());
  const auto r = eng.drain(*op, packed, 0, chunk, {3, 7}, limit);
  EXPECT_EQ(r.bytes, limit);
  EXPECT_EQ(op->bytes_done(), limit);
  const auto ref = test::reference_pack(dt, 1, src);
  EXPECT_EQ(std::memcmp(packed, ref.data(), static_cast<std::size_t>(limit)),
            0);
  std::vector<std::uint64_t> flows;
  vt::Time last_end = 0;
  for (const auto& ev : rec.trace().snapshot()) {
    if (ev.name != "vector_kernel") continue;
    flows.push_back(ev.flow);
    last_end = ev.end;
  }
  EXPECT_EQ(flows, (std::vector<std::uint64_t>{
                       mpi::frag_flow(3, 7, 0), mpi::frag_flow(3, 7, 1),
                       mpi::frag_flow(3, 7, 2), mpi::frag_flow(3, 7, 3)}));
  EXPECT_EQ(r.ready, last_end);

  auto empty =
      eng.start(Dir::kPack, mpi::Datatype::contiguous(0, mpi::kDouble()), 4,
                nullptr);
  const std::size_t events = rec.trace().snapshot().size();
  const vt::Time dep = ctx.clock.now() + vt::msec(1);
  const auto e = eng.drain(*empty, nullptr, dep, chunk, {3, 8});
  EXPECT_EQ(e.bytes, 0);
  EXPECT_EQ(e.ready, dep);
  EXPECT_EQ(rec.trace().snapshot().size(), events);
}

TEST_F(EngineTest, ZeroSizeOpCompletesImmediately) {
  GpuDatatypeEngine eng(ctx);
  auto dt = mpi::Datatype::contiguous(0, mpi::kDouble());
  auto op = eng.start(Dir::kPack, dt, 4, nullptr);
  EXPECT_TRUE(op->done());
  const auto r = eng.process_some(*op, nullptr, 100);
  EXPECT_EQ(r.bytes, 0);
}

}  // namespace
}  // namespace gpuddt::core

namespace gpuddt::core {
namespace {

TEST(Prefetch, WarmsCacheBeforeFirstPack) {
  sg::Machine m{test::machine_config(1, 128u << 20)};
  sg::HostContext ctx(m, 0);
  GpuDatatypeEngine eng(ctx);
  auto dt = core::lower_triangular_type(64, 64);
  eng.prefetch(dt, 1);
  EXPECT_EQ(eng.cache().size(), 1u);
  auto op = eng.start(GpuDatatypeEngine::Dir::kPack, dt, 1, nullptr);
  EXPECT_TRUE(op->used_cache());
}

TEST(Prefetch, ChargesConversionTime) {
  sg::Machine m{test::machine_config(1, 128u << 20)};
  sg::HostContext ctx(m, 0);
  GpuDatatypeEngine eng(ctx);
  auto dt = core::lower_triangular_type(256, 256);
  const vt::Time t0 = ctx.clock.now();
  eng.prefetch(dt, 1);
  EXPECT_GT(ctx.clock.now(), t0);
  // Idempotent and free the second time.
  const vt::Time t1 = ctx.clock.now();
  eng.prefetch(dt, 1);
  EXPECT_EQ(ctx.clock.now(), t1);
}

TEST(Prefetch, ChargesWalkPerPieceVisited) {
  // Regression: prefetch used to charge cpu_block_walk_ns per emitted
  // *unit* instead of per datatype piece visited, overstating the host
  // conversion cost whenever long contiguous pieces split into several
  // units (the convert_chunk path has always charged per piece).
  auto dt = core::lower_triangular_type(512, 512);
  DevCursor ref(dt, 1, 1024);
  std::size_t units_n = 0;
  CudaDevDist buf[256];
  for (;;) {
    const std::size_t n = ref.next_units(buf);
    if (n == 0) break;
    units_n += n;
  }
  const std::int64_t pieces = ref.pieces_visited();
  // Long triangular rows split at the 1KB unit size, so there are more
  // units than pieces - the configuration where the two formulas differ.
  ASSERT_GT(static_cast<std::int64_t>(units_n), pieces);

  // The device upload that prefetch also performs, measured on its own
  // machine so PCIe accounting cannot bleed between the measurements.
  vt::Time upload = 0;
  {
    sg::Machine m{test::machine_config(1, 128u << 20)};
    sg::HostContext ctx(m, 0);
    DevCache cache;
    const auto* e = cache.insert(ctx, dt, 1, 1024, convert_all(dt, 1, 1024));
    const vt::Time t0 = ctx.clock.now();
    cache.device_units(ctx, *e);
    upload = ctx.clock.now() - t0;
  }

  sg::Machine m{test::machine_config(1, 128u << 20)};
  sg::HostContext ctx(m, 0);
  GpuDatatypeEngine eng(ctx);
  const sg::CostModel& cm = ctx.cost();
  const vt::Time t0 = ctx.clock.now();
  eng.prefetch(dt, 1);
  const vt::Time elapsed = ctx.clock.now() - t0;

  const auto conv = static_cast<vt::Time>(
      cm.cpu_dev_emit_ns * static_cast<double>(units_n) +
      cm.cpu_block_walk_ns * static_cast<double>(pieces));
  const auto old_formula = static_cast<vt::Time>(
      cm.cpu_dev_emit_ns * static_cast<double>(units_n) +
      cm.cpu_block_walk_ns * static_cast<double>(units_n));
  ASSERT_NE(conv, old_formula);  // the fix is observable on this type
  EXPECT_EQ(elapsed, conv + upload);
}

TEST(Prefetch, SkipsVectorFastPath) {
  sg::Machine m{test::machine_config(1, 128u << 20)};
  sg::HostContext ctx(m, 0);
  GpuDatatypeEngine eng(ctx);
  eng.prefetch(core::submatrix_type(64, 16, 96), 1);
  EXPECT_EQ(eng.cache().size(), 0u);
}

}  // namespace
}  // namespace gpuddt::core

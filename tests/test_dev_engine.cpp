#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <stdexcept>

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
  // A resident key keeps its entry: re-inserting the same program
  // coalesces without charging its bytes again, and a different program
  // (only possible when two shapes share a digest) throws rather than
  // replacing the units other ops may be reading.
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
  EXPECT_EQ(cache.insert(ctx, a, 1, 1024, convert_all(a, 1, 1024)), e);
  EXPECT_EQ(cache.bytes(), n0 * d);
  // Same key, different program: a hand-built list of a different size.
  std::vector<CudaDevDist> other(static_cast<std::size_t>(n0) + 3);
  std::int64_t pk = 0;
  for (auto& u : other) {
    u = {pk, pk, 8};
    pk += 8;
  }
  EXPECT_THROW(cache.insert(ctx, a, 1, 1024, std::move(other)),
               std::logic_error);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), n0 * d);
  EXPECT_EQ(rec.metrics().counters_snapshot().at("dev_cache.bytes"),
            cache.bytes());
  EXPECT_EQ(cache.find(a, 1, 1024)->units, convert_all(a, 1, 1024));
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
  vector_kernel(ctx, stream, Dir::kPack, src, pat, 0, dt->size(), dst, 15);
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
    vector_kernel(ctx, stream, Dir::kPack, src, pat, cuts[i], cuts[i + 1],
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
  vector_kernel(ctx, stream, Dir::kPack, orig, pat, 0, dt->size(), packed, 15);
  vector_kernel(ctx, stream, Dir::kUnpack, back, pat, 0, dt->size(), packed,
                15);
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
  dev_kernel(ctx, stream, Dir::kPack, src, {units}, 0, dst, nullptr, 15);
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
  dev_kernel(ctx, stream, Dir::kPack, orig, {units}, 0, packed, nullptr, 15);
  dev_kernel(ctx, stream, Dir::kUnpack, back, {units}, 0, packed, nullptr, 15);
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
      vector_kernel(ctx, stream, Dir::kPack, src, pat, 0, dt->size(), dst, 64);
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
  const vt::Time f1 =
      dev_kernel(ctx, s1, Dir::kPack, src, {aligned}, 0, dst, nullptr, 15);
  const vt::Time base1 = s1.tail();
  const vt::Time f2 =
      dev_kernel(ctx, s2, Dir::kPack, src, {drifting}, 0, dst2, nullptr, 15);
  (void)base1;
  // Durations: compare net-of-queue times via fresh streams.
  EXPECT_GT(f2 - f1, 0);
}

TEST_F(KernelTest, ZeroCopyPackChargesPcie) {
  auto dt = core::submatrix_type(64, 16, 128);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, 128 * 16 * 8));
  auto* host = static_cast<std::byte*>(sg::HostAlloc(ctx, dt->size(), true));
  const auto pat = *dt->regular_pattern(1);
  vector_kernel(ctx, stream, Dir::kPack, src, pat, 0, dt->size(), host, 15);
  EXPECT_GT(m.device(0).pcie().total_busy(), 0);
  // Functional result still correct.
  const auto ref = test::reference_pack(dt, 1, src);
  EXPECT_EQ(std::memcmp(host, ref.data(), ref.size()), 0);
}

/// Records the finish time and ranges of the latest operation, each range
/// as (buffer, offset from that buffer's base, length, write).
class RangeRecorder : public sg::AccessObserver {
 public:
  struct Range {
    int buffer = -1;
    std::int64_t offset = 0;
    std::int64_t len = 0;
    bool write = false;
    bool operator==(const Range&) const = default;
  };

  /// Buffer i is [bases[i], bases[i] + sizes[i]).
  std::vector<const std::byte*> bases;
  std::vector<std::int64_t> sizes;
  vt::Time finish = 0;
  std::vector<Range> ranges;

  void on_op(const sg::OpInfo& info,
             std::span<const sg::MemRange> rs) override {
    finish = info.finish;
    ranges.clear();
    for (const sg::MemRange& r : rs) {
      const auto* p = static_cast<const std::byte*>(r.ptr);
      Range out{-1, 0, r.len, r.write};
      for (std::size_t i = 0; i < bases.size(); ++i) {
        if (p >= bases[i] && p < bases[i] + sizes[i]) {
          out.buffer = static_cast<int>(i);
          out.offset = p - bases[i];
        }
      }
      ranges.push_back(out);
    }
  }
  void on_release(const void*, std::size_t) override {}
  void on_reset() override {}
};

TEST(KernelPins, FinishTimesAndRangesPerSide) {
  // Every kernel - vector and DEV, pack and unpack - against a packed
  // side in local device memory, in a peer device and in mapped host
  // memory. The vector range starts and stops inside a block; the DEV
  // window skips into its first unit and cuts its last. Each launch runs
  // alone on a reset machine, and its finish time and its ranges (user
  // buffer 0, packed side 1, descriptors 2) are pinned.
  sg::Machine m{test::machine_config(2)};
  sg::HostContext ctx{m, 0};
  sg::HostContext peer{m, 1};
  sg::Stream stream{&m.device(0)};
  constexpr std::int64_t kUser = 16 << 10;
  constexpr std::int64_t kPacked = 4 << 10;
  auto* user = static_cast<std::byte*>(sg::Malloc(ctx, kUser));
  test::fill_pattern(user, kUser, 41);
  std::byte* const sides[3] = {
      static_cast<std::byte*>(sg::Malloc(ctx, kPacked)),
      static_cast<std::byte*>(sg::Malloc(peer, kPacked)),
      static_cast<std::byte*>(sg::HostAlloc(ctx, kPacked, true))};
  const mpi::RegularPattern pat{24, 300, 416, 8};
  const std::int64_t pk_lo = 40, pk_hi = 2300;
  const auto units = convert_all(core::lower_triangular_type(40, 40), 1, 256);
  const auto desc_bytes =
      static_cast<std::int64_t>(units.size() * sizeof(CudaDevDist));
  auto* desc = static_cast<CudaDevDist*>(sg::Malloc(ctx, desc_bytes));
  sg::Memcpy(ctx, desc, units.data(), static_cast<std::size_t>(desc_bytes));
  const DevWindow win{{units.data() + 2, 10}, 40, 10};
  const std::int64_t pk_base = units[2].pk_disp + 40;

  auto rec = std::make_unique<RangeRecorder>();
  RangeRecorder* seen = rec.get();
  m.set_observer(std::move(rec));
  using Range = RangeRecorder::Range;
  // [vector, dev][pack, unpack]
  const std::vector<Range> pinned_ranges[2][2] = {
      {// vector
       {{0, 64, 260, false}, {1, 0, 2260, true}, {0, 440, 300, false},
        {0, 856, 300, false}, {0, 1272, 300, false}, {0, 1688, 300, false},
        {0, 2104, 300, false}, {0, 2520, 300, false}, {0, 2936, 200, false}},
       {{1, 0, 2260, false}, {0, 64, 260, true}, {0, 440, 300, true},
        {0, 856, 300, true}, {0, 1272, 300, true}, {0, 1688, 300, true},
        {0, 2104, 300, true}, {0, 2520, 300, true}, {0, 2936, 200, true}}},
      {// DEV
       {{0, 368, 272, false}, {1, 0, 1430, true}, {0, 656, 304, false},
        {0, 984, 296, false}, {0, 1312, 288, false}, {0, 1640, 270, false},
        {2, 48, 240, false}},
       {{1, 0, 1430, false}, {0, 368, 272, true}, {0, 656, 304, true},
        {0, 984, 296, true}, {0, 1312, 288, true}, {0, 1640, 270, true},
        {2, 48, 240, false}}}};
  // [vector, dev][pack, unpack][local, peer, mapped host]
  const vt::Time pinned_finish[2][2][3] = {
      {{7956, 7982, 7913}, {7956, 7982, 7921}},
      {{7911, 7878, 7834}, {7911, 7878, 7840}}};
  for (int kind = 0; kind < 2; ++kind) {
    for (int d = 0; d < 2; ++d) {
      for (int side = 0; side < 3; ++side) {
        SCOPED_TRACE(testing::Message()
                     << "kind " << kind << " dir " << d << " side " << side);
        std::byte* packed = sides[side];
        seen->bases = {user, packed, reinterpret_cast<std::byte*>(desc)};
        seen->sizes = {kUser, kPacked, desc_bytes};
        m.reset_timing();
        ctx.clock.reset();
        stream.reset();
        const Dir dir = d == 0 ? Dir::kPack : Dir::kUnpack;
        const vt::Time finish =
            kind == 0 ? vector_kernel(ctx, stream, dir, user, pat, pk_lo,
                                      pk_hi, packed, 1)
                      : dev_kernel(ctx, stream, dir, user, win, pk_base,
                                   packed, desc + 2, 1);
        EXPECT_EQ(finish, seen->finish);
        EXPECT_EQ(finish, pinned_finish[kind][d][side]);
        EXPECT_EQ(seen->ranges, pinned_ranges[kind][d]);
      }
    }
  }
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
  // a cache entry, or the op's own list, converted all at once by
  // stage_all (driven by process_triggered) or chunk by chunk. The window
  // skips the first unit's consumed bytes and cuts the last unit at the
  // budget. For every source, type and budget:
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
       {{137564, 248194}, {137563, 248192}, {59568, 92202}, {33570, 40206}},
       {{133676, 238004}, {133675, 238002}, {55682, 82016}, {36181, 43014}}},
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
        const std::int64_t span = test::span_bytes(dt, count);
        auto* src = static_cast<std::byte*>(sg::Malloc(c, span));
        auto* back = static_cast<std::byte*>(sg::Malloc(c, span));
        auto* packed = static_cast<std::byte*>(sg::Malloc(c, total));
        test::fill_pattern(src, static_cast<std::size_t>(span), 29);
        std::memset(back, 0, static_cast<std::size_t>(span));
        std::byte* src_base = src - dt->true_lb();
        std::byte* back_base = back - dt->true_lb();
        if (source == kCached) {
          // One whole-message pack fills the cache.
          auto warm = eng.start(Dir::kPack, dt, count, src_base);
          eng.drain(*warm, packed);
          rec.trace().clear();
        }

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

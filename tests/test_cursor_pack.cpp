#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <utility>

#include "core/dev.h"
#include "core/layouts.h"
#include "mpi/cpu_pack.h"
#include "mpi/cursor.h"
#include "mpi/datatype.h"
#include "test_helpers.h"
#include "verify/verifier.h"

namespace gpuddt::mpi {
namespace {

std::vector<Block> all_blocks(const DatatypePtr& dt, std::int64_t count) {
  BlockCursor cur(dt, count);
  std::vector<Block> out;
  Block b;
  while (cur.next(&b)) out.push_back(b);
  return out;
}

/// `pieces` with each piece that starts where the previous one ended
/// merged into it.
std::vector<Block> merge_abutting(const std::vector<Block>& pieces) {
  std::vector<Block> out;
  for (const Block& p : pieces) {
    if (!out.empty() && out.back().offset + out.back().len == p.offset) {
      out.back().len += p.len;
    } else {
      out.push_back(p);
    }
  }
  return out;
}

void expect_same_blocks(const std::vector<Block>& got,
                        const std::vector<Block>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].offset, want[i].offset) << where << " block " << i;
    EXPECT_EQ(got[i].len, want[i].len) << where << " block " << i;
  }
}

TEST(BlockCursor, PrimitiveYieldsOneBlock) {
  auto blocks = all_blocks(kDouble(), 1);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].offset, 0);
  EXPECT_EQ(blocks[0].len, 8);
}

TEST(BlockCursor, CountAdvancesByExtent) {
  auto r = Datatype::resized(kDouble(), 0, 32);
  auto blocks = all_blocks(r, 3);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[1].offset, 32);
  EXPECT_EQ(blocks[2].offset, 64);
}

TEST(BlockCursor, VectorBlockSequence) {
  auto t = Datatype::vector(3, 2, 5, kDouble());
  auto blocks = all_blocks(t, 1);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].offset, 0);
  EXPECT_EQ(blocks[0].len, 16);
  EXPECT_EQ(blocks[1].offset, 40);
  EXPECT_EQ(blocks[2].offset, 80);
}

TEST(BlockCursor, TriangularColumns) {
  const std::int64_t n = 5;
  auto t = core::lower_triangular_type(n, n);
  auto blocks = all_blocks(t, 1);
  ASSERT_EQ(blocks.size(), static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(blocks[static_cast<std::size_t>(j)].offset, (j * n + j) * 8);
    EXPECT_EQ(blocks[static_cast<std::size_t>(j)].len, (n - j) * 8);
  }
}

TEST(BlockCursor, PartialBudgetSplitsBlocks) {
  auto t = Datatype::contiguous(8, kDouble());  // one 64-byte block
  BlockCursor cur(t, 1);
  Block b;
  ASSERT_TRUE(cur.next(24, &b));
  EXPECT_EQ(b.offset, 0);
  EXPECT_EQ(b.len, 24);
  ASSERT_TRUE(cur.next(100, &b));
  EXPECT_EQ(b.offset, 24);
  EXPECT_EQ(b.len, 40);
  EXPECT_TRUE(cur.done());
}

TEST(BlockCursor, BytesRemainingTracksProgress) {
  auto t = Datatype::vector(4, 2, 4, kDouble());
  BlockCursor cur(t, 2);
  EXPECT_EQ(cur.bytes_remaining(), 2 * 64);
  Block b;
  cur.next(10, &b);
  EXPECT_EQ(cur.bytes_remaining(), 128 - 10);
  EXPECT_EQ(cur.bytes_consumed(), 10);
}

TEST(BlockCursor, ZeroCountIsImmediatelyDone) {
  BlockCursor cur(kDouble(), 0);
  EXPECT_TRUE(cur.done());
  Block b;
  EXPECT_FALSE(cur.next(&b));
}

TEST(BlockCursor, NestedLoopsTraverseInOrder) {
  // vector of vectors: 2 outer blocks of (2 inner blocks of 1 double).
  auto inner = Datatype::vector(2, 1, 3, kDouble());
  auto outer = Datatype::hvector(2, 1, 100, inner);
  auto blocks = all_blocks(outer, 1);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0].offset, 0);
  EXPECT_EQ(blocks[1].offset, 24);
  EXPECT_EQ(blocks[2].offset, 100);
  EXPECT_EQ(blocks[3].offset, 124);
}

TEST(BlockCursor, SumOfBlocksEqualsSize) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    auto dt = test::random_datatype(rng);
    const std::int64_t count = 1 + trial % 4;
    auto blocks = all_blocks(dt, count);
    const std::int64_t sum = std::accumulate(
        blocks.begin(), blocks.end(), std::int64_t{0},
        [](std::int64_t acc, const Block& b) { return acc + b.len; });
    EXPECT_EQ(sum, dt->size() * count) << dt->describe();
  }
}

TEST(BlockCursor, PartialTraversalMatchesFullTraversal) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    auto dt = test::random_datatype(rng);
    const std::int64_t count = 1 + trial % 3;
    auto full = all_blocks(dt, count);
    // Re-walk with random small budgets and merge the pieces; merge the
    // reference the same way (adjacent full blocks may abut).
    BlockCursor cur(dt, count);
    std::vector<Block> pieces;
    std::uniform_int_distribution<int> budget(1, 17);
    Block b;
    while (cur.next(budget(rng), &b)) pieces.push_back(b);
    expect_same_blocks(merge_abutting(pieces), merge_abutting(full),
                       dt->describe());
  }
}

// --- One-block programs -----------------------------------------------------
//
// Primitives, contiguous(n, t), single-block resized and hindexed types
// compile to one kBlock, which the cursor walks without its frame stack.
// Their pieces must still be element e's block at e * extent + disp, split
// by the budget; cpu_pack charges those pieces merged into runs.

struct OneBlockCase {
  const char* name;
  DatatypePtr dt;
  std::int64_t disp;  // block offset within an element
  std::int64_t len;
  std::int64_t extent;
};

std::vector<OneBlockCase> one_block_cases() {
  const std::int64_t one[] = {1};
  const std::int64_t minus8[] = {-8};
  return {
      {"byte", kByte(), 0, 1, 1},
      {"double", kDouble(), 0, 8, 8},
      {"contiguous(5, int32)", Datatype::contiguous(5, kInt32()), 0, 20, 20},
      {"resized(double, 0, 24)", Datatype::resized(kDouble(), 0, 24), 0, 8,
       24},
      {"hindexed({1}, {-8}, double)",
       Datatype::hindexed(one, minus8, kDouble()), -8, 8, 8},
  };
}

/// Budget for the k-th piece: budgets[k], or unbounded when empty.
std::int64_t budget_at(const std::vector<std::int64_t>& budgets,
                       std::size_t k) {
  return budgets.empty() ? INT64_MAX : budgets.at(k);
}

/// Element e's block at e * extent + disp, cut by the per-piece budgets.
std::vector<Block> reference_pieces(const OneBlockCase& c, std::int64_t count,
                                    const std::vector<std::int64_t>& budgets) {
  std::vector<Block> out;
  for (std::int64_t e = 0; e < count; ++e) {
    for (std::int64_t at = 0; at < c.len;) {
      const std::int64_t take =
          std::min(c.len - at, budget_at(budgets, out.size()));
      out.push_back({e * c.extent + c.disp + at, take});
      at += take;
    }
  }
  return out;
}

TEST(BlockCursor, OneBlockPiecesMatchElementReference) {
  std::mt19937 rng(18);
  std::uniform_int_distribution<std::int64_t> draw(1, 17);
  for (const auto& c : one_block_cases()) {
    for (const std::int64_t count : {0, 1, 37}) {
      const std::string what = std::string(c.name) + " count " +
                               std::to_string(count);
      // cpu_pack copies the unbounded reference pieces merged into runs,
      // one memcpy each.
      const auto whole = reference_pieces(c, count, {});
      std::vector<std::byte> src(
          static_cast<std::size_t>(test::span_bytes(c.dt, count)));
      test::fill_pattern(src.data(), src.size(), 18);
      const std::byte* base = src.data() - c.dt->true_lb();
      std::vector<std::byte> ref, out(static_cast<std::size_t>(c.len * count));
      for (const Block& p : whole)
        ref.insert(ref.end(), base + p.offset, base + p.offset + p.len);
      const PackStats st = cpu_pack(c.dt, count, base, out);
      EXPECT_EQ(out, ref) << what;
      EXPECT_EQ(st.runs,
                static_cast<std::int64_t>(merge_abutting(whole).size()))
          << what;

      ASSERT_EQ(c.dt->program().size(), 1u) << c.name;
      for (const bool bounded : {false, true}) {
        // One budget per byte bounds the piece count, plus the final
        // call that finds the walk done.
        std::vector<std::int64_t> budgets;
        if (bounded) {
          for (std::int64_t i = 0; i <= c.len * count; ++i)
            budgets.push_back(draw(rng));
        }
        const auto want = reference_pieces(c, count, budgets);
        BlockCursor cur(c.dt, count);
        std::vector<Block> got;
        Block b;
        while (cur.next(budget_at(budgets, got.size()), &b)) got.push_back(b);
        const std::string where = what + (bounded ? " bounded" : " unbounded");
        expect_same_blocks(got, want, where);
        EXPECT_EQ(cur.pieces_produced(),
                  static_cast<std::int64_t>(want.size()))
            << where;
        EXPECT_TRUE(cur.done()) << where;
      }
    }
  }
}

// The charged counts: on the CPU paths a dense count is one run, as a
// dense element is; the DEV conversion cuts the same run at S.
TEST(BlockCursor, ChargedPieceCountsArePinned) {
  std::vector<std::byte> src(4096), out(4096);
  EXPECT_EQ(cpu_pack(kByte(), 4096, src.data(), out).runs, 1);
  EXPECT_EQ(
      cpu_pack(Datatype::contiguous(4096, kByte()), 1, src.data(), out).runs,
      1);
  const auto units = core::convert_all(kDouble(), 512, 1024);
  ASSERT_EQ(units.size(), 4u);
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto at = static_cast<std::int64_t>(i) * 1024;
    EXPECT_EQ(units[i], (core::CudaDevDist{at, at, 1024})) << "unit " << i;
  }
}

// --- Runs -------------------------------------------------------------------
//
// next_run merges consecutive pieces while each starts where the previous
// one ended. verify::expected_units derives the runs from the program's
// ByteMap without a cursor: each of its units is a maximal run cut every
// `cut` bytes from the run's start, which is what next_run(cut) yields
// call after call, and one maximal run when `cut` is the message size.

std::vector<Block> expected_runs(const DatatypePtr& dt, std::int64_t count,
                                 std::int64_t cut) {
  std::vector<Block> out;
  for (const auto& u : verify::expected_units(*dt, count, cut))
    out.push_back({u.nc_disp, u.length});
  return out;
}

/// The rest of `cur`'s walk as runs of at most `budget` bytes. After
/// every call the cursor has consumed exactly the bytes handed out.
std::vector<Block> walk_runs(BlockCursor& cur, std::int64_t budget,
                             const std::string& where) {
  std::vector<Block> out;
  std::int64_t seen = cur.bytes_consumed();
  Block b;
  while (cur.next_run(budget, &b)) {
    out.push_back(b);
    EXPECT_GT(b.len, 0) << where;
    EXPECT_LE(b.len, budget) << where;
    seen += b.len;
    EXPECT_EQ(cur.bytes_consumed(), seen) << where << " run " << out.size();
    EXPECT_EQ(cur.bytes_remaining(), cur.total_bytes() - seen) << where;
    EXPECT_EQ(cur.done(), seen == cur.total_bytes()) << where;
  }
  EXPECT_TRUE(cur.done()) << where;
  return out;
}

/// Every byte offset of `blocks`, in order.
std::vector<std::int64_t> byte_offsets(const std::vector<Block>& blocks) {
  std::vector<std::int64_t> out;
  for (const Block& b : blocks)
    for (std::int64_t i = 0; i < b.len; ++i) out.push_back(b.offset + i);
  return out;
}

TEST(BlockCursor, UnbudgetedRunsAreTheMaximalRuns) {
  std::vector<std::pair<DatatypePtr, std::int64_t>> cases;
  // The reshape property's layouts of n doubles...
  std::mt19937 reshape_rng(104729);
  std::uniform_int_distribution<std::int64_t> n_dist(1, 300);
  for (int i = 0; i < 60; ++i) {
    const std::int64_t n = n_dist(reshape_rng);
    cases.emplace_back(test::random_layout_of_n_doubles(reshape_rng, n),
                       1 + i % 3);
  }
  // ...and the canonical-form corpus.
  std::mt19937 corpus_rng(20160531);
  for (int i = 0; i < 200; ++i) {
    auto dt = test::random_datatype(corpus_rng);
    cases.emplace_back(dt, 1);
    cases.emplace_back(dt, 3);
  }
  for (const auto& [dt, count] : cases) {
    const std::int64_t total = dt->size() * count;
    const auto want =
        expected_runs(dt, count, std::max<std::int64_t>(total, 1));
    const std::string where =
        dt->describe() + " count " + std::to_string(count);
    BlockCursor cur(dt, count);
    expect_same_blocks(walk_runs(cur, INT64_MAX, where), want, where);
    // pieces_produced() still counts the pieces next() would yield.
    BlockCursor by_piece(dt, count);
    Block p;
    while (by_piece.next(&p)) {
    }
    EXPECT_EQ(cur.pieces_produced(), by_piece.pieces_produced()) << where;
  }
}

/// Two types whose runs cross element seams: particle (a 52 B run
/// across each seam) and a vector whose second 800 B block ends where
/// the next element's first begins (a 1600 B run across each seam).
std::vector<std::pair<DatatypePtr, std::int64_t>> seam_cases() {
  return {{test::particle_type(), 3},
          {Datatype::vector(2, 100, 150, kDouble()), 5}};
}

TEST(BlockCursor, RunsAtEveryBudgetReproduceThePieces) {
  for (const auto& [dt, count] : seam_cases()) {
    const std::int64_t total = dt->size() * count;
    const auto pieces = byte_offsets(all_blocks(dt, count));
    for (std::int64_t budget = 1; budget <= total; ++budget) {
      const std::string where =
          dt->describe() + " budget " + std::to_string(budget);
      BlockCursor cur(dt, count);
      const auto runs = walk_runs(cur, budget, where);
      EXPECT_EQ(byte_offsets(runs), pieces) << where;
      expect_same_blocks(runs, expected_runs(dt, count, budget), where);
    }
  }
}

TEST(BlockCursor, CursorCopiedMidWalkContinuesAsTheOriginal) {
  for (const auto& [dt, count] : seam_cases()) {
    for (const std::int64_t budget : {std::int64_t{5}, std::int64_t{52},
                                      std::int64_t{333}, INT64_MAX}) {
      const std::string where =
          dt->describe() + " budget " + std::to_string(budget);
      const auto want = expected_runs(dt, count, std::min(
          budget, dt->size() * count));
      BlockCursor cur(dt, count);
      Block b;
      for (std::size_t k = 0; k < want.size(); ++k) {
        BlockCursor copy = cur;
        const auto rest = walk_runs(copy, budget, where);
        expect_same_blocks(
            rest,
            std::vector<Block>(want.begin() + static_cast<std::ptrdiff_t>(k),
                               want.end()),
            where + " copy at run " + std::to_string(k));
        ASSERT_TRUE(cur.next_run(budget, &b)) << where;
      }
      EXPECT_FALSE(cur.next_run(budget, &b)) << where;
    }
  }
}

// --- CPU pack/unpack --------------------------------------------------------------

TEST(CpuPack, VectorGathersStridedColumns) {
  auto t = Datatype::vector(2, 1, 2, kInt32());
  const std::int32_t src[] = {1, 2, 3, 4};
  std::vector<std::byte> out(8);
  cpu_pack(t, 1, src, out);
  std::int32_t vals[2];
  std::memcpy(vals, out.data(), 8);
  EXPECT_EQ(vals[0], 1);
  EXPECT_EQ(vals[1], 3);
}

TEST(CpuPack, UnpackScattersBack) {
  auto t = Datatype::vector(2, 1, 2, kInt32());
  const std::int32_t packed[] = {7, 9};
  std::int32_t dst[4] = {0, 0, 0, 0};
  cpu_unpack(t, 1,
             std::span<const std::byte>(
                 reinterpret_cast<const std::byte*>(packed), 8),
             dst);
  EXPECT_EQ(dst[0], 7);
  EXPECT_EQ(dst[1], 0);
  EXPECT_EQ(dst[2], 9);
}

TEST(CpuPack, TooSmallOutputThrows) {
  auto t = Datatype::contiguous(4, kDouble());
  std::vector<std::byte> out(8);
  double src[4];
  EXPECT_THROW(cpu_pack(t, 1, src, out), std::invalid_argument);
}

TEST(CpuPack, RoundTripRandomTypes) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    auto dt = test::random_datatype(rng);
    const std::int64_t count = 1 + trial % 3;
    const std::int64_t span = test::span_bytes(dt, count);
    std::vector<std::byte> src(static_cast<std::size_t>(span));
    test::fill_pattern(src.data(), src.size(), trial);
    // Base shifted so negative-lb types stay in range.
    const std::byte* base = src.data() - dt->true_lb();

    auto packed = test::reference_pack(dt, count, base);
    std::vector<std::byte> dst(static_cast<std::size_t>(span));
    std::byte* dst_base = dst.data() - dt->true_lb();
    cpu_unpack(dt, count, packed, dst_base);
    auto repacked = test::reference_pack(dt, count, dst_base);
    EXPECT_EQ(packed, repacked) << dt->describe();
  }
}

TEST(CpuPack, PartialPackMatchesWholePack) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    auto dt = test::random_datatype(rng);
    const std::int64_t count = 2;
    const std::int64_t total = dt->size() * count;
    if (total == 0) continue;
    const std::int64_t span = test::span_bytes(dt, count);
    std::vector<std::byte> src(static_cast<std::size_t>(span));
    test::fill_pattern(src.data(), src.size(), trial + 1000);
    const std::byte* base = src.data() - dt->true_lb();

    auto whole = test::reference_pack(dt, count, base);
    std::vector<std::byte> pieces(static_cast<std::size_t>(total));
    BlockCursor cur(dt, count);
    std::int64_t at = 0;
    std::uniform_int_distribution<int> step(1, 13);
    while (at < total) {
      const std::int64_t n =
          std::min<std::int64_t>(step(rng), total - at);
      const auto st = cpu_pack_some(
          cur, base,
          std::span<std::byte>(pieces.data() + at,
                               static_cast<std::size_t>(n)));
      EXPECT_EQ(st.bytes, n);
      at += n;
    }
    EXPECT_EQ(whole, pieces) << dt->describe();
  }
}

TEST(CpuPack, StatsCountPieces) {
  auto t = Datatype::vector(4, 1, 2, kDouble());
  double src[8];
  std::vector<std::byte> out(32);
  const auto st = cpu_pack(t, 1, src, out);
  EXPECT_EQ(st.bytes, 32);
  EXPECT_EQ(st.runs, 4);
}

}  // namespace
}  // namespace gpuddt::mpi

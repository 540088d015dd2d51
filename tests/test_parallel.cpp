// Worker-pool and seed-splitting properties, plus the counter merge the
// parallel campaign engine relies on. The bit-identity of the full pipeline
// at different worker counts is pinned separately in
// test_campaign_equivalence.cpp; this file covers the primitives:
//
//   * WorkerPool executes every index exactly once, reports worker ids in
//     range, propagates task exceptions, and stays usable afterwards;
//   * stream_seed never collides across trace indices and depends only on
//     (base, index) — not on worker count or submission order;
//   * HintTally counters accumulated per worker and merged agree exactly
//     with an ordered recount — the regression test for the summarize/
//     HintPolicy counter fix (shared-mutation would lose updates).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "core/hints.hpp"
#include "core/parallel.hpp"
#include "numeric/rng.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

// --- WorkerPool ------------------------------------------------------------

TEST(WorkerPool, ExecutesEveryIndexExactlyOnce) {
  for (const std::size_t workers : {0u, 1u, 2u, 4u, 8u}) {
    WorkerPool pool(workers);
    for (const std::size_t count : {0u, 1u, 3u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(count);
      pool.run_indexed(count, [&](std::size_t i, std::size_t) { ++hits[i]; });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " count=" << count
                                     << " index=" << i;
      }
    }
  }
}

TEST(WorkerPool, WorkerIdsStayInRange) {
  for (const std::size_t workers : {0u, 1u, 3u, 8u}) {
    WorkerPool pool(workers);
    const std::size_t slots = std::max<std::size_t>(workers, 1);
    std::atomic<bool> in_range{true};
    pool.run_indexed(500, [&](std::size_t, std::size_t w) {
      if (w >= slots) in_range = false;
    });
    EXPECT_TRUE(in_range.load()) << "workers=" << workers;
  }
}

TEST(WorkerPool, SerialPoolRunsInIndexOrderInline) {
  WorkerPool pool(0);
  EXPECT_TRUE(pool.serial());
  std::vector<std::size_t> order;
  pool.run_indexed(100, [&](std::size_t i, std::size_t w) {
    EXPECT_EQ(w, 0u);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(WorkerPool, PropagatesTaskExceptionAndStaysUsable) {
  for (const std::size_t workers : {0u, 1u, 4u}) {
    WorkerPool pool(workers);
    EXPECT_THROW(pool.run_indexed(64,
                                  [&](std::size_t i, std::size_t) {
                                    if (i == 17) throw std::runtime_error("boom");
                                  }),
                 std::runtime_error)
        << "workers=" << workers;
    // The pool must have drained cleanly and accept the next job.
    std::vector<std::atomic<int>> hits(32);
    pool.run_indexed(32, [&](std::size_t i, std::size_t) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

// --- stream_seed properties ------------------------------------------------

TEST(StreamSeed, DistinctIndicesNeverCollide) {
  // The map index -> seed is provably injective per base (odd stride +
  // SplitMix64 bijection); verify over a large index range anyway.
  const std::uint64_t bases[] = {0ULL, 1ULL, 0xDEADBEEFULL, 1ULL << 63,
                                 0x9E3779B97F4A7C15ULL};
  constexpr std::size_t kIndices = 1u << 17;
  for (const std::uint64_t base : bases) {
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(kIndices * 2);
    for (std::size_t i = 0; i < kIndices; ++i) {
      const auto [_, inserted] = seen.insert(stream_seed(base, i));
      ASSERT_TRUE(inserted) << "collision at base=" << base << " index=" << i;
    }
  }
}

TEST(StreamSeed, StreamDependsOnlyOnBaseAndIndex) {
  // Generate a short RNG stream per index under several worker counts and a
  // shuffled submission order; every schedule must produce the same streams.
  constexpr std::size_t kCount = 256;
  constexpr std::uint64_t kBase = 424242;
  auto stream_for = [](std::size_t index) {
    num::Xoshiro256StarStar rng(stream_seed(kBase, index));
    std::vector<std::uint64_t> out(8);
    for (auto& x : out) x = rng();
    return out;
  };

  std::vector<std::vector<std::uint64_t>> reference(kCount);
  for (std::size_t i = 0; i < kCount; ++i) reference[i] = stream_for(i);

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    WorkerPool pool(workers);
    std::vector<std::vector<std::uint64_t>> got(kCount);
    pool.run_indexed(kCount, [&](std::size_t i, std::size_t) { got[i] = stream_for(i); });
    EXPECT_EQ(got, reference) << "workers=" << workers;
  }

  // Submission order: map pool index j to a permuted stream index perm[j].
  std::vector<std::size_t> perm(kCount);
  std::iota(perm.begin(), perm.end(), 0);
  num::Xoshiro256StarStar shuffle_rng(7);
  for (std::size_t i = kCount; i > 1; --i) {
    std::swap(perm[i - 1], perm[shuffle_rng.uniform_below(i)]);
  }
  WorkerPool pool(4);
  std::vector<std::vector<std::uint64_t>> got(kCount);
  pool.run_indexed(kCount, [&](std::size_t j, std::size_t) {
    got[perm[j]] = stream_for(perm[j]);
  });
  EXPECT_EQ(got, reference);
}

// --- HintTally counter merge (regression) ----------------------------------

std::vector<HintRecord> synthetic_records(std::size_t count, std::uint64_t seed) {
  num::Xoshiro256StarStar rng(seed);
  std::vector<HintRecord> out(count);
  for (auto& r : out) {
    switch (rng.uniform_below(4)) {
      case 0: r = {HintRecord::Kind::kPerfect, 0.0}; break;
      case 1: r = {HintRecord::Kind::kApproximate, rng.uniform_double() + 0.01}; break;
      case 2: r = {HintRecord::Kind::kSignOnly, 10.0}; break;
      default: r = {HintRecord::Kind::kSkipped, 0.0}; break;
    }
  }
  return out;
}

TEST(HintTally, PerWorkerMergeMatchesOrderedRecountExactly) {
  // Hint counters must be accumulated per worker and merged, never
  // shared-mutated. Feed a large record batch through a real pool into
  // per-worker tallies and require the merged integer counters to match the
  // ordered serial recount exactly.
  const std::vector<HintRecord> records = synthetic_records(20000, 321);
  HintTally serial;
  for (const HintRecord& r : records) serial.add(r);

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    WorkerPool pool(workers);
    std::vector<HintTally> partials(std::max<std::size_t>(workers, 1));
    pool.run_indexed(records.size(),
                     [&](std::size_t i, std::size_t w) { partials[w].add(records[i]); });
    HintTally merged;
    for (const HintTally& t : partials) merged.merge(t);
    EXPECT_EQ(merged.perfect, serial.perfect) << "workers=" << workers;
    EXPECT_EQ(merged.approximate, serial.approximate) << "workers=" << workers;
    EXPECT_EQ(merged.sign_only, serial.sign_only) << "workers=" << workers;
    EXPECT_EQ(merged.skipped, serial.skipped) << "workers=" << workers;
    // The variance sum is a float reduction: order-sensitive, so tolerance.
    EXPECT_NEAR(merged.approximate_variance_sum, serial.approximate_variance_sum,
                1e-9 * std::max(1.0, serial.approximate_variance_sum));
  }
}

TEST(HintTally, SummaryComputesMeanOverApproximateOnly) {
  HintTally tally;
  tally.add({HintRecord::Kind::kApproximate, 1.0});
  tally.add({HintRecord::Kind::kApproximate, 3.0});
  tally.add({HintRecord::Kind::kPerfect, 0.0});
  tally.add({HintRecord::Kind::kSignOnly, 10.0});
  tally.add({HintRecord::Kind::kSkipped, 0.0});
  const HintSummary s = tally.summary();
  EXPECT_EQ(s.perfect, 1u);
  EXPECT_EQ(s.approximate, 2u);
  EXPECT_EQ(s.sign_only, 1u);
  EXPECT_EQ(s.skipped, 1u);
  EXPECT_DOUBLE_EQ(s.mean_residual_variance, 2.0);

  const HintSummary empty = HintTally{}.summary();
  EXPECT_EQ(empty.approximate, 0u);
  EXPECT_DOUBLE_EQ(empty.mean_residual_variance, 0.0);
}

}  // namespace

// Unit tests of the shared work-stealing pool: the chunk plan is a pure
// function of (n, grain), every chunk runs exactly once for any thread
// count, nested parallel regions degrade to inline execution, and the
// deterministic helpers (ParallelChunks, ChunkedReduce, ParallelSort)
// produce bit-identical results across thread counts and repeated runs.

#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace rdfalign {
namespace {

TEST(ThreadPoolTest, ResolveThreadsNeverReturnsZero) {
  EXPECT_GE(ResolveThreads(0), 1u);  // 0 = all hardware threads
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(5), 5u);
}

TEST(ThreadPoolTest, PlanChunksAndBoundsPartitionTheRange) {
  EXPECT_EQ(PlanChunks(0, 16), 0u);
  for (size_t n : {1u, 5u, 1000u, 100000u}) {
    for (size_t grain : {0u, 1u, 7u, 1024u}) {
      const size_t chunks = PlanChunks(n, grain);
      ASSERT_GE(chunks, 1u);
      ASSERT_LE(chunks, kMaxPlannedChunks);
      EXPECT_EQ(ChunkBound(n, chunks, 0), 0u);
      EXPECT_EQ(ChunkBound(n, chunks, chunks), n);
      for (size_t c = 0; c < chunks; ++c) {
        EXPECT_LE(ChunkBound(n, chunks, c), ChunkBound(n, chunks, c + 1));
      }
    }
  }
}

TEST(ThreadPoolTest, RunExecutesEveryChunkExactlyOnce) {
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    const size_t chunks = 257;  // not a multiple of any thread count
    std::vector<std::atomic<uint32_t>> hits(chunks);
    ThreadPool::Instance().Run(chunks, threads, [&](size_t c) {
      hits[c].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(hits[c].load(), 1u) << "chunk " << c << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, WorkersGrowToTheRequestedWidth) {
  // threads=8 must field 8 real lanes even when the host has fewer cores
  // (the equivalence tests rely on genuinely concurrent 8-lane runs).
  ThreadPool::Instance().Run(64, 8, [](size_t) {});
  EXPECT_GE(ThreadPool::Instance().WorkersSpawned(), 7u);
}

TEST(ThreadPoolTest, NestedRunExecutesInline) {
  const size_t outer = 16;
  const size_t inner = 32;
  std::vector<std::atomic<uint32_t>> hits(outer * inner);
  ThreadPool::Instance().Run(outer, 4, [&](size_t o) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // The nested region must not deadlock or double-run: it executes on
    // the calling worker, chunk by chunk.
    ThreadPool::Instance().Run(inner, 4, [&](size_t i) {
      hits[o * inner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "slot " << i;
  }
}

TEST(ThreadPoolTest, ParallelChunksCoversExactRanges) {
  const size_t n = 100003;
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    std::vector<std::atomic<uint8_t>> seen(n);
    ParallelChunks(n, threads, /*grain=*/1024,
                   [&](size_t, size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       seen[i].fetch_add(1, std::memory_order_relaxed);
                     }
                   });
    size_t covered = 0;
    for (size_t i = 0; i < n; ++i) covered += seen[i].load();
    EXPECT_EQ(covered, n) << "threads " << threads;
  }
}

TEST(ThreadPoolTest, ChunkedReduceMatchesSerialAccumulate) {
  std::mt19937_64 rng(42);
  std::vector<uint64_t> values(200000);
  for (uint64_t& v : values) v = rng();
  const uint64_t expected =
      std::accumulate(values.begin(), values.end(), uint64_t{0});
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      const uint64_t sum = ChunkedReduce<uint64_t>(
          values.size(), threads, /*grain=*/4096, uint64_t{0},
          [&](size_t, size_t begin, size_t end) {
            return std::accumulate(values.begin() + begin,
                                   values.begin() + end, uint64_t{0});
          },
          [](uint64_t& acc, uint64_t part) { acc += part; });
      EXPECT_EQ(sum, expected) << "threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelSortMatchesStdSort) {
  std::mt19937_64 rng(7);
  std::vector<uint64_t> values(300000);
  for (uint64_t& v : values) v = rng() % 1000;  // heavy duplicates
  std::vector<uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      std::vector<uint64_t> v = values;
      ParallelSort(v, threads);
      EXPECT_EQ(v, expected) << "threads " << threads;
    }
  }
}

// Ordered inputs: the already-sorted early exit must leave sorted input
// untouched, and inputs it rejects (reversed, nearly sorted, one element
// out of place at the very end) must still come out as std::sort's.
TEST(ThreadPoolTest, ParallelSortOrderedInputsMatchStdSort) {
  std::mt19937_64 rng(11);
  std::vector<uint64_t> sorted(200000);
  for (uint64_t& v : sorted) v = rng() % 50000;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<const char*, std::vector<uint64_t>>> inputs;
  inputs.emplace_back("sorted", sorted);
  inputs.emplace_back("reversed",
                      std::vector<uint64_t>(sorted.rbegin(), sorted.rend()));
  {
    std::vector<uint64_t> nearly = sorted;
    for (int k = 0; k < 120; ++k) {
      std::swap(nearly[rng() % nearly.size()], nearly[rng() % nearly.size()]);
    }
    inputs.emplace_back("nearly sorted", nearly);
  }
  {
    std::vector<uint64_t> last_out = sorted;
    last_out.push_back(0);
    inputs.emplace_back("last element out of place", last_out);
  }
  for (const auto& [name, input] : inputs) {
    std::vector<uint64_t> expected = input;
    std::sort(expected.begin(), expected.end());
    for (size_t threads : {1u, 2u, 4u}) {
      std::vector<uint64_t> v = input;
      ParallelSort(v, threads);
      EXPECT_EQ(v, expected) << name << ", threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ManySmallRunsReuseThePool) {
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    ThreadPool::Instance().Run(7, 3, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * 7u);
}

}  // namespace
}  // namespace rdfalign

// SnapshotCache coverage: hits served without re-reading the file, LRU
// eviction order, byte-capacity accounting against LoadedGraphBytes,
// refcounted eviction under in-flight requests, content-fingerprint
// keying across distinct paths, and (in the
// *Parallel* suite, which runs in the CI TSan lane) concurrent hammering
// at {1,2,4,8} threads.

#include "service/snapshot_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "rdf/graph.h"
#include "service/graph_source.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "test_util.h"

namespace rdfalign::service {
namespace {

std::string TestScratchDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  // Parameterized test names contain '/'; keep the prefix a single path
  // component.
  std::string name = std::string(info->test_suite_name()) + "_" +
                     info->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  std::string dir = ::testing::TempDir() + "rdfalign_cache_" + name;
  std::remove(dir.c_str());
  return dir;
}

/// Writes a distinct random graph (seeded by `seed`) as a snapshot file
/// and returns its path.
std::string WriteGraphSnapshot(const std::string& dir, int seed,
                               size_t edges = 60) {
  rdfalign::testing::RandomGraphOptions opt;
  opt.edges = edges;
  opt.seed = static_cast<uint64_t>(seed);
  const TripleGraph g = rdfalign::testing::RandomGraph(opt);
  const std::string path = dir + "_v" + std::to_string(seed) + ".snap";
  Status st = store::WriteSnapshot(g, path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

uint64_t BytesOf(const std::string& path) {
  DirectGraphSource direct;
  Result<AcquiredGraph> got = direct.Acquire(path, CommonOptions(), false);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  return got->loaded->resident_bytes;
}

TEST(SnapshotCacheTest, HitMissAndStats) {
  const std::string dir = TestScratchDir();
  const std::string a = WriteGraphSnapshot(dir, 1);
  const std::string b = WriteGraphSnapshot(dir, 2);

  SnapshotCache cache;
  Result<AcquiredGraph> first = cache.Acquire(a, CommonOptions(), false);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_TRUE(first->loaded->has_fingerprint);

  Result<AcquiredGraph> again = cache.Acquire(a, CommonOptions(), false);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  // A warm hit serves the very same resident graph object.
  EXPECT_EQ(again->loaded.get(), first->loaded.get());

  Result<AcquiredGraph> other = cache.Acquire(b, CommonOptions(), false);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->cache_hit);

  const SnapshotCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.resident_bytes,
            first->loaded->resident_bytes + other->loaded->resident_bytes);

  // A hit never reads the file again. Overwrite `a` with garbage of the
  // same size and restore its mtime: a warm acquire still serves the
  // resident graph, while a load after Clear() reads and rejects it.
  const auto mtime = std::filesystem::last_write_time(a);
  const uintmax_t size = std::filesystem::file_size(a);
  std::ofstream(a, std::ios::binary | std::ios::trunc)
      << std::string(size, 'x');
  std::filesystem::last_write_time(a, mtime);
  Result<AcquiredGraph> warm = cache.Acquire(a, CommonOptions(), false);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->loaded.get(), first->loaded.get());
  cache.Clear();
  EXPECT_FALSE(cache.Acquire(a, CommonOptions(), false).ok());

  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SnapshotCacheTest, ByteAccountingMatchesLoadedGraphBytes) {
  const std::string dir = TestScratchDir();
  const std::string a = WriteGraphSnapshot(dir, 1, 40);
  const std::string b = WriteGraphSnapshot(dir, 2, 80);

  SnapshotCache cache;
  ASSERT_TRUE(cache.Acquire(a, CommonOptions(), false).ok());
  ASSERT_TRUE(cache.Acquire(b, CommonOptions(), false).ok());

  // The cache's accounting unit is exactly LoadedGraphBytes of each
  // resident graph — recompute it from independent direct loads.
  EXPECT_EQ(cache.stats().resident_bytes, BytesOf(a) + BytesOf(b));
  const std::vector<SnapshotCacheEntryInfo> entries = cache.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].path, b);  // MRU first
  EXPECT_EQ(entries[1].path, a);
  EXPECT_EQ(entries[0].resident_bytes, BytesOf(b));
  EXPECT_EQ(entries[1].resident_bytes, BytesOf(a));

  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SnapshotCacheTest, EvictsLeastRecentlyUsedFirst) {
  const std::string dir = TestScratchDir();
  const std::string a = WriteGraphSnapshot(dir, 1);
  const std::string b = WriteGraphSnapshot(dir, 2);
  const std::string c = WriteGraphSnapshot(dir, 3);

  // Capacity for exactly the two largest graphs — any third forces an
  // eviction.
  SnapshotCacheOptions options;
  options.capacity_bytes = BytesOf(a) + BytesOf(b) + BytesOf(c) -
                           std::min({BytesOf(a), BytesOf(b), BytesOf(c)});
  SnapshotCache cache(options);

  ASSERT_TRUE(cache.Acquire(a, CommonOptions(), false).ok());
  ASSERT_TRUE(cache.Acquire(b, CommonOptions(), false).ok());
  // Touch a: LRU order is now [a (MRU), b (LRU)].
  ASSERT_TRUE(cache.Acquire(a, CommonOptions(), false).ok());
  // Loading c must evict b (the least recently used), not a.
  ASSERT_TRUE(cache.Acquire(c, CommonOptions(), false).ok());

  const std::vector<SnapshotCacheEntryInfo> entries = cache.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].path, c);
  EXPECT_EQ(entries[1].path, a);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().resident_bytes, options.capacity_bytes);

  // Re-acquiring b is a miss again; a stays resident until b's load
  // pushes the total back over capacity.
  Result<AcquiredGraph> again = cache.Acquire(b, CommonOptions(), false);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cache_hit);

  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(c.c_str());
}

TEST(SnapshotCacheTest, OversizedGraphServedButNotRetained) {
  const std::string dir = TestScratchDir();
  const std::string a = WriteGraphSnapshot(dir, 1);

  SnapshotCacheOptions options;
  options.capacity_bytes = 1;  // nothing fits
  SnapshotCache cache(options);

  Result<AcquiredGraph> got = cache.Acquire(a, CommonOptions(), false);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got->loaded->graph.NumEdges(), 0u);
  // The request still holds a usable graph; the cache retains nothing.
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  std::remove(a.c_str());
}

TEST(SnapshotCacheTest, EvictionNeverFreesAnInFlightGraph) {
  const std::string dir = TestScratchDir();
  const std::string a = WriteGraphSnapshot(dir, 1);
  const std::string b = WriteGraphSnapshot(dir, 2);

  SnapshotCacheOptions options;
  options.capacity_bytes = std::max(BytesOf(a), BytesOf(b));
  SnapshotCache cache(options);

  // An "in-flight request": hold the ref while its entry is evicted.
  Result<AcquiredGraph> held = cache.Acquire(a, CommonOptions(), false);
  ASSERT_TRUE(held.ok());
  const size_t held_edges = held->loaded->graph.NumEdges();
  {
    const std::vector<SnapshotCacheEntryInfo> entries = cache.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].external_refs, 1u);  // our ref, beyond the cache's
  }

  // Rebind the held graph into a request-local dictionary (the align/diff
  // path); the rebound views pin the entry too.
  auto dict = std::make_shared<Dictionary>();
  const TripleGraph rebound = RebindGraph(held->loaded, dict);

  ASSERT_TRUE(cache.Acquire(b, CommonOptions(), false).ok());  // evicts a
  EXPECT_EQ(cache.stats().evictions, 1u);
  ASSERT_EQ(cache.entries().size(), 1u);
  EXPECT_EQ(cache.entries()[0].path, b);

  // The evicted graph and its rebound view both stay fully usable.
  EXPECT_EQ(held->loaded->graph.NumEdges(), held_edges);
  EXPECT_EQ(rebound.NumEdges(), held_edges);
  for (NodeId n = 0; n < rebound.NumNodes(); ++n) {
    EXPECT_EQ(rebound.Lexical(n), held->loaded->graph.Lexical(n));
  }

  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SnapshotCacheTest, KeysByContentFingerprintAcrossPaths) {
  const std::string dir = TestScratchDir();
  const std::string a = WriteGraphSnapshot(dir, 1);
  // Byte-identical copy under a different path: same content fingerprint.
  const std::string copy = dir + "_copy.snap";
  {
    std::ifstream in(a, std::ios::binary);
    std::ofstream out(copy, std::ios::binary);
    out << in.rdbuf();
  }

  SnapshotCache cache;
  Result<AcquiredGraph> first = cache.Acquire(a, CommonOptions(), false);
  ASSERT_TRUE(first.ok());
  Result<AcquiredGraph> second = cache.Acquire(copy, CommonOptions(), false);
  ASSERT_TRUE(second.ok());

  // The second path misses (it has never been stat-validated) but adopts
  // the already-resident entry: one entry, same graph object, and the
  // duplicate load is accounted.
  EXPECT_EQ(second->loaded.get(), first->loaded.get());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().duplicate_loads, 1u);

  // From now on both paths are warm.
  Result<AcquiredGraph> warm = cache.Acquire(copy, CommonOptions(), false);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);

  std::remove(a.c_str());
  std::remove(copy.c_str());
}

TEST(SnapshotCacheTest, ReplacedFileIsNeverServedStale) {
  const std::string dir = TestScratchDir();
  const std::string path = WriteGraphSnapshot(dir, 1, 40);
  SnapshotCache cache;
  Result<AcquiredGraph> before = cache.Acquire(path, CommonOptions(), false);
  ASSERT_TRUE(before.ok());
  const uint64_t fp_before = before->loaded->fingerprint;

  // Rebuild the file with different content (more edges -> different
  // size, so the stat validation fires even on coarse mtime clocks).
  rdfalign::testing::RandomGraphOptions opt;
  opt.edges = 90;
  opt.seed = 77;
  const TripleGraph g2 = rdfalign::testing::RandomGraph(opt);
  ASSERT_TRUE(store::WriteSnapshot(g2, path).ok());

  Result<AcquiredGraph> after = cache.Acquire(path, CommonOptions(), false);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  EXPECT_NE(after->loaded->fingerprint, fp_before);
  EXPECT_EQ(after->loaded->fingerprint, store::GraphFingerprint(g2));

  std::remove(path.c_str());
}

TEST(SnapshotCacheTest, ClearDropsEverythingButKeepsHeldRefs) {
  const std::string dir = TestScratchDir();
  const std::string a = WriteGraphSnapshot(dir, 1);
  SnapshotCache cache;
  Result<AcquiredGraph> held = cache.Acquire(a, CommonOptions(), false);
  ASSERT_TRUE(held.ok());
  const size_t edges = held->loaded->graph.NumEdges();

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(held->loaded->graph.NumEdges(), edges);  // still alive

  Result<AcquiredGraph> again = cache.Acquire(a, CommonOptions(), false);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cache_hit);

  std::remove(a.c_str());
}

// Runs in the TSan CI lane (filter *Parallel*): hammer one cache from
// {1,2,4,8} threads over a working set larger than capacity, so hits,
// misses, duplicate-load races, and evictions all interleave.
class SnapshotCacheParallelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SnapshotCacheParallelTest, ConcurrentHammeringStaysConsistent) {
  const size_t num_threads = GetParam();
  const std::string dir = TestScratchDir();
  constexpr int kGraphs = 4;
  std::vector<std::string> paths;
  std::vector<size_t> want_edges;
  uint64_t total_bytes = 0;
  for (int i = 0; i < kGraphs; ++i) {
    paths.push_back(WriteGraphSnapshot(dir, i + 1, 30 + 10 * i));
    DirectGraphSource direct;
    Result<AcquiredGraph> got =
        direct.Acquire(paths.back(), CommonOptions(), false);
    ASSERT_TRUE(got.ok());
    want_edges.push_back(got->loaded->graph.NumEdges());
    total_bytes += got->loaded->resident_bytes;
  }

  // Roughly half the working set fits -> constant eviction pressure.
  SnapshotCacheOptions options;
  options.capacity_bytes = total_bytes / 2;
  SnapshotCache cache(options);

  constexpr int kIterations = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t pick = (t + static_cast<size_t>(i)) % paths.size();
        Result<AcquiredGraph> got =
            cache.Acquire(paths[pick], CommonOptions(), false);
        if (!got.ok() ||
            got->loaded->graph.NumEdges() != want_edges[pick]) {
          failures.fetch_add(1);
          continue;
        }
        // Exercise the rebind path under eviction pressure too.
        auto dict = std::make_shared<Dictionary>();
        const TripleGraph rebound = RebindGraph(got->loaded, dict);
        if (rebound.NumEdges() != want_edges[pick]) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  const SnapshotCacheStats stats = cache.stats();
  // Every Acquire resolved to a hit or a miss; nothing was lost.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(num_threads) * kIterations);
  EXPECT_LE(stats.resident_bytes, options.capacity_bytes);
  EXPECT_EQ(stats.entries, cache.entries().size());

  for (const std::string& p : paths) std::remove(p.c_str());
}

INSTANTIATE_TEST_SUITE_P(Threads, SnapshotCacheParallelTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace rdfalign::service

// Snapshot store tests: round-trip fidelity (byte-identical re-save, graph
// equality, partition bit-identity through the store), shared-dictionary
// remapping, and rejection of corrupted / truncated / mismatched files.

#include "store/snapshot.h"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/partition.h"
#include "core/refinement.h"
#include "rdf/merge.h"
#include "store/format.h"
#include "test_util.h"

namespace rdfalign {
namespace {

using store::LoadSnapshot;
using store::ReadSnapshotInfo;
using store::SnapshotLoadOptions;
using store::SnapshotLoadStats;
using store::WriteSnapshot;

/// Unique path under the test's temp dir.
std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_store_" + info->name() + "_" +
         name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in) << path;
  std::vector<char> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

/// A graph exercising every label shape: URIs, plain literals, literals
/// with language tags and datatypes (folded labels), named and anonymous
/// blanks, and a node that is both subject and object.
TripleGraph MixedGraph(std::shared_ptr<Dictionary> dict = nullptr) {
  GraphBuilder b(std::move(dict));
  NodeId alice = b.AddUri("http://e/alice");
  NodeId bob = b.AddUri("http://e/bob");
  NodeId name = b.AddUri("http://e/name");
  NodeId knows = b.AddUri("http://e/knows");
  NodeId addr = b.AddBlank("addr");
  NodeId anon = b.AddBlank();
  b.AddTriple(alice, name, b.AddLiteral("Alice"));
  b.AddTriple(alice, name, b.AddLiteral("Alice@en"));
  b.AddTriple(alice, name,
              b.AddLiteral("42^^<http://www.w3.org/2001/XMLSchema#int>"));
  b.AddTriple(alice, knows, bob);
  b.AddTriple(bob, knows, alice);
  b.AddTriple(alice, b.AddUri("http://e/home"), addr);
  b.AddTriple(addr, name, b.AddLiteral("12 Main St"));
  b.AddTriple(bob, b.AddUri("http://e/home"), anon);
  return std::move(b.Build(true)).value();
}

TEST(SnapshotStoreTest, RoundTripsMixedGraph) {
  TripleGraph g = MixedGraph();
  const std::string path = TempPath("mixed.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());

  SnapshotLoadStats stats;
  auto loaded = LoadSnapshot(path, nullptr, {}, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(LabeledGraphsEqual(g, *loaded));
  EXPECT_TRUE(stats.identity_term_map);
  EXPECT_GT(stats.file_bytes, 0u);
  std::remove(path.c_str());
}

// Regression: a graph with nodes but zero triples has empty array sections
// whose data() is nullptr; the writer must not confuse those with the
// streamed term-blob section (which is selected by index, not by pointer).
TEST(SnapshotStoreTest, RoundTripsNodesWithoutTriples) {
  GraphBuilder b;
  b.AddUri("http://e/orphan");
  b.AddLiteral("lonely");
  b.AddBlank("island");
  TripleGraph g = std::move(b.Build(true)).value();
  const std::string path = TempPath("no_triples.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  for (bool mmap : {false, true}) {
    SnapshotLoadOptions load;
    load.use_mmap = mmap;
    auto loaded = LoadSnapshot(path, nullptr, load);
    ASSERT_TRUE(loaded.ok()) << "mmap " << mmap << ": " << loaded.status();
    EXPECT_EQ(loaded->NumNodes(), 3u);
    EXPECT_EQ(loaded->NumEdges(), 0u);
    EXPECT_TRUE(LabeledGraphsEqual(g, *loaded));
  }
  std::remove(path.c_str());
}

TEST(SnapshotStoreTest, RoundTripsEmptyGraph) {
  GraphBuilder b;
  TripleGraph g = std::move(b.Build(true)).value();
  const std::string path = TempPath("empty.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  auto loaded = LoadSnapshot(path, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumNodes(), 0u);
  EXPECT_EQ(loaded->NumEdges(), 0u);
  EXPECT_TRUE(LabeledGraphsEqual(g, *loaded));
  std::remove(path.c_str());
}

// save(load(save(G))) is byte-identical to save(G): loading renumbers
// nothing, and saving a loaded graph reproduces the file.
TEST(SnapshotStoreTest, ResaveIsByteIdentical) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    testing::RandomGraphOptions options;
    options.seed = seed;
    TripleGraph g = testing::RandomGraph(options);
    const std::string path1 = TempPath("first.snap");
    const std::string path2 = TempPath("second.snap");
    ASSERT_TRUE(WriteSnapshot(g, path1).ok());
    auto loaded = LoadSnapshot(path1, nullptr);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_TRUE(WriteSnapshot(*loaded, path2).ok());
    EXPECT_EQ(ReadFileBytes(path1), ReadFileBytes(path2)) << "seed " << seed;
    std::remove(path1.c_str());
    std::remove(path2.c_str());
  }
}

// The point of front coding: on prefix-heavy graphs (IRIs share
// namespaces by construction) the front-coded dictionary sections are
// strictly smaller than the raw version-1 layout of the same terms,
// whose size is (terms + 1) x 8 offset bytes plus the whole terms.
TEST(SnapshotStoreTest, CompressedDictionaryIsSmaller) {
  testing::RandomGraphOptions options;
  options.seed = 3;
  options.uris = 40;
  options.edges = 120;
  TripleGraph g = testing::RandomGraph(options);
  const std::string path = TempPath("fc.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  auto loaded = LoadSnapshot(path, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(LabeledGraphsEqual(g, *loaded));
  // A fresh load holds exactly the snapshot's terms.
  uint64_t raw_dict_bytes = (loaded->dict().size() + 1) * sizeof(uint64_t);
  for (LexId id = 0; id < loaded->dict().size(); ++id) {
    raw_dict_bytes += loaded->dict().Get(id).size();
  }
  uint64_t fc_dict_bytes = 0;
  for (const auto& sec : info->sections) {
    if (sec.id == store::SectionId::kTermOffsets ||
        sec.id == store::SectionId::kTermBlob ||
        sec.id == store::SectionId::kTermPrefixLens) {
      fc_dict_bytes += sec.size;
    }
  }
  EXPECT_LT(fc_dict_bytes, raw_dict_bytes);
  std::remove(path.c_str());
}

TEST(SnapshotStoreTest, RandomGraphsRoundTripBothPaths) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    testing::RandomGraphOptions options;
    options.seed = seed;
    options.edges = 80;
    TripleGraph g = testing::RandomGraph(options);
    const std::string path = TempPath("rand.snap");
    ASSERT_TRUE(WriteSnapshot(g, path).ok());
    for (bool mmap : {false, true}) {
      SnapshotLoadOptions load;
      load.use_mmap = mmap;
      SnapshotLoadStats stats;
      auto loaded = LoadSnapshot(path, nullptr, load, &stats);
      ASSERT_TRUE(loaded.ok()) << "seed " << seed << " mmap " << mmap << ": "
                               << loaded.status();
      EXPECT_TRUE(LabeledGraphsEqual(g, *loaded))
          << "seed " << seed << " mmap " << mmap;
      EXPECT_EQ(stats.used_mmap, mmap);
    }
    std::remove(path.c_str());
  }
}

// A snapshot saved from a graph with a *shared* dictionary (its lex ids are
// sparse in that dictionary) still reloads equal, and loading two
// snapshots into one dictionary remaps the second transparently.
TEST(SnapshotStoreTest, SharedDictionaryRemapping) {
  auto [g1, g2] = testing::RandomEvolvingPair(7);
  const std::string path1 = TempPath("v1.snap");
  const std::string path2 = TempPath("v2.snap");
  ASSERT_TRUE(WriteSnapshot(g1, path1).ok());
  ASSERT_TRUE(WriteSnapshot(g2, path2).ok());

  auto dict = std::make_shared<Dictionary>();
  auto l1 = LoadSnapshot(path1, dict);
  ASSERT_TRUE(l1.ok()) << l1.status();
  SnapshotLoadStats stats2;
  auto l2 = LoadSnapshot(path2, dict, {}, &stats2);
  ASSERT_TRUE(l2.ok()) << l2.status();
  // The second load dedupes shared terms against the first.
  EXPECT_FALSE(stats2.identity_term_map);
  EXPECT_LT(stats2.terms_interned, l2->NumNodes() + 1);
  EXPECT_TRUE(LabeledGraphsEqual(g1, *l1));
  EXPECT_TRUE(LabeledGraphsEqual(g2, *l2));
  // Shared dictionary => the pair is alignable (merge requires one dict).
  EXPECT_TRUE(CombinedGraph::Build(*l1, *l2).ok());
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

// The acceptance property: a graph round-tripped through the store yields
// a bit-identical bisimulation partition.
TEST(SnapshotStoreTest, PartitionBitIdenticalThroughStore) {
  auto [g1, g2] = testing::RandomEvolvingPair(11);
  CombinedGraph cg = testing::Combine(g1, g2);
  const std::string path = TempPath("combined.snap");
  // The combined graph is a plain triple graph (duplicate labels across
  // sides); snapshot it directly.
  ASSERT_TRUE(WriteSnapshot(cg.graph(), path).ok());
  for (bool mmap : {false, true}) {
    SnapshotLoadOptions load;
    load.use_mmap = mmap;
    auto loaded = LoadSnapshot(path, nullptr, load);
    ASSERT_TRUE(loaded.ok()) << loaded.status();

    std::vector<NodeId> all(cg.graph().NumNodes());
    for (NodeId i = 0; i < all.size(); ++i) all[i] = i;
    Partition original =
        BisimRefineFixpoint(cg.graph(), LabelPartition(cg.graph()), all);
    Partition reloaded =
        BisimRefineFixpoint(*loaded, LabelPartition(*loaded), all);
    EXPECT_EQ(original.colors(), reloaded.colors()) << "mmap " << mmap;
  }
  std::remove(path.c_str());
}

TEST(SnapshotStoreTest, InfoReportsCounts) {
  TripleGraph g = MixedGraph();
  const std::string path = TempPath("info.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, store::kFormatVersionFrontCoded);
  EXPECT_EQ(info->num_nodes, g.NumNodes());
  EXPECT_EQ(info->num_triples, g.NumEdges());
  EXPECT_EQ(info->sections.size(), store::kNumSectionsV2);
  std::remove(path.c_str());
}

TEST(SnapshotStoreTest, RejectsNonSnapshot) {
  const std::string path = TempPath("not_a.snap");
  WriteFileBytes(path, {'h', 'e', 'l', 'l', 'o', ' ', 'r', 'd', 'f', '!'});
  auto loaded = LoadSnapshot(path, nullptr);
  ASSERT_FALSE(loaded.ok());
  // Too short for a header: reported as truncation; a full-size non-
  // snapshot file would be InvalidArgument (checked below with junk).
  EXPECT_TRUE(loaded.status().IsCorruption());

  std::vector<char> junk(512, 'x');
  WriteFileBytes(path, junk);
  loaded = LoadSnapshot(path, nullptr);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(SnapshotStoreTest, RejectsVersionMismatch) {
  TripleGraph g = MixedGraph();
  const std::string path = TempPath("version.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  std::vector<char> bytes = ReadFileBytes(path);
  // The version field sits right after the 8-byte magic.
  bytes[8] = 99;
  WriteFileBytes(path, bytes);
  auto loaded = LoadSnapshot(path, nullptr);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotSupported()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotStoreTest, RejectsTruncation) {
  TripleGraph g = MixedGraph();
  const std::string path = TempPath("trunc.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  std::vector<char> bytes = ReadFileBytes(path);
  for (size_t keep : {size_t{4}, size_t{100}, bytes.size() - 1}) {
    std::vector<char> cut(bytes.begin(),
                          bytes.begin() + static_cast<ptrdiff_t>(keep));
    WriteFileBytes(path, cut);
    for (bool mmap : {false, true}) {
      SnapshotLoadOptions load;
      load.use_mmap = mmap;
      auto loaded = LoadSnapshot(path, nullptr, load);
      ASSERT_FALSE(loaded.ok()) << "keep " << keep << " mmap " << mmap;
      EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
    }
  }
  std::remove(path.c_str());
}

// Flipping any single byte of the header, section table, or a section
// payload is caught — by the header or a section checksum, or by
// structural validation. (Bytes in the alignment padding between sections
// are semantically dead and not covered; the sampler skips them.)
TEST(SnapshotStoreTest, RejectsBitFlips) {
  TripleGraph g = MixedGraph();
  const std::string path = TempPath("flip.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok());
  const auto meaningful = [&info](size_t pos) {
    // Header plus section table — sized by the file's own section count,
    // so the sweep covers the v2 prefix-lens table entry too.
    if (pos < sizeof(store::SnapshotHeader) +
                  info->sections.size() * sizeof(store::SectionEntry)) {
      return true;
    }
    for (const auto& s : info->sections) {
      if (pos >= s.offset && pos < s.offset + s.size) return true;
    }
    return false;
  };
  const std::vector<char> bytes = ReadFileBytes(path);
  // Every 7th byte keeps the test fast while hitting the header, the
  // table, and every section.
  size_t flips = 0;
  for (size_t pos = 0; pos < bytes.size(); pos += 7) {
    if (!meaningful(pos)) continue;
    ++flips;
    std::vector<char> flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    WriteFileBytes(path, flipped);
    auto loaded = LoadSnapshot(path, nullptr);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << pos;
  }
  EXPECT_GT(flips, 50u);
  std::remove(path.c_str());
}

/// Overwrites `len` bytes at `byte_offset` within section `sec_index`,
/// then recomputes the section checksum and the header checksum so the
/// file models a deliberately crafted snapshot (all checksums match)
/// rather than bit rot — only structural validation can reject it.
void PatchBytesWithValidChecksums(std::vector<char>& bytes,
                                  const store::SnapshotInfo& info,
                                  size_t sec_index, size_t byte_offset,
                                  const void* data, size_t len) {
  const auto& sec = info.sections[sec_index];
  std::memcpy(bytes.data() + sec.offset + byte_offset, data, len);
  const uint64_t sec_checksum =
      store::Checksum64(bytes.data() + sec.offset, sec.size);
  const size_t entry_pos = sizeof(store::SnapshotHeader) +
                           sec_index * sizeof(store::SectionEntry) +
                           offsetof(store::SectionEntry, checksum);
  std::memcpy(bytes.data() + entry_pos, &sec_checksum, sizeof(sec_checksum));
  // Header checksum covers header + table with its own field zeroed.
  const size_t hc_pos = offsetof(store::SnapshotHeader, header_checksum);
  const uint64_t zero = 0;
  std::memcpy(bytes.data() + hc_pos, &zero, sizeof(zero));
  const uint64_t hc = store::Checksum64(
      bytes.data(), sizeof(store::SnapshotHeader) +
                        info.sections.size() * sizeof(store::SectionEntry));
  std::memcpy(bytes.data() + hc_pos, &hc, sizeof(hc));
}

void PatchU64WithValidChecksums(std::vector<char>& bytes,
                                const store::SnapshotInfo& info,
                                size_t sec_index, uint64_t entry_index,
                                uint64_t value) {
  PatchBytesWithValidChecksums(bytes, info, sec_index,
                               entry_index * sizeof(uint64_t), &value,
                               sizeof(value));
}

// Regression: an offsets entry pointing far past its payload while the
// array endpoints stay plausible (out_offsets = [0, HUGE, ..., e]) must be
// rejected before any entry is used to index triples/out_pairs/in_subjects
// — previously the consistency loop read out of bounds at i=0 because the
// monotone check only ran one step ahead.
TEST(SnapshotStoreTest, RejectsOutOfBoundsOffsetEntries) {
  TripleGraph g = MixedGraph();
  const std::string path = TempPath("oob_offsets.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_GE(g.NumNodes(), 2u);
  const std::vector<char> bytes = ReadFileBytes(path);
  // Section index 5 = out_offsets, 7 = in_offsets.
  for (size_t sec_index : {size_t{5}, size_t{7}}) {
    std::vector<char> crafted = bytes;
    PatchU64WithValidChecksums(crafted, *info, sec_index, 1,
                               uint64_t{1} << 40);
    WriteFileBytes(path, crafted);
    for (bool mmap : {false, true}) {
      for (bool verify : {false, true}) {
        SnapshotLoadOptions load;
        load.use_mmap = mmap;
        load.verify_checksums = verify;
        auto loaded = LoadSnapshot(path, nullptr, load);
        ASSERT_FALSE(loaded.ok())
            << "section " << sec_index << " mmap " << mmap;
        EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
        EXPECT_NE(loaded.status().message().find("not monotonic"),
                  std::string::npos)
            << loaded.status();
      }
    }
  }
  std::remove(path.c_str());
}

// Crafted front-coded geometry (checksums recomputed, so only structural
// validation can object) is rejected with Corruption before any blob byte
// is interpreted. Section index 9 = term_prefix_lens in a v2 snapshot.
TEST(SnapshotStoreTest, RejectsCraftedFrontCodedPrefixTable) {
  TripleGraph g = MixedGraph();
  const std::string path = TempPath("fc_prefix.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->version, store::kFormatVersionFrontCoded);
  ASSERT_EQ(info->sections.size(), store::kNumSectionsV2);
  ASSERT_GE(info->num_terms, 2u);
  const std::vector<char> bytes = ReadFileBytes(path);

  // A restart term (index 0) with a nonzero prefix length.
  {
    std::vector<char> crafted = bytes;
    const uint32_t bogus = 1;
    PatchBytesWithValidChecksums(crafted, *info, /*sec_index=*/9,
                                 /*byte_offset=*/0, &bogus, sizeof(bogus));
    WriteFileBytes(path, crafted);
    auto loaded = LoadSnapshot(path, nullptr);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
    EXPECT_NE(loaded.status().message().find("restart term"),
              std::string::npos)
        << loaded.status();
  }
  // A prefix length longer than the previous term can supply.
  {
    std::vector<char> crafted = bytes;
    const uint32_t bogus = 0x10000;
    PatchBytesWithValidChecksums(crafted, *info, /*sec_index=*/9,
                                 /*byte_offset=*/sizeof(uint32_t), &bogus,
                                 sizeof(bogus));
    WriteFileBytes(path, crafted);
    auto loaded = LoadSnapshot(path, nullptr);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
    EXPECT_NE(loaded.status().message().find("prefix longer"),
              std::string::npos)
        << loaded.status();
  }
  // Checksums-off loads must reject both the same way.
  {
    std::vector<char> crafted = bytes;
    const uint32_t bogus = 7;
    PatchBytesWithValidChecksums(crafted, *info, /*sec_index=*/9,
                                 /*byte_offset=*/0, &bogus, sizeof(bogus));
    WriteFileBytes(path, crafted);
    SnapshotLoadOptions load;
    load.verify_checksums = false;
    auto loaded = LoadSnapshot(path, nullptr, load);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  }
  std::remove(path.c_str());
}

// Crafted suffix-offset tables: the restart-block structure is intact but
// the offsets no longer span the blob / are not monotonic.
TEST(SnapshotStoreTest, RejectsCraftedFrontCodedOffsets) {
  TripleGraph g = MixedGraph();
  const std::string path = TempPath("fc_offsets.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_GE(info->num_terms, 2u);
  const std::vector<char> bytes = ReadFileBytes(path);
  // Section index 0 = term_offsets (suffix offsets in v2). Entry 1 far
  // past the blob breaks the span-and-monotonic invariant.
  std::vector<char> crafted = bytes;
  PatchU64WithValidChecksums(crafted, *info, /*sec_index=*/0, 1,
                             uint64_t{1} << 40);
  WriteFileBytes(path, crafted);
  auto loaded = LoadSnapshot(path, nullptr);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  std::remove(path.c_str());
}

// The buffered loader validates the header prefix before allocating
// anything file-sized: a junk file inflated to tens of gigabytes (sparse,
// so cheap to create) must be rejected from its first bytes, not buffered.
TEST(SnapshotStoreTest, RejectsHugeJunkFileWithoutBuffering) {
  const std::string path = TempPath("sparse_junk.snap");
  WriteFileBytes(path, std::vector<char>(512, 'x'));
  std::error_code ec;
  std::filesystem::resize_file(path, uint64_t{1} << 35, ec);  // 32 GiB
  ASSERT_FALSE(ec) << ec.message();
  auto loaded = LoadSnapshot(path, nullptr);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  std::remove(path.c_str());
}

// A directory "opens" as an ifstream on Linux; loading one must fail with
// a Status instead of an unbounded allocation or a crash.
TEST(SnapshotStoreTest, DirectoryPathIsError) {
  const std::string dir = ::testing::TempDir();
  for (bool mmap : {false, true}) {
    SnapshotLoadOptions load;
    load.use_mmap = mmap;
    auto loaded = LoadSnapshot(dir, nullptr, load);
    ASSERT_FALSE(loaded.ok()) << "mmap " << mmap;
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
  }
  auto info = ReadSnapshotInfo(dir);
  ASSERT_FALSE(info.ok());
  EXPECT_TRUE(info.status().IsIOError()) << info.status();
}

// With checksums off, structural validation alone still rejects files
// whose arrays would be memory-unsafe to adopt.
TEST(SnapshotStoreTest, StructuralValidationWithoutChecksums) {
  TripleGraph g = MixedGraph();
  const std::string path = TempPath("struct.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok());
  // Corrupt a triple's subject id (section 5 = triples) to an out-of-range
  // node, leaving everything else intact.
  std::vector<char> bytes = ReadFileBytes(path);
  const auto& triples_sec = info->sections[4];
  ASSERT_EQ(static_cast<uint32_t>(triples_sec.id), 5u);
  uint32_t bogus = 0x7fffffff;
  std::memcpy(bytes.data() + triples_sec.offset, &bogus, sizeof(bogus));
  WriteFileBytes(path, bytes);
  SnapshotLoadOptions load;
  load.verify_checksums = false;
  auto loaded = LoadSnapshot(path, nullptr, load);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  std::remove(path.c_str());
}

TEST(SnapshotStoreTest, MissingFileIsIOError) {
  auto loaded = LoadSnapshot(TempPath("does_not_exist.snap"), nullptr);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

}  // namespace
}  // namespace rdfalign

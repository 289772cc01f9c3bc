// Delta store tests: randomized patch-replay round trips (bit-identical
// triples, CSR indexes, and dictionary vs direct snapshot loads of every
// version), corruption rejection for every delta section in the style of
// store_test.cc, and archive persistence equivalence across all aligner
// methods.

#include "store/delta.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aligner.h"
#include "gen/category_gen.h"
#include "service/graph_source.h"
#include "store/archive_io.h"
#include "store/snapshot.h"
#include "test_util.h"

namespace rdfalign {
namespace {

using store::ApplyDelta;
using store::DeltaApplyOptions;
using store::DeltaApplyStats;
using store::DeltaWriteStats;
using store::LoadSnapshot;
using store::ReadDeltaInfo;
using store::WriteDelta;
using store::WriteSnapshot;

/// Unique path under the test's temp dir.
std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_delta_" + info->name() + "_" +
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

/// The alignment-derived node map the CLI's `diff` uses.
VersionNodeMap AlignMap(const TripleGraph& base, const TripleGraph& next,
                        AlignMethod method = AlignMethod::kHybrid) {
  CombinedGraph cg = testing::Combine(base, next);
  AlignerOptions options;
  options.method = method;
  Aligner aligner(options);
  AlignmentOutcome outcome = aligner.AlignCombined(cg);
  return NodeMapFromPartition(cg, outcome.partition);
}

/// Bit-level equality: same labels (kind + lexical form), and the triple
/// list and both CSR indexes byte-identical — the acceptance invariant of
/// patch replay, shared with the delta_bench gate via GraphsBitDiffer.
::testing::AssertionResult GraphsBitIdentical(const TripleGraph& a,
                                              const TripleGraph& b) {
  if (const char* what = GraphsBitDiffer(a, b)) {
    return ::testing::AssertionFailure() << what << " differ";
  }
  return ::testing::AssertionSuccess();
}

/// Saves every version as a snapshot and as a base + delta chain, replays
/// the chain, and checks each materialized version bit-identical to the
/// original, to a direct snapshot load, and (via re-save) to the snapshot
/// bytes themselves.
void CheckChainRoundTrip(const std::vector<TripleGraph>& chain,
                         const std::string& tag) {
  std::vector<std::string> snap_paths;
  for (size_t v = 0; v < chain.size(); ++v) {
    snap_paths.push_back(TempPath(tag + "_v" + std::to_string(v) + ".snap"));
    ASSERT_TRUE(WriteSnapshot(chain[v], snap_paths[v]).ok()) << tag;
  }
  std::vector<std::string> delta_paths;
  for (size_t v = 1; v < chain.size(); ++v) {
    delta_paths.push_back(TempPath(tag + "_d" + std::to_string(v) +
                                   ".delta"));
    DeltaWriteStats wstats;
    ASSERT_TRUE(WriteDelta(chain[v - 1], chain[v],
                           AlignMap(chain[v - 1], chain[v]),
                           delta_paths[v - 1], &wstats)
                    .ok())
        << tag << " v" << v;
    EXPECT_EQ(wstats.kept_triples + wstats.removed_triples,
              chain[v - 1].NumEdges());
    EXPECT_EQ(wstats.kept_triples + wstats.added_triples,
              chain[v].NumEdges());
  }

  // Replay with one shared dictionary (the chain workflow).
  auto dict = std::make_shared<Dictionary>();
  auto base = LoadSnapshot(snap_paths[0], dict);
  ASSERT_TRUE(base.ok()) << base.status();
  std::vector<TripleGraph> replayed;
  replayed.push_back(std::move(base).value());
  for (size_t v = 1; v < chain.size(); ++v) {
    DeltaApplyStats astats;
    auto next =
        ApplyDelta(replayed.back(), delta_paths[v - 1], dict, {}, &astats);
    ASSERT_TRUE(next.ok()) << tag << " v" << v << ": " << next.status();
    EXPECT_EQ(astats.kept_triples + astats.added_triples,
              chain[v].NumEdges());
    replayed.push_back(std::move(next).value());
  }

  for (size_t v = 0; v < chain.size(); ++v) {
    SCOPED_TRACE(tag + " version " + std::to_string(v));
    // Bit-identical to the original graph.
    EXPECT_TRUE(GraphsBitIdentical(chain[v], replayed[v]));
    // Bit-identical to a direct snapshot load of that version.
    auto loaded = LoadSnapshot(snap_paths[v], nullptr);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(GraphsBitIdentical(*loaded, replayed[v]));
    // The replayed graph is a first-class snapshot citizen: its own
    // save -> load round trip is bit-identical, and its fingerprint —
    // canonical in content — matches the snapshot-loaded graph's.
    const std::string resave = TempPath(tag + "_resave.snap");
    ASSERT_TRUE(WriteSnapshot(replayed[v], resave).ok());
    auto reloaded = LoadSnapshot(resave, nullptr);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    EXPECT_TRUE(GraphsBitIdentical(*reloaded, replayed[v]));
    EXPECT_EQ(store::GraphFingerprint(replayed[v]),
              store::GraphFingerprint(*loaded));
    std::remove(resave.c_str());
  }
  for (const std::string& p : snap_paths) std::remove(p.c_str());
  for (const std::string& p : delta_paths) std::remove(p.c_str());
}

// The round-trip property test: randomized evolving chains, saved as base
// + deltas, patch-replayed, and pinned bit-identical to per-version
// snapshots (ISSUE 5 acceptance).
TEST(DeltaStoreTest, RoundTripsRandomChains) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    testing::RandomGraphOptions options;
    options.edges = 60;
    CheckChainRoundTrip(
        testing::RandomEvolvingChain(seed, /*versions=*/4, options),
        "seed" + std::to_string(seed));
  }
}

TEST(DeltaStoreTest, RoundTripsCategoryChain) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(0.02, /*versions=*/3, /*seed=*/7));
  std::vector<TripleGraph> versions;
  for (size_t v = 0; v < chain.NumVersions(); ++v) {
    versions.push_back(chain.Version(v));
  }
  CheckChainRoundTrip(versions, "category");
}

// The CLI-shaped lineage: snapshots built independently, each delta
// diffed over a *pairwise* snapshot load (its own dictionary), patches
// chained from the first snapshot with a fresh dictionary per step. The
// base binding is canonical in graph content — not in dictionary history
// — so the output of one patch is a valid base for the next delta.
// (Regression: with dictionary-id-ordered term numbering the second
// patch was rejected as "does not apply".)
TEST(DeltaStoreTest, ChainedPatchAcrossIndependentlyBuiltSnapshots) {
  std::vector<TripleGraph> chain = testing::RandomEvolvingChain(29, 4);
  std::vector<std::string> snap_paths, delta_paths;
  for (size_t v = 0; v < chain.size(); ++v) {
    snap_paths.push_back(TempPath("ind_v" + std::to_string(v) + ".snap"));
    ASSERT_TRUE(WriteSnapshot(chain[v], snap_paths[v]).ok());
  }
  for (size_t v = 1; v < chain.size(); ++v) {
    auto pair_dict = std::make_shared<Dictionary>();
    auto base = LoadSnapshot(snap_paths[v - 1], pair_dict);
    ASSERT_TRUE(base.ok()) << base.status();
    auto next = LoadSnapshot(snap_paths[v], pair_dict);
    ASSERT_TRUE(next.ok()) << next.status();
    delta_paths.push_back(TempPath("ind_d" + std::to_string(v) + ".delta"));
    ASSERT_TRUE(WriteDelta(*base, *next, AlignMap(*base, *next),
                           delta_paths[v - 1])
                    .ok());
  }
  auto current = LoadSnapshot(snap_paths[0], nullptr);
  ASSERT_TRUE(current.ok()) << current.status();
  std::vector<TripleGraph> replayed;
  replayed.push_back(std::move(current).value());
  for (size_t v = 1; v < chain.size(); ++v) {
    auto next = ApplyDelta(replayed.back(), delta_paths[v - 1], nullptr);
    ASSERT_TRUE(next.ok()) << "step " << v << ": " << next.status();
    replayed.push_back(std::move(next).value());
  }
  for (size_t v = 0; v < chain.size(); ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    auto loaded = LoadSnapshot(snap_paths[v], nullptr);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(GraphsBitIdentical(*loaded, replayed[v]));
  }
  for (const std::string& p : snap_paths) std::remove(p.c_str());
  for (const std::string& p : delta_paths) std::remove(p.c_str());
}

// An empty alignment map is legal: the delta degenerates to remove-all +
// add-all and still reconstructs the next version exactly.
TEST(DeltaStoreTest, RoundTripsWithEmptyAlignment) {
  auto [g1, g2] = testing::RandomEvolvingPair(13);
  const std::string path = TempPath("full.delta");
  VersionNodeMap empty;
  empty.next_to_base.assign(g2.NumNodes(), kInvalidNode);
  DeltaWriteStats wstats;
  ASSERT_TRUE(WriteDelta(g1, g2, empty, path, &wstats).ok());
  EXPECT_EQ(wstats.kept_triples, 0u);
  EXPECT_EQ(wstats.removed_triples, g1.NumEdges());
  EXPECT_EQ(wstats.added_triples, g2.NumEdges());
  auto applied = ApplyDelta(g1, path, nullptr);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_TRUE(GraphsBitIdentical(g2, *applied));
  std::remove(path.c_str());
}

// Deltas across identical versions are pure kept-runs. (The graph must
// not contain bisimilar duplicates: the one-pair-per-class node map
// leaves extra same-class members unmapped, which correctly demotes their
// triples to remove+add — Fig2's b2/b3 would do that, Fig1's blanks are
// distinguishable.)
TEST(DeltaStoreTest, IdenticalVersionsProduceEmptyChange) {
  TripleGraph g = testing::Fig1Graphs().first;
  const std::string path = TempPath("id.delta");
  DeltaWriteStats wstats;
  ASSERT_TRUE(WriteDelta(g, g, AlignMap(g, g), path, &wstats).ok());
  EXPECT_EQ(wstats.removed_triples, 0u);
  EXPECT_EQ(wstats.added_triples, 0u);
  EXPECT_EQ(wstats.new_terms, 0u);
  EXPECT_EQ(wstats.kept_triples, g.NumEdges());
  EXPECT_EQ(wstats.kept_runs, 1u);  // one contiguous run
  auto applied = ApplyDelta(g, path, nullptr);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_TRUE(GraphsBitIdentical(g, *applied));
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, WriterRejectsBadAlignment) {
  auto [g1, g2] = testing::RandomEvolvingPair(3);
  const std::string path = TempPath("bad.delta");
  VersionNodeMap wrong_size;
  wrong_size.next_to_base.assign(g2.NumNodes() + 1, kInvalidNode);
  EXPECT_TRUE(
      WriteDelta(g1, g2, wrong_size, path).IsInvalidArgument());
  VersionNodeMap out_of_range;
  out_of_range.next_to_base.assign(g2.NumNodes(), kInvalidNode);
  out_of_range.next_to_base[0] = static_cast<NodeId>(g1.NumNodes());
  EXPECT_TRUE(
      WriteDelta(g1, g2, out_of_range, path).IsInvalidArgument());
  VersionNodeMap not_injective;
  not_injective.next_to_base.assign(g2.NumNodes(), kInvalidNode);
  ASSERT_GE(g2.NumNodes(), 2u);
  not_injective.next_to_base[0] = 0;
  not_injective.next_to_base[1] = 0;
  EXPECT_TRUE(
      WriteDelta(g1, g2, not_injective, path).IsInvalidArgument());
  TripleGraph other = testing::Fig2Graph();  // its own dictionary
  VersionNodeMap empty;
  empty.next_to_base.assign(other.NumNodes(), kInvalidNode);
  EXPECT_TRUE(WriteDelta(g1, other, empty, path).IsInvalidArgument());
}

// The wrong-base binding: count or fingerprint mismatch must come back as
// InvalidArgument (the `rdfalign patch` exit-2 path), never as a crash or
// a silently wrong graph.
TEST(DeltaStoreTest, ApplyToWrongBaseIsInvalidArgument) {
  std::vector<TripleGraph> chain = testing::RandomEvolvingChain(17, 3);
  const std::string path = TempPath("wrongbase.delta");
  ASSERT_TRUE(
      WriteDelta(chain[0], chain[1], AlignMap(chain[0], chain[1]), path)
          .ok());
  // A different version, and a structurally unrelated graph.
  for (const TripleGraph* wrong : {&chain[1], &chain[2]}) {
    auto applied = ApplyDelta(*wrong, path, nullptr);
    ASSERT_FALSE(applied.ok());
    EXPECT_TRUE(applied.status().IsInvalidArgument()) << applied.status();
    EXPECT_NE(applied.status().message().find("does not apply"),
              std::string::npos)
        << applied.status();
  }
  TripleGraph other = testing::Fig2Graph();
  auto applied = ApplyDelta(other, path, nullptr);
  ASSERT_FALSE(applied.ok());
  EXPECT_TRUE(applied.status().IsInvalidArgument()) << applied.status();
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, InfoReportsCountsAndMagicSniffing) {
  auto [g1, g2] = testing::RandomEvolvingPair(5);
  const std::string path = TempPath("info.delta");
  ASSERT_TRUE(WriteDelta(g1, g2, AlignMap(g1, g2), path).ok());
  auto info = ReadDeltaInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, store::kDeltaFormatVersionFrontCoded);
  EXPECT_EQ(info->base_nodes, g1.NumNodes());
  EXPECT_EQ(info->base_triples, g1.NumEdges());
  EXPECT_EQ(info->next_nodes, g2.NumNodes());
  EXPECT_EQ(info->next_triples, g2.NumEdges());
  EXPECT_EQ(info->base_fingerprint, store::GraphFingerprint(g1));
  EXPECT_EQ(info->sections.size(), store::kNumDeltaSectionsV2);
  EXPECT_TRUE(store::LooksLikeDelta(path));
  EXPECT_FALSE(store::LooksLikeSnapshot(path));

  const std::string snap = TempPath("info.snap");
  ASSERT_TRUE(WriteSnapshot(g1, snap).ok());
  EXPECT_FALSE(store::LooksLikeDelta(snap));
  // A snapshot is not a delta (and vice versa): InvalidArgument, so the
  // CLI can sniff cleanly.
  EXPECT_TRUE(ReadDeltaInfo(snap).status().IsInvalidArgument());
  EXPECT_TRUE(store::ReadSnapshotInfo(path).status().IsInvalidArgument());
  std::remove(path.c_str());
  std::remove(snap.c_str());
}

// ----------------------------------------------------------------------
// Corruption rejection (store_test.cc::Rejects* style): bit flips,
// truncation, version mismatches, and crafted files with recomputed
// checksums must all be statuses, never UB. The crafted cases run with
// checksums on and off — structural validation alone must reject them.

/// Writes g1 -> g2 with a hybrid alignment and returns the delta bytes.
std::vector<char> MakeDeltaBytes(const TripleGraph& g1, const TripleGraph& g2,
                                 const std::string& path,
                                 DeltaWriteStats* wstats = nullptr) {
  EXPECT_TRUE(WriteDelta(g1, g2, AlignMap(g1, g2), path, wstats).ok());
  return ReadFileBytes(path);
}

/// Patches raw little-endian `value` at `pos`, then recomputes the
/// containing section's checksum and the header checksum so the file
/// models a crafted delta rather than bit rot.
template <typename T>
void PatchWithValidChecksums(std::vector<char>& bytes,
                             const store::DeltaInfo& info, size_t sec_index,
                             uint64_t entry_index, T value) {
  const auto& sec = info.sections[sec_index];
  std::memcpy(bytes.data() + sec.offset + entry_index * sizeof(T), &value,
              sizeof(value));
  const uint64_t sec_checksum =
      store::Checksum64(bytes.data() + sec.offset, sec.size);
  const size_t entry_pos = sizeof(store::DeltaHeader) +
                           sec_index * sizeof(store::SectionEntry) +
                           offsetof(store::SectionEntry, checksum);
  std::memcpy(bytes.data() + entry_pos, &sec_checksum, sizeof(sec_checksum));
  const size_t hc_pos = offsetof(store::DeltaHeader, header_checksum);
  const uint64_t zero = 0;
  std::memcpy(bytes.data() + hc_pos, &zero, sizeof(zero));
  const uint64_t hc = store::Checksum64(
      bytes.data(), sizeof(store::DeltaHeader) +
                        info.sections.size() * sizeof(store::SectionEntry));
  std::memcpy(bytes.data() + hc_pos, &hc, sizeof(hc));
}

/// Applies the crafted bytes on every checksum setting and expects a
/// Corruption status whose message contains `needle`.
void ExpectCraftedCorruption(const TripleGraph& base,
                             const std::vector<char>& crafted,
                             const std::string& path,
                             const std::string& needle) {
  WriteFileBytes(path, crafted);
  for (bool verify : {false, true}) {
    DeltaApplyOptions options;
    options.verify_checksums = verify;
    auto applied = ApplyDelta(base, path, nullptr, options);
    ASSERT_FALSE(applied.ok()) << "verify " << verify << ": " << needle;
    EXPECT_TRUE(applied.status().IsCorruption()) << applied.status();
    EXPECT_NE(applied.status().message().find(needle), std::string::npos)
        << applied.status();
  }
}

TEST(DeltaStoreTest, RejectsNonDelta) {
  const std::string path = TempPath("junk.delta");
  WriteFileBytes(path, {'n', 'o', 't', ' ', 'a', ' ', 'd', 'e', 'l', 't'});
  TripleGraph g = testing::Fig2Graph();
  auto applied = ApplyDelta(g, path, nullptr);
  ASSERT_FALSE(applied.ok());
  EXPECT_TRUE(applied.status().IsCorruption());  // shorter than a header
  std::vector<char> junk(512, 'x');
  WriteFileBytes(path, junk);
  applied = ApplyDelta(g, path, nullptr);
  ASSERT_FALSE(applied.ok());
  EXPECT_TRUE(applied.status().IsInvalidArgument()) << applied.status();
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, RejectsVersionMismatch) {
  auto [g1, g2] = testing::RandomEvolvingPair(7);
  const std::string path = TempPath("version.delta");
  std::vector<char> bytes = MakeDeltaBytes(g1, g2, path);
  bytes[8] = 99;  // version field sits right after the magic
  WriteFileBytes(path, bytes);
  auto applied = ApplyDelta(g1, path, nullptr);
  ASSERT_FALSE(applied.ok());
  EXPECT_TRUE(applied.status().IsNotSupported()) << applied.status();
  EXPECT_NE(applied.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, RejectsTruncation) {
  auto [g1, g2] = testing::RandomEvolvingPair(9);
  const std::string path = TempPath("trunc.delta");
  const std::vector<char> bytes = MakeDeltaBytes(g1, g2, path);
  for (size_t keep : {size_t{4}, size_t{90}, size_t{300},
                      bytes.size() - 1}) {
    std::vector<char> cut(bytes.begin(),
                          bytes.begin() + static_cast<ptrdiff_t>(keep));
    WriteFileBytes(path, cut);
    auto applied = ApplyDelta(g1, path, nullptr);
    ASSERT_FALSE(applied.ok()) << "keep " << keep;
    EXPECT_TRUE(applied.status().IsCorruption()) << applied.status();
  }
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, RejectsBitFlips) {
  auto [g1, g2] = testing::RandomEvolvingPair(11);
  const std::string path = TempPath("flip.delta");
  const std::vector<char> bytes = MakeDeltaBytes(g1, g2, path);
  auto info = ReadDeltaInfo(path);
  ASSERT_TRUE(info.ok());
  const auto meaningful = [&info](size_t pos) {
    if (pos < sizeof(store::DeltaHeader) +
                  info->sections.size() * sizeof(store::SectionEntry)) {
      return true;
    }
    for (const auto& s : info->sections) {
      if (pos >= s.offset && pos < s.offset + s.size) return true;
    }
    return false;
  };
  size_t flips = 0;
  for (size_t pos = 0; pos < bytes.size(); pos += 7) {
    if (!meaningful(pos)) continue;
    ++flips;
    std::vector<char> flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    WriteFileBytes(path, flipped);
    auto applied = ApplyDelta(g1, path, nullptr);
    EXPECT_FALSE(applied.ok()) << "flip at byte " << pos;
  }
  EXPECT_GT(flips, 50u);
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, RejectsOutOfRangeRemapIds) {
  auto [g1, g2] = testing::RandomEvolvingPair(21);
  const std::string path = TempPath("remap.delta");
  std::vector<char> bytes = MakeDeltaBytes(g1, g2, path);
  auto info = ReadDeltaInfo(path);
  ASSERT_TRUE(info.ok());
  // Section index 5 = node_remap. An in-bounds-looking but out-of-range
  // base id (not kInvalidNode, so it is "mapped").
  std::vector<char> crafted = bytes;
  PatchWithValidChecksums<uint32_t>(
      crafted, *info, 5, 0, static_cast<uint32_t>(g1.NumNodes() + 100));
  ExpectCraftedCorruption(g1, crafted, path, "out of range");
  // Two next nodes claiming one base node: not injective.
  crafted = bytes;
  PatchWithValidChecksums<uint32_t>(crafted, *info, 5, 0, 0);
  PatchWithValidChecksums<uint32_t>(crafted, *info, 5, 1, 0);
  ExpectCraftedCorruption(g1, crafted, path, "injective");
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, RejectsNonMonotoneOrOutOfBoundsRuns) {
  auto [g1, g2] = testing::RandomEvolvingPair(23);
  const std::string path = TempPath("runs.delta");
  DeltaWriteStats wstats;
  std::vector<char> bytes = MakeDeltaBytes(g1, g2, path, &wstats);
  ASSERT_GT(wstats.removed_triples, 0u);  // evolving pairs delete triples
  ASSERT_GT(wstats.kept_triples, 0u);
  auto info = ReadDeltaInfo(path);
  ASSERT_TRUE(info.ok());
  // Section 6 = removed_runs, 7 = kept_runs; entries are {start, count}
  // u64 pairs. A start far past the base triple list:
  std::vector<char> crafted = bytes;
  PatchWithValidChecksums<uint64_t>(crafted, *info, 6, 0, uint64_t{1} << 40);
  ExpectCraftedCorruption(g1, crafted, path, "out of bounds");
  // A count overflowing the base triple list:
  crafted = bytes;
  PatchWithValidChecksums<uint64_t>(crafted, *info, 6, 1, uint64_t{1} << 40);
  ExpectCraftedCorruption(g1, crafted, path, "out of bounds");
  // A kept run whose start collides with a removed base triple: the runs
  // no longer partition the base triple list.
  crafted = bytes;
  const uint64_t removed_start = [&bytes, &info] {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + info->sections[6].offset, sizeof(v));
    return v;
  }();
  PatchWithValidChecksums<uint64_t>(crafted, *info, 7, 0, removed_start);
  ExpectCraftedCorruption(g1, crafted, path, "");
  // An empty run is malformed.
  crafted = bytes;
  PatchWithValidChecksums<uint64_t>(crafted, *info, 6, 1, 0);
  ExpectCraftedCorruption(g1, crafted, path, "");
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, RejectsOutOfRangeTermSourcesAndAddedTriples) {
  auto [g1, g2] = testing::RandomEvolvingPair(25);
  const std::string path = TempPath("terms.delta");
  DeltaWriteStats wstats;
  std::vector<char> bytes = MakeDeltaBytes(g1, g2, path, &wstats);
  ASSERT_GT(wstats.added_triples, 0u);
  auto info = ReadDeltaInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_GT(info->next_terms, 0u);
  // Section 0 = term_sources: a base term reference past base_terms.
  std::vector<char> crafted = bytes;
  PatchWithValidChecksums<uint32_t>(
      crafted, *info, 0, 0,
      static_cast<uint32_t>(info->base_terms + 7));
  ExpectCraftedCorruption(g1, crafted, path, "out of range");
  // Section 8 = added_triples: a subject id past next_nodes.
  crafted = bytes;
  PatchWithValidChecksums<uint32_t>(
      crafted, *info, 8, 0,
      static_cast<uint32_t>(info->next_nodes + 9));
  ExpectCraftedCorruption(g1, crafted, path, "");
  std::remove(path.c_str());
}

// Crafted front-coded prefix tables (section index 9, v2 only): a restart
// entry with a nonzero prefix and a prefix longer than the previous term
// must both fail structural validation, with or without checksums.
TEST(DeltaStoreTest, RejectsCraftedFrontCodedPrefixTable) {
  auto [g1, g2] = testing::RandomEvolvingPair(27);
  const std::string path = TempPath("prefix.delta");
  DeltaWriteStats wstats;
  std::vector<char> bytes = MakeDeltaBytes(g1, g2, path, &wstats);
  ASSERT_GE(wstats.new_terms, 2u);
  auto info = ReadDeltaInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->version, store::kDeltaFormatVersionFrontCoded);
  // Entry 0 is a restart point; its prefix length must be zero.
  std::vector<char> crafted = bytes;
  PatchWithValidChecksums<uint32_t>(crafted, *info, 9, 0, 1);
  ExpectCraftedCorruption(g1, crafted, path, "restart");
  // Entry 1 claims a prefix far longer than any previous term.
  crafted = bytes;
  PatchWithValidChecksums<uint32_t>(crafted, *info, 9, 1, 0x10000);
  ExpectCraftedCorruption(g1, crafted, path, "prefix");
  std::remove(path.c_str());
}

// ----------------------------------------------------------------------
// Canonical term binding by run merge: one graph content rebuilt under
// dictionaries filled in different orders must give the same fingerprint,
// the same delta bytes, and the std::sort order of its terms.

/// Rebuilds `g`'s content — same node order, labels, and triples — under
/// `dict`, which must already hold every label string.
TripleGraph RebuildUnder(const TripleGraph& g,
                         const std::shared_ptr<Dictionary>& dict) {
  std::vector<NodeLabel> labels;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    const LexId lex = dict->Find(g.Lexical(n));
    EXPECT_NE(lex, kInvalidLex) << g.Lexical(n);
    labels.push_back(NodeLabel{g.KindOf(n), lex});
  }
  return std::move(TripleGraph::FromParts(
                       dict, std::move(labels),
                       std::vector<Triple>(g.triples().begin(),
                                           g.triples().end()),
                       /*validate_rdf=*/true))
      .value();
}

/// The distinct label strings of `g`, sorted.
std::vector<std::string> SortedTerms(const TripleGraph& g) {
  std::vector<std::string> terms;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    terms.emplace_back(g.Lexical(n));
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

/// The std::sort reference for CanonicalTermOrder: the referenced ids,
/// sorted by their strings.
std::vector<LexId> SortedTermIds(const TripleGraph& g) {
  std::vector<LexId> ids;
  for (NodeId n = 0; n < g.NumNodes(); ++n) ids.push_back(g.LexicalId(n));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::sort(ids.begin(), ids.end(), [&g](LexId a, LexId b) {
    return g.dict().Get(a) < g.dict().Get(b);
  });
  return ids;
}

TEST(DeltaStoreTest, BindingIsIndependentOfDictionaryFillOrder) {
  testing::RandomGraphOptions options;
  options.uris = 150;
  options.literals = 120;
  options.blanks = 20;
  options.edges = 700;
  options.predicates = 8;
  auto [g1, g2] = testing::RandomEvolvingPair(47, options);
  const VersionNodeMap map = AlignMap(g1, g2);

  const std::vector<std::string> base_terms = SortedTerms(g1);
  std::vector<std::string> all = base_terms;
  for (const std::string& t : SortedTerms(g2)) all.push_back(t);
  // Terms no label references must not disturb the binding.
  all.push_back("urn:unused-0");
  all.push_back("\"unused-1\"");
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  std::vector<std::string> misses;
  std::set_difference(all.begin(), all.end(), base_terms.begin(),
                      base_terms.end(), std::back_inserter(misses));

  std::vector<std::pair<std::string, std::vector<std::string>>> orders;
  orders.emplace_back("sorted", all);
  {
    // A rebound pair: the base's run, then the next version's misses.
    std::vector<std::string> rebind = base_terms;
    rebind.insert(rebind.end(), misses.begin(), misses.end());
    orders.emplace_back("rebind", rebind);
  }
  {
    // Ascending blocks of five, the blocks in descending order.
    std::vector<std::string> blocks;
    for (size_t end = all.size(); end > 0;) {
      const size_t begin = end >= 5 ? end - 5 : 0;
      blocks.insert(blocks.end(), all.begin() + begin, all.begin() + end);
      end = begin;
    }
    orders.emplace_back("many runs", blocks);
  }
  orders.emplace_back("reversed",
                      std::vector<std::string>(all.rbegin(), all.rend()));
  {
    std::vector<std::string> shuffled = all;
    std::mt19937_64 rng(7);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    orders.emplace_back("random", shuffled);
  }

  const uint64_t fp1 = store::GraphFingerprint(g1);
  const uint64_t fp2 = store::GraphFingerprint(g2);
  std::vector<char> reference_bytes;
  for (const auto& [name, order] : orders) {
    SCOPED_TRACE(name);
    auto dict = std::make_shared<Dictionary>();
    for (const std::string& term : order) dict->Intern(term);
    ASSERT_EQ(dict->size(), all.size());
    const TripleGraph b = RebuildUnder(g1, dict);
    const TripleGraph n = RebuildUnder(g2, dict);
    EXPECT_EQ(store::GraphFingerprint(b), fp1);
    EXPECT_EQ(store::GraphFingerprint(n), fp2);
    EXPECT_EQ(store::CanonicalTermOrder(b), SortedTermIds(b));
    EXPECT_EQ(store::CanonicalTermOrder(n), SortedTermIds(n));

    const std::string path = TempPath("order.delta");
    ASSERT_TRUE(WriteDelta(b, n, map, path).ok());
    const std::vector<char> bytes = ReadFileBytes(path);
    if (reference_bytes.empty()) reference_bytes = bytes;
    EXPECT_EQ(bytes, reference_bytes);
    std::remove(path.c_str());
  }
}

// ----------------------------------------------------------------------
// Hash-free term resolution: ApplyDelta must leave the target dictionary
// exactly as interning the delta's terms one by one (Dictionary::Intern)
// would, whatever the target holds, and without building its hash index.

std::vector<std::string> Entries(const Dictionary& dict) {
  std::vector<std::string> out;
  for (LexId id = 0; id < dict.size(); ++id) out.emplace_back(dict.Get(id));
  return out;
}

/// The Intern reference: `existing` entries, then each of `terms` (the
/// delta's next-dense order) interned in turn.
std::vector<std::string> InternReference(
    const std::vector<std::string>& existing,
    const std::vector<std::string>& terms) {
  Dictionary ref;
  for (const std::string& t : existing) ref.Intern(t);
  for (const std::string& t : terms) ref.Intern(t);
  return Entries(ref);
}

/// `g`'s terms in canonical (delta) order.
std::vector<std::string> CanonicalTerms(const TripleGraph& g) {
  std::vector<std::string> out;
  for (LexId id : store::CanonicalTermOrder(g)) {
    out.emplace_back(g.dict().Get(id));
  }
  return out;
}

/// Applies `delta` to `base` into `target` (nullptr: a fresh dictionary)
/// and checks the result's dictionary against the Intern reference over
/// `terms`. Returns the applied graph.
TripleGraph ApplyAndCheckTerms(const TripleGraph& base,
                               const std::string& delta,
                               std::shared_ptr<Dictionary> target,
                               const std::vector<std::string>& terms) {
  const std::vector<std::string> existing =
      target == nullptr ? std::vector<std::string>{} : Entries(*target);
  auto applied = ApplyDelta(base, delta, target);
  EXPECT_TRUE(applied.ok()) << applied.status();
  if (!applied.ok()) return TripleGraph();
  EXPECT_EQ(Entries(applied->dict()), InternReference(existing, terms));
  return std::move(applied).value();
}

/// Writes g1 -> g2 as a v2 delta and both versions as v2 snapshots.
struct DeltaFiles {
  std::string base_snap;
  std::string next_snap;
  std::string delta;
  ~DeltaFiles() {
    for (const std::string* p : {&base_snap, &next_snap, &delta}) {
      std::remove(p->c_str());
    }
  }
};

void WriteDeltaFiles(const TripleGraph& g1, const TripleGraph& g2,
                     DeltaFiles* files) {
  files->base_snap = TempPath("base.snap");
  files->next_snap = TempPath("next.snap");
  files->delta = TempPath("terms.delta");
  ASSERT_TRUE(WriteSnapshot(g1, files->base_snap).ok());
  ASSERT_TRUE(WriteSnapshot(g2, files->next_snap).ok());
  ASSERT_TRUE(WriteDelta(g1, g2, AlignMap(g1, g2), files->delta).ok());
}

TEST(DeltaStoreTest, PatchPathNeverBuildsTheDictionaryIndex) {
  auto [g1, g2] = testing::RandomEvolvingPair(51);
  DeltaFiles files;
  ASSERT_NO_FATAL_FAILURE(WriteDeltaFiles(g1, g2, &files));
  // The patch verb's path: load (v2), rebind into a request dictionary,
  // apply into that same dictionary.
  auto loaded =
      service::LoadGraphFile(files.base_snap, service::CommonOptions{}, false);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE((*loaded)->graph.dict().index_built());
  auto dict = std::make_shared<Dictionary>();
  const TripleGraph base = service::RebindGraph(*loaded, dict);
  EXPECT_FALSE(dict->index_built());
  auto next = ApplyDelta(base, files.delta, dict);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_FALSE(dict->index_built());
  EXPECT_FALSE((*loaded)->graph.dict().index_built());
  EXPECT_TRUE(GraphsBitIdentical(*next, g2));
}

TEST(DeltaStoreTest, TermResolutionMatchesInternReference) {
  testing::RandomGraphOptions options;
  options.uris = 120;
  options.literals = 90;
  options.edges = 500;
  auto [g1, g2] = testing::RandomEvolvingPair(53, options);
  DeltaFiles files;
  ASSERT_NO_FATAL_FAILURE(WriteDeltaFiles(g1, g2, &files));
  const std::vector<std::string> terms = CanonicalTerms(g2);
  std::vector<std::string> new_terms;
  {
    const std::vector<std::string> base_terms = CanonicalTerms(g1);
    std::set_difference(terms.begin(), terms.end(), base_terms.begin(),
                        base_terms.end(), std::back_inserter(new_terms));
  }
  ASSERT_GE(new_terms.size(), 4u);

  {
    SCOPED_TRACE("the base's own (shared) dictionary");
    auto dict = std::make_shared<Dictionary>();
    auto base = LoadSnapshot(files.base_snap, dict);
    ASSERT_TRUE(base.ok()) << base.status();
    ASSERT_TRUE(dict->ascending());
    const TripleGraph next = ApplyAndCheckTerms(*base, files.delta, dict, terms);
    EXPECT_FALSE(dict->index_built());
    EXPECT_TRUE(GraphsBitIdentical(next, g2));
  }
  {
    SCOPED_TRACE("nullptr (a fresh dictionary)");
    auto base = LoadSnapshot(files.base_snap, nullptr);
    ASSERT_TRUE(base.ok()) << base.status();
    const TripleGraph next =
        ApplyAndCheckTerms(*base, files.delta, nullptr, terms);
    EXPECT_FALSE(next.dict().index_built());
    EXPECT_TRUE(GraphsBitIdentical(next, g2));
  }
  // Every other new term, plus strings no version uses, sorted: some of
  // the delta's new terms already exist as unused entries.
  std::vector<std::string> held = {"\"held-a\"", "urn:held-m", "~held-z"};
  for (size_t k = 0; k < new_terms.size(); k += 2) {
    held.push_back(new_terms[k]);
  }
  std::sort(held.begin(), held.end());
  {
    SCOPED_TRACE("an ascending dictionary already holding new terms");
    auto base = LoadSnapshot(files.base_snap, nullptr);
    ASSERT_TRUE(base.ok()) << base.status();
    auto target = std::make_shared<Dictionary>();
    for (const std::string& t : held) target->AppendCopy(t);
    ASSERT_TRUE(target->ascending());
    const TripleGraph next =
        ApplyAndCheckTerms(*base, files.delta, target, terms);
    EXPECT_FALSE(target->index_built());
    EXPECT_TRUE(GraphsBitIdentical(next, g2));
  }
  {
    SCOPED_TRACE("the base's own dictionary, new terms preloaded");
    auto dict = std::make_shared<Dictionary>();
    for (const std::string& t : held) dict->AppendCopy(t);
    auto base = LoadSnapshot(files.base_snap, dict);
    ASSERT_TRUE(base.ok()) << base.status();
    const TripleGraph next = ApplyAndCheckTerms(*base, files.delta, dict, terms);
    EXPECT_TRUE(GraphsBitIdentical(next, g2));
  }
  {
    SCOPED_TRACE("a non-ascending dictionary");
    auto base = LoadSnapshot(files.base_snap, nullptr);
    ASSERT_TRUE(base.ok()) << base.status();
    auto target = std::make_shared<Dictionary>();
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      target->AppendCopy(*it);
    }
    ASSERT_FALSE(target->ascending());
    const TripleGraph next =
        ApplyAndCheckTerms(*base, files.delta, target, terms);
    EXPECT_TRUE(GraphsBitIdentical(next, g2));
  }
}

TEST(DeltaStoreTest, TermResolutionMatchesInternOnV1Fixture) {
  const std::string dir = std::string(RDFALIGN_SOURCE_DIR) + "/tests/data/";
  auto next = LoadSnapshot(dir + "fixture_next_v1.snap", nullptr);
  ASSERT_TRUE(next.ok()) << next.status();
  const std::vector<std::string> terms = CanonicalTerms(*next);
  {
    SCOPED_TRACE("nullptr");
    auto base = LoadSnapshot(dir + "fixture_base_v1.snap", nullptr);
    ASSERT_TRUE(base.ok()) << base.status();
    const TripleGraph applied =
        ApplyAndCheckTerms(*base, dir + "fixture_v1.delta", nullptr, terms);
    EXPECT_TRUE(GraphsBitIdentical(applied, *next));
  }
  {
    SCOPED_TRACE("the base's own dictionary");
    auto dict = std::make_shared<Dictionary>();
    auto base = LoadSnapshot(dir + "fixture_base_v1.snap", dict);
    ASSERT_TRUE(base.ok()) << base.status();
    const TripleGraph applied =
        ApplyAndCheckTerms(*base, dir + "fixture_v1.delta", dict, terms);
    EXPECT_TRUE(GraphsBitIdentical(applied, *next));
  }
}

// A crafted delta (checksums recomputed) whose term sources are not in
// lexicographic order: two base references swapped. The walk must hand
// the rest to Intern at the first out-of-order term and still match the
// Intern reference over the delta's actual term order.
TEST(DeltaStoreTest, TermResolutionFallsBackOnOutOfOrderTermSources) {
  auto [g1, g2] = testing::RandomEvolvingPair(57);
  DeltaFiles files;
  ASSERT_NO_FATAL_FAILURE(WriteDeltaFiles(g1, g2, &files));
  auto info = ReadDeltaInfo(files.delta);
  ASSERT_TRUE(info.ok()) << info.status();
  std::vector<char> bytes = ReadFileBytes(files.delta);
  const auto& sec = info->sections[0];  // term_sources
  std::vector<uint32_t> sources(sec.size / sizeof(uint32_t));
  std::memcpy(sources.data(), bytes.data() + sec.offset, sec.size);
  std::vector<size_t> from_base;
  bool new_between = false;
  for (size_t j = 0; j < sources.size(); ++j) {
    if (!(sources[j] & store::kNewTermFlag)) {
      from_base.push_back(j);
    } else if (!from_base.empty()) {
      new_between = true;
    }
  }
  ASSERT_GE(from_base.size(), 2u);
  ASSERT_TRUE(new_between);  // new terms follow the first swapped entry
  const size_t j1 = from_base.front();
  const size_t j2 = from_base.back();
  PatchWithValidChecksums<uint32_t>(bytes, *info, 0, j1, sources[j2]);
  PatchWithValidChecksums<uint32_t>(bytes, *info, 0, j2, sources[j1]);
  WriteFileBytes(files.delta, bytes);

  std::vector<std::string> terms = CanonicalTerms(g2);
  std::swap(terms[j1], terms[j2]);
  {
    SCOPED_TRACE("nullptr");
    auto base = LoadSnapshot(files.base_snap, nullptr);
    ASSERT_TRUE(base.ok()) << base.status();
    ApplyAndCheckTerms(*base, files.delta, nullptr, terms);
  }
  {
    SCOPED_TRACE("the base's own dictionary");
    auto dict = std::make_shared<Dictionary>();
    auto base = LoadSnapshot(files.base_snap, dict);
    ASSERT_TRUE(base.ok()) << base.status();
    ApplyAndCheckTerms(*base, files.delta, dict, terms);
  }
  {
    // The swapped terms already exist here, so a walk that went on past
    // the first out-of-order term would miss the second and append a
    // duplicate.
    SCOPED_TRACE("an ascending foreign dictionary holding the base terms");
    auto base = LoadSnapshot(files.base_snap, nullptr);
    ASSERT_TRUE(base.ok()) << base.status();
    auto target = std::make_shared<Dictionary>();
    for (const std::string& t : CanonicalTerms(g1)) target->AppendCopy(t);
    ASSERT_TRUE(target->ascending());
    ApplyAndCheckTerms(*base, files.delta, target, terms);
  }
}

// ----------------------------------------------------------------------
// Archive persistence equivalence (satellite): LoadArchive(SaveArchive(a))
// preserves stats, entities, interval records, and materialized versions
// exactly, across every aligner method VersionArchive supports.

void CheckArchiveRoundTrip(const std::vector<TripleGraph>& chain,
                           AlignMethod method) {
  AlignerOptions options;
  options.method = method;
  VersionArchive archive(options);
  for (const TripleGraph& g : chain) {
    ASSERT_TRUE(archive.Append(g).ok());
  }
  const std::string path = TempPath(
      "arch_" + std::string(AlignMethodToString(method)) + ".archive");
  store::ArchiveSaveStats save_stats;
  ASSERT_TRUE(store::SaveArchive(archive, path, &save_stats).ok());
  EXPECT_GT(save_stats.file_bytes, 0u);

  store::ArchiveLoadStats load_stats;
  auto loaded = store::LoadArchive(path, options, &load_stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(load_stats.versions, chain.size());

  const ArchiveStats a = archive.Stats();
  const ArchiveStats b = loaded->Stats();
  EXPECT_EQ(a.versions, b.versions);
  EXPECT_EQ(a.triple_version_pairs, b.triple_version_pairs);
  EXPECT_EQ(a.interval_records, b.interval_records);
  EXPECT_EQ(a.distinct_triples, b.distinct_triples);
  EXPECT_EQ(a.entities, b.entities);
  EXPECT_EQ(a.CompressionRatio(), b.CompressionRatio());
  EXPECT_EQ(archive.records(), loaded->records());
  for (uint32_t v = 0; v < chain.size(); ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    EXPECT_TRUE(GraphsBitIdentical(archive.Version(v), loaded->Version(v)));
    for (NodeId n = 0; n < archive.Version(v).NumNodes(); ++n) {
      ASSERT_EQ(archive.EntityOf(v, n), loaded->EntityOf(v, n))
          << "node " << n;
    }
  }
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, ArchiveRoundTripsAcrossMethods) {
  std::vector<TripleGraph> chain = testing::RandomEvolvingChain(31, 3);
  for (AlignMethod method :
       {AlignMethod::kTrivial, AlignMethod::kDeblank, AlignMethod::kHybrid,
        AlignMethod::kHybridContextual, AlignMethod::kOverlap}) {
    SCOPED_TRACE(std::string(AlignMethodToString(method)));
    CheckArchiveRoundTrip(chain, method);
  }
}

TEST(DeltaStoreTest, ArchiveRoundTripsFigureChain) {
  auto [g1, g2] = testing::Fig3Graphs();
  CheckArchiveRoundTrip({g1, g2}, AlignMethod::kHybrid);
}

TEST(DeltaStoreTest, EmptyAndSingleVersionArchives) {
  const std::string path = TempPath("small.archive");
  {
    VersionArchive empty;
    ASSERT_TRUE(store::SaveArchive(empty, path).ok());
    auto loaded = store::LoadArchive(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->NumVersions(), 0u);
  }
  {
    VersionArchive single;
    TripleGraph g = testing::Fig2Graph();
    ASSERT_TRUE(single.Append(g).ok());
    ASSERT_TRUE(store::SaveArchive(single, path).ok());
    auto loaded = store::LoadArchive(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->NumVersions(), 1u);
    EXPECT_TRUE(GraphsBitIdentical(single.Version(0), loaded->Version(0)));
  }
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, LoadedArchiveAcceptsFurtherAppends) {
  std::vector<TripleGraph> chain = testing::RandomEvolvingChain(37, 3);
  VersionArchive archive;
  ASSERT_TRUE(archive.Append(chain[0]).ok());
  ASSERT_TRUE(archive.Append(chain[1]).ok());
  const std::string path = TempPath("grow.archive");
  ASSERT_TRUE(store::SaveArchive(archive, path).ok());
  auto loaded = store::LoadArchive(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // The loaded archive has its own dictionary; appending a graph built on
  // the original chain dictionary is rejected, and appending the loaded
  // archive's own materialization works.
  EXPECT_TRUE(loaded->Append(chain[2]).status().IsInvalidArgument());
  ASSERT_TRUE(loaded->Append(loaded->Version(1)).ok());
  EXPECT_EQ(loaded->NumVersions(), 3u);
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, ArchiveRejectsCorruption) {
  std::vector<TripleGraph> chain = testing::RandomEvolvingChain(41, 3);
  VersionArchive archive;
  for (const TripleGraph& g : chain) {
    ASSERT_TRUE(archive.Append(g).ok());
  }
  const std::string path = TempPath("corrupt.archive");
  ASSERT_TRUE(store::SaveArchive(archive, path).ok());
  const std::vector<char> bytes = ReadFileBytes(path);
  EXPECT_TRUE(store::LooksLikeArchive(path));

  auto info = store::ReadArchiveInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->num_versions, chain.size());
  EXPECT_EQ(info->sections.size(), 2 * chain.size());

  // Version mismatch.
  std::vector<char> crafted = bytes;
  crafted[8] = 99;
  WriteFileBytes(path, crafted);
  EXPECT_TRUE(store::LoadArchive(path).status().IsNotSupported());
  // Truncations.
  for (size_t keep : {size_t{4}, size_t{40}, bytes.size() / 2,
                      bytes.size() - 1}) {
    std::vector<char> cut(bytes.begin(),
                          bytes.begin() + static_cast<ptrdiff_t>(keep));
    WriteFileBytes(path, cut);
    auto loaded = store::LoadArchive(path);
    ASSERT_FALSE(loaded.ok()) << "keep " << keep;
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  }
  // Bit-flip sweep over header, table, and every section payload.
  const auto meaningful = [&info](size_t pos) {
    if (pos < sizeof(store::ArchiveHeader) +
                  info->sections.size() * sizeof(store::SectionEntry)) {
      return true;
    }
    for (const auto& s : info->sections) {
      if (pos >= s.offset && pos < s.offset + s.size) return true;
    }
    return false;
  };
  size_t flips = 0;
  for (size_t pos = 0; pos < bytes.size(); pos += 31) {
    if (!meaningful(pos)) continue;
    ++flips;
    std::vector<char> flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    WriteFileBytes(path, flipped);
    EXPECT_FALSE(store::LoadArchive(path).ok()) << "flip at byte " << pos;
  }
  EXPECT_GT(flips, 30u);
  // Junk.
  WriteFileBytes(path, std::vector<char>(256, 'z'));
  EXPECT_TRUE(store::LoadArchive(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(DeltaStoreTest, MissingFilesAreIOErrors) {
  TripleGraph g = testing::Fig2Graph();
  EXPECT_TRUE(
      ApplyDelta(g, TempPath("missing.delta"), nullptr).status().IsIOError());
  EXPECT_TRUE(
      store::LoadArchive(TempPath("missing.archive")).status().IsIOError());
  EXPECT_TRUE(ReadDeltaInfo(::testing::TempDir()).status().IsIOError());
}

}  // namespace
}  // namespace rdfalign

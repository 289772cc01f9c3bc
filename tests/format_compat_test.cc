// Backward-compatibility pins for the version-1 (raw dictionary) store
// formats. The fixtures in tests/data/ were produced by a pre-front-coding
// build of the CLI (`rdfalign build/diff/updates/archive`) and are
// committed verbatim; this suite proves that the current build still
// reads every one of them bit-identically (no writer emits version 1 any
// more, so these files are the only version-1 inputs the readers see).
// If any of these tests start failing, the format compatibility promise
// of docs/store.md is broken.
//
// RDFALIGN_SOURCE_DIR is injected by CMake so the suite can run from any
// build directory.

#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "parser/ntriples_parser.h"
#include "store/archive_io.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"
#include "test_util.h"

namespace rdfalign {
namespace {

// GraphFingerprint of tests/data/fixture_base.nt, as reported by the
// pre-change `rdfalign info --json` that generated the fixtures. Pinned
// as a literal so a silent fingerprint-definition change cannot
// masquerade as compatibility.
constexpr uint64_t kBaseFingerprint = 0x476e94bc2da9aa60ull;

std::string DataPath(const std::string& name) {
  return std::string(RDFALIGN_SOURCE_DIR) + "/tests/data/" + name;
}

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_compat_" + info->name() + "_" +
         name;
}

::testing::AssertionResult BitIdentical(const TripleGraph& a,
                                        const TripleGraph& b) {
  if (const char* what = GraphsBitDiffer(a, b)) {
    return ::testing::AssertionFailure() << what << " differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(FormatCompatTest, V1SnapshotsStillLoad) {
  auto info = store::ReadSnapshotInfo(DataPath("fixture_base_v1.snap"));
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, store::kFormatVersion);
  EXPECT_EQ(info->sections.size(), store::kNumSections);

  auto loaded =
      store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(store::GraphFingerprint(*loaded), kBaseFingerprint);

  // The snapshot must reproduce the graph the .nt fixture parses to.
  auto parsed = ParseNTriplesFile(DataPath("fixture_base.nt"), nullptr);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(BitIdentical(*parsed, *loaded));
  EXPECT_EQ(store::GraphFingerprint(*parsed), kBaseFingerprint);

  auto next = store::LoadSnapshot(DataPath("fixture_next_v1.snap"), nullptr);
  ASSERT_TRUE(next.ok()) << next.status();
  auto next_parsed =
      ParseNTriplesFile(DataPath("fixture_next.nt"), nullptr);
  ASSERT_TRUE(next_parsed.ok()) << next_parsed.status();
  EXPECT_TRUE(BitIdentical(*next_parsed, *next));
}

// A v1 snapshot survives a load -> compressed (v2) save -> load cycle
// unchanged: the two load paths must agree bit for bit.
TEST(FormatCompatTest, V1ToV2RoundTripPreservesGraph) {
  auto v1 = store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(v1.ok()) << v1.status();
  const std::string out = TempPath("v2.snap");
  ASSERT_TRUE(store::WriteSnapshot(*v1, out).ok());
  auto info = store::ReadSnapshotInfo(out);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, store::kFormatVersionFrontCoded);
  auto v2 = store::LoadSnapshot(out, nullptr);
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_TRUE(BitIdentical(*v1, *v2));
  EXPECT_EQ(store::GraphFingerprint(*v2), kBaseFingerprint);
  std::remove(out.c_str());
}

TEST(FormatCompatTest, V1DeltaStillApplies) {
  auto info = store::ReadDeltaInfo(DataPath("fixture_v1.delta"));
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, store::kDeltaFormatVersion);
  EXPECT_EQ(info->sections.size(), store::kNumDeltaSections);
  EXPECT_EQ(info->base_fingerprint, kBaseFingerprint);

  auto base = store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(base.ok()) << base.status();
  auto applied =
      store::ApplyDelta(*base, DataPath("fixture_v1.delta"), nullptr);
  ASSERT_TRUE(applied.ok()) << applied.status();
  auto next = store::LoadSnapshot(DataPath("fixture_next_v1.snap"), nullptr);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_TRUE(BitIdentical(*next, *applied));
}

TEST(FormatCompatTest, V1UpdateFragmentStillDecodes) {
  auto batch = store::ReadUpdateFile(DataPath("fixture_v1.rdfu"));
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->sequence, 7u);
  EXPECT_GT(batch->added.size() + batch->removed.size(), 0u);
}

TEST(FormatCompatTest, V1ArchiveStillLoads) {
  auto fp = store::ArchiveBaseFingerprint(DataPath("fixture_v1.archive"));
  ASSERT_TRUE(fp.ok()) << fp.status();
  EXPECT_EQ(*fp, kBaseFingerprint);

  store::ArchiveLoadStats stats;
  auto archive = store::LoadArchive(DataPath("fixture_v1.archive"), {},
                                    &stats);
  ASSERT_TRUE(archive.ok()) << archive.status();
  ASSERT_EQ(stats.versions, 2u);
  auto base = store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(base.ok()) << base.status();
  auto next = store::LoadSnapshot(DataPath("fixture_next_v1.snap"), nullptr);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_TRUE(BitIdentical(archive->Version(0), *base));
  EXPECT_TRUE(BitIdentical(archive->Version(1), *next));
}

}  // namespace
}  // namespace rdfalign

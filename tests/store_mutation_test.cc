// Container mutation suite: one deterministic set of header, table and
// geometry mutations applied to a freshly written file of every store
// format (snapshot buffered and mmap, delta, archive, update fragment).
// Every mutated file must come back as Corruption, InvalidArgument or
// NotSupported — never OK, never a crash — through the format's own
// reader, which is what pins the shared container rules (docs/store.md,
// "Container") for all four formats at once.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/archive.h"
#include "core/delta.h"
#include "store/archive_io.h"
#include "store/delta.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"
#include "test_util.h"

namespace rdfalign {
namespace {

/// Table positions of a format's dictionary sections and of the node
/// label column that indexes them, and the header field bounding that
/// column (the term count).
struct DictSections {
  size_t offsets;  ///< suffix offsets (version 2), term offsets (version 1)
  size_t blob;
  size_t prefix_lens;  ///< version 2 only
  size_t node_lex;
  size_t num_terms_at;  ///< header byte offset of the u64 term count
};

/// One format under test: how to write a small file of it, the reader
/// every mutation goes through, and where its dictionary is (formats that
/// embed whole images, like the archive, have none of their own).
struct FormatCase {
  const char* name;
  size_t header_size;
  std::function<Status(const std::string& path)> write;
  std::function<Status(const std::string& path)> load;
  std::optional<DictSections> dict;
};

void PrintTo(const FormatCase& format, std::ostream* os) { *os << format.name; }

/// The base/next pair every format is written from, and the archive of
/// the two (which also supplies the delta's node map).
struct Fixture {
  TripleGraph base;
  TripleGraph next;
  VersionArchive archive;
};

const Fixture& TheFixture() {
  static const Fixture fixture = [] {
    auto [base, next] = testing::RandomEvolvingPair(5);
    Fixture f{std::move(base), std::move(next), VersionArchive()};
    EXPECT_TRUE(f.archive.Append(f.base).ok());
    EXPECT_TRUE(f.archive.Append(f.next).ok());
    return f;
  }();
  return fixture;
}

Status LoadSnapshotWith(const std::string& path, bool mmap,
                        bool verify = true) {
  store::SnapshotLoadOptions options;
  options.use_mmap = mmap;
  options.verify_checksums = verify;
  return store::LoadSnapshot(path, nullptr, options).status();
}

std::vector<FormatCase> Formats() {
  const auto write_snapshot = [](const std::string& path) {
    return store::WriteSnapshot(TheFixture().base, path);
  };
  const DictSections snapshot_dict{0, 1, 9, 3,
                                   offsetof(store::SnapshotHeader, num_terms)};
  return {
      {"snapshot_buffered", sizeof(store::SnapshotHeader), write_snapshot,
       [](const std::string& path) { return LoadSnapshotWith(path, false); },
       snapshot_dict},
      {"snapshot_mmap", sizeof(store::SnapshotHeader), write_snapshot,
       [](const std::string& path) { return LoadSnapshotWith(path, true); },
       snapshot_dict},
      {"delta", sizeof(store::DeltaHeader),
       [](const std::string& path) {
         const Fixture& f = TheFixture();
         return store::WriteDelta(
             f.base, f.next,
             NodeMapFromEntities(f.archive.Entities(0),
                                 f.archive.Entities(1)),
             path);
       },
       [](const std::string& path) {
         return store::ApplyDelta(TheFixture().base, path, nullptr).status();
       },
       DictSections{1, 2, 9, 4, offsetof(store::DeltaHeader, next_terms)}},
      {"archive", sizeof(store::ArchiveHeader),
       [](const std::string& path) {
         return store::SaveArchive(TheFixture().archive, path);
       },
       [](const std::string& path) {
         return store::LoadArchive(path).status();
       },
       std::nullopt},
      {"update_fragment", sizeof(store::UpdateHeader),
       [](const std::string& path) -> Status {
         RDFALIGN_ASSIGN_OR_RETURN(
             store::UpdateBatch batch,
             store::BuildUpdateBatch(TheFixture().base, TheFixture().next, 1));
         return store::WriteUpdateFile(batch, path);
       },
       [](const std::string& path) {
         return store::ReadUpdateFile(path).status();
       },
       DictSections{0, 1, 7, 3, offsetof(store::UpdateHeader, num_terms)}},
  };
}

template <typename T>
T LoadAt(const std::vector<char>& bytes, size_t pos) {
  T value;
  std::memcpy(&value, bytes.data() + pos, sizeof(value));
  return value;
}

template <typename T>
void StoreAt(std::vector<char>& bytes, size_t pos, const T& value) {
  std::memcpy(bytes.data() + pos, &value, sizeof(value));
}

class StoreMutationTest : public ::testing::TestWithParam<FormatCase> {
 protected:
  void SetUp() override {
    const FormatCase& format = GetParam();
    path_ = ::testing::TempDir() + "rdfalign_mutation_" + format.name;
    ASSERT_TRUE(format.write(path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    const uint64_t n = LoadAt<uint64_t>(bytes_, TrailerOffset());
    for (uint64_t s = 0; s < n; ++s) {
      table_.push_back(LoadAt<store::SectionEntry>(bytes_, EntryOffset(s)));
    }
    ASSERT_GE(table_.size(), 2u);
    ASSERT_TRUE(format.load(path_).ok()) << "pristine file must load";
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// num_sections, file_size, header_checksum close every header.
  size_t TrailerOffset() const { return GetParam().header_size - 24; }
  size_t EntryOffset(uint64_t s) const {
    return GetParam().header_size + s * sizeof(store::SectionEntry);
  }
  size_t PayloadStart() const { return EntryOffset(table_.size()); }

  /// Rewrites `table` into `bytes` and makes file_size and the header
  /// checksum consistent again, so only the geometry can object.
  void Reseal(std::vector<char>& bytes,
              const std::vector<store::SectionEntry>& table) const {
    for (size_t s = 0; s < table.size(); ++s) {
      StoreAt(bytes, EntryOffset(s), table[s]);
    }
    StoreAt<uint64_t>(bytes, TrailerOffset() + 8, bytes.size());
    StoreAt<uint64_t>(bytes, TrailerOffset() + 16, 0);
    StoreAt(bytes, TrailerOffset() + 16,
            store::Checksum64(bytes.data(), PayloadStart()));
  }

  /// Recomputes every section checksum, then reseals the header.
  void ResealChecksums(std::vector<char>& bytes) const {
    std::vector<store::SectionEntry> table = table_;
    for (store::SectionEntry& sec : table) {
      sec.checksum = store::Checksum64(bytes.data() + sec.offset, sec.size);
    }
    Reseal(bytes, table);
  }

  /// Loads `bytes` and expects a rejection of an allowed kind; returns the
  /// status so callers can check its message.
  Status ExpectRejected(const std::vector<char>& bytes,
                        const std::string& what) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const Status st = GetParam().load(path_);
    EXPECT_FALSE(st.ok()) << what;
    EXPECT_TRUE(st.IsCorruption() || st.IsInvalidArgument() ||
                st.IsNotSupported())
        << what << ": " << st;
    return st;
  }

  std::string path_;
  std::vector<char> bytes_;
  std::vector<store::SectionEntry> table_;
};

TEST_P(StoreMutationTest, RejectsByteFlips) {
  // Every header and table byte, then every 7th byte inside a section
  // payload (the alignment padding between sections carries no content).
  for (size_t pos = 0; pos < PayloadStart(); ++pos) {
    std::vector<char> flipped = bytes_;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xa5);
    ExpectRejected(flipped, "flip at byte " + std::to_string(pos));
  }
  size_t payload_flips = 0;
  for (const store::SectionEntry& sec : table_) {
    for (uint64_t pos = sec.offset; pos < sec.offset + sec.size; pos += 7) {
      std::vector<char> flipped = bytes_;
      flipped[pos] = static_cast<char>(flipped[pos] ^ 0xa5);
      ExpectRejected(flipped, "flip at byte " + std::to_string(pos));
      ++payload_flips;
    }
  }
  EXPECT_GT(payload_flips, 20u);
}

TEST_P(StoreMutationTest, RejectsTruncationAtSectionBoundaries) {
  std::vector<uint64_t> boundaries = {GetParam().header_size, PayloadStart()};
  for (const store::SectionEntry& sec : table_) {
    boundaries.push_back(sec.offset);
    boundaries.push_back(sec.offset + sec.size);
  }
  for (uint64_t boundary : boundaries) {
    for (uint64_t cut : {boundary - 1, boundary, boundary + 1}) {
      if (cut >= bytes_.size()) continue;
      std::vector<char> truncated(bytes_.begin(),
                                  bytes_.begin() + static_cast<ptrdiff_t>(cut));
      ExpectRejected(truncated, "truncated to " + std::to_string(cut));
    }
  }
}

TEST_P(StoreMutationTest, RejectsSwappedTableEntries) {
  for (size_t s = 0; s + 1 < table_.size(); ++s) {
    std::vector<store::SectionEntry> table = table_;
    std::swap(table[s], table[s + 1]);
    std::vector<char> swapped = bytes_;
    Reseal(swapped, table);
    ExpectRejected(swapped, "swapped entries " + std::to_string(s));
  }
}

TEST_P(StoreMutationTest, RejectsPaddingGapBeforeSection) {
  // Eight zero bytes before section k, with k and every later section
  // shifted to stay over its payload: aligned, in bounds and
  // non-overlapping, but not packed.
  for (size_t k = 0; k < table_.size(); ++k) {
    std::vector<store::SectionEntry> table = table_;
    for (size_t s = k; s < table.size(); ++s) table[s].offset += 8;
    std::vector<char> gapped = bytes_;
    gapped.insert(gapped.begin() + static_cast<ptrdiff_t>(table_[k].offset), 8,
                  '\0');
    Reseal(gapped, table);
    const Status st =
        ExpectRejected(gapped, "gap before section " + std::to_string(k));
    EXPECT_NE(st.message().find("out of bounds"), std::string::npos) << st;
  }
}

TEST_P(StoreMutationTest, RejectsOverlappingSection) {
  for (size_t k = 0; k < table_.size(); ++k) {
    std::vector<store::SectionEntry> table = table_;
    table[k].offset -= 8;
    std::vector<char> overlapped = bytes_;
    Reseal(overlapped, table);
    const Status st = ExpectRejected(
        overlapped, "section " + std::to_string(k) + " moved back");
    EXPECT_NE(st.message().find("out of bounds"), std::string::npos) << st;
  }
}

// A huge file of junk is rejected from its first bytes: no reader may
// allocate a file-sized buffer before the header has been validated.
TEST_P(StoreMutationTest, RejectsHugeJunkFileWithoutBuffering) {
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << std::string(512, 'x');
  }
  std::error_code ec;
  std::filesystem::resize_file(path_, uint64_t{1} << 35, ec);  // 32 GiB
  ASSERT_FALSE(ec) << ec.message();
  const Status st = GetParam().load(path_);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
}

// Hostile front-coded dictionaries, with every checksum recomputed so
// only the decoder's own checks can object. A fresh v2 snapshot load
// appends its terms unhashed (Dictionary::AppendPinned), trusting the
// strict ascending check to prove them distinct, so that check is pinned
// here for every format that carries a dictionary.
class FrontCodedMutationTest : public StoreMutationTest {
 protected:
  void SetUp() override {
    StoreMutationTest::SetUp();
    if (HasFatalFailure()) return;
    const DictSections& dict = *GetParam().dict;
    const store::SectionEntry& offsets = table_[dict.offsets];
    const store::SectionEntry& prefixes = table_[dict.prefix_lens];
    const size_t count = prefixes.size / sizeof(uint32_t);
    ASSERT_EQ(offsets.size, (count + 1) * sizeof(uint64_t));
    ASSERT_GE(count, 2u) << "the fixture must carry front-coded terms";
    for (size_t i = 0; i <= count; ++i) {
      suffix_offsets_.push_back(
          LoadAt<uint64_t>(bytes_, offsets.offset + i * sizeof(uint64_t)));
    }
    for (size_t i = 0; i < count; ++i) {
      const uint32_t plen =
          LoadAt<uint32_t>(bytes_, prefixes.offset + i * sizeof(uint32_t));
      prefix_lens_.push_back(plen);
      std::string term = i == 0 ? "" : terms_[i - 1].substr(0, plen);
      term.append(bytes_.data() + SuffixPos(i), SuffixLen(i));
      terms_.push_back(std::move(term));
    }
  }

  /// File position and length of term i's suffix in the blob.
  size_t SuffixPos(size_t i) const {
    return table_[GetParam().dict->blob].offset + suffix_offsets_[i];
  }
  size_t SuffixLen(size_t i) const {
    return suffix_offsets_[i + 1] - suffix_offsets_[i];
  }

  void ExpectRejectedWith(std::vector<char> bytes, const std::string& what,
                          const std::string& message) {
    ResealChecksums(bytes);
    const Status st = ExpectRejected(bytes, what);
    EXPECT_NE(st.message().find(message), std::string::npos) << st;
  }

  std::vector<uint64_t> suffix_offsets_;
  std::vector<uint32_t> prefix_lens_;
  std::vector<std::string> terms_;  // decoded
};

TEST_P(FrontCodedMutationTest, RejectsNonAscendingTerms) {
  // A NUL where term i first differs from term i-1 sorts it below i-1.
  size_t i = 1;
  while (i < terms_.size() &&
         !(SuffixLen(i) > 0 && prefix_lens_[i] < terms_[i - 1].size() &&
           terms_[i - 1][prefix_lens_[i]] != '\0')) {
    ++i;
  }
  ASSERT_LT(i, terms_.size());
  std::vector<char> crafted = bytes_;
  crafted[SuffixPos(i)] = '\0';
  ExpectRejectedWith(crafted,
                     "term " + std::to_string(i) + " below its predecessor",
                     "not strictly ascending");
}

TEST_P(FrontCodedMutationTest, RejectsDuplicateTerms) {
  // Term i rewritten to equal term i-1: its suffix becomes the tail of
  // term i-1 past the shared prefix, which fits when the lengths agree.
  size_t i = 1;
  while (i < terms_.size() && terms_[i].size() != terms_[i - 1].size()) ++i;
  ASSERT_LT(i, terms_.size()) << "no equal-length neighbours to duplicate";
  std::vector<char> crafted = bytes_;
  const std::string tail = terms_[i - 1].substr(prefix_lens_[i]);
  ASSERT_EQ(tail.size(), SuffixLen(i));
  std::copy(tail.begin(), tail.end(),
            crafted.begin() + static_cast<ptrdiff_t>(SuffixPos(i)));
  ExpectRejectedWith(crafted, "term " + std::to_string(i) + " duplicated",
                     "not strictly ascending");
}

TEST_P(FrontCodedMutationTest, RejectsPrefixLongerThanPreviousTerm) {
  // Term 1 is never a restart point; its prefix may not exceed term 0.
  std::vector<char> crafted = bytes_;
  StoreAt<uint32_t>(crafted,
                    table_[GetParam().dict->prefix_lens].offset +
                        sizeof(uint32_t),
                    static_cast<uint32_t>(terms_[0].size() + 1));
  ExpectRejectedWith(crafted, "prefix past term 0", "prefix longer");
}

TEST_P(FrontCodedMutationTest, RejectsNonzeroRestartPrefix) {
  // Term 0 opens the first restart block; it must be stored whole.
  std::vector<char> crafted = bytes_;
  StoreAt<uint32_t>(crafted, table_[GetParam().dict->prefix_lens].offset,
                    uint32_t{1});
  ExpectRejectedWith(crafted, "restart prefix 1", "restart term");
}

// Hostile term sections and node label columns in both dictionary
// layouts, resealed so only the shared term-section and node-column
// checks (store/front_coding.h) can object. No writer emits version 1, so
// the committed fixtures in tests/data/ are its only inputs: the base
// snapshot (buffered and mmap, checksums on and off), the delta applied
// to it, and the update fragment.
class TermSectionMutationTest : public StoreMutationTest {
 protected:
  Status ExpectCorruption(std::vector<char> bytes, const std::string& what) {
    ResealChecksums(bytes);
    const Status st = ExpectRejected(bytes, what);
    EXPECT_TRUE(st.IsCorruption()) << what << ": " << st;
    return st;
  }
};

TEST_P(TermSectionMutationTest, RejectsTermOffsetPastTheBlob) {
  const store::SectionEntry& offsets = table_[GetParam().dict->offsets];
  ASSERT_GE(offsets.size, 2 * sizeof(uint64_t)) << "the file needs a term";
  std::vector<char> crafted = bytes_;
  StoreAt<uint64_t>(crafted, offsets.offset + sizeof(uint64_t),
                    uint64_t{1} << 40);
  const Status st = ExpectCorruption(crafted, "term offset 1 past the blob");
  EXPECT_TRUE(st.message().find("not monotonic") != std::string::npos ||
              st.message().find("span") != std::string::npos)
      << st;
}

TEST_P(TermSectionMutationTest, RejectsNodeLabelPastTheTerms) {
  const DictSections& dict = *GetParam().dict;
  const store::SectionEntry& node_lex = table_[dict.node_lex];
  ASSERT_GE(node_lex.size, sizeof(uint32_t)) << "the file needs a node";
  const uint64_t num_terms = LoadAt<uint64_t>(bytes_, dict.num_terms_at);
  std::vector<char> crafted = bytes_;
  StoreAt<uint32_t>(crafted, node_lex.offset,
                    static_cast<uint32_t>(num_terms));
  ExpectCorruption(crafted, "node 0 labelled with term " +
                                std::to_string(num_terms));
}

std::string DataPath(const std::string& name) {
  return std::string(RDFALIGN_SOURCE_DIR) + "/tests/data/" + name;
}

/// Writes a committed fixture by copying it.
std::function<Status(const std::string&)> CopyFixture(std::string name) {
  return [name](const std::string& path) {
    std::error_code ec;
    std::filesystem::copy_file(
        DataPath(name), path, std::filesystem::copy_options::overwrite_existing,
        ec);
    return ec ? Status::IOError(ec.message() + ": " + name) : Status::OK();
  };
}

/// The base the committed version-1 delta applies to.
const TripleGraph& V1Base() {
  static const TripleGraph base = [] {
    auto loaded = store::LoadSnapshot(DataPath("fixture_base_v1.snap"),
                                      nullptr);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    return loaded.ok() ? std::move(loaded).value() : TripleGraph();
  }();
  return base;
}

std::vector<FormatCase> V1Formats() {
  const DictSections snapshot_dict{0, 1, 0, 3,
                                   offsetof(store::SnapshotHeader, num_terms)};
  const auto snapshot = [&](const char* name, bool mmap, bool verify) {
    return FormatCase{name, sizeof(store::SnapshotHeader),
                      CopyFixture("fixture_base_v1.snap"),
                      [mmap, verify](const std::string& path) {
                        return LoadSnapshotWith(path, mmap, verify);
                      },
                      snapshot_dict};
  };
  std::vector<FormatCase> formats = {
      snapshot("v1_snapshot_buffered", false, true),
      snapshot("v1_snapshot_buffered_unverified", false, false),
      snapshot("v1_snapshot_mmap", true, true),
      snapshot("v1_snapshot_mmap_unverified", true, false),
  };
  formats.push_back(
      {"v1_delta", sizeof(store::DeltaHeader), CopyFixture("fixture_v1.delta"),
       [](const std::string& path) {
         return store::ApplyDelta(V1Base(), path, nullptr).status();
       },
       DictSections{1, 2, 0, 4, offsetof(store::DeltaHeader, next_terms)}});
  formats.push_back(
      {"v1_update_fragment", sizeof(store::UpdateHeader),
       CopyFixture("fixture_v1.rdfu"),
       [](const std::string& path) {
         return store::ReadUpdateFile(path).status();
       },
       DictSections{0, 1, 0, 3, offsetof(store::UpdateHeader, num_terms)}});
  return formats;
}

std::string FormatName(const ::testing::TestParamInfo<FormatCase>& info) {
  return info.param.name;
}

std::vector<FormatCase> FrontCodedFormats() {
  std::vector<FormatCase> formats = Formats();
  std::erase_if(formats, [](const FormatCase& f) { return !f.dict; });
  return formats;
}

INSTANTIATE_TEST_SUITE_P(Formats, StoreMutationTest,
                         ::testing::ValuesIn(Formats()), FormatName);
INSTANTIATE_TEST_SUITE_P(Formats, FrontCodedMutationTest,
                         ::testing::ValuesIn(FrontCodedFormats()), FormatName);
INSTANTIATE_TEST_SUITE_P(Formats, TermSectionMutationTest,
                         ::testing::ValuesIn(FrontCodedFormats()), FormatName);
INSTANTIATE_TEST_SUITE_P(V1Fixtures, TermSectionMutationTest,
                         ::testing::ValuesIn(V1Formats()), FormatName);

}  // namespace
}  // namespace rdfalign

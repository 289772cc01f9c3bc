// Container mutation suite: one deterministic set of header, table and
// geometry mutations applied to a freshly written file of every store
// format (snapshot buffered and mmap, delta, archive, update fragment).
// Every mutated file must come back as Corruption, InvalidArgument or
// NotSupported — never OK, never a crash — through the format's own
// reader, which is what pins the shared container rules (docs/store.md,
// "Container") for all four formats at once.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
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

/// One format under test: how to write a small file of it, and the reader
/// every mutation goes through.
struct FormatCase {
  const char* name;
  size_t header_size;
  std::function<Status(const std::string& path)> write;
  std::function<Status(const std::string& path)> load;
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

Status LoadSnapshotWith(const std::string& path, bool mmap) {
  store::SnapshotLoadOptions options;
  options.use_mmap = mmap;
  return store::LoadSnapshot(path, nullptr, options).status();
}

std::vector<FormatCase> Formats() {
  const auto write_snapshot = [](const std::string& path) {
    return store::WriteSnapshot(TheFixture().base, path);
  };
  return {
      {"snapshot_buffered", sizeof(store::SnapshotHeader), write_snapshot,
       [](const std::string& path) { return LoadSnapshotWith(path, false); }},
      {"snapshot_mmap", sizeof(store::SnapshotHeader), write_snapshot,
       [](const std::string& path) { return LoadSnapshotWith(path, true); }},
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
       }},
      {"archive", sizeof(store::ArchiveHeader),
       [](const std::string& path) {
         return store::SaveArchive(TheFixture().archive, path);
       },
       [](const std::string& path) {
         return store::LoadArchive(path).status();
       }},
      {"update_fragment", sizeof(store::UpdateHeader),
       [](const std::string& path) -> Status {
         RDFALIGN_ASSIGN_OR_RETURN(
             store::UpdateBatch batch,
             store::BuildUpdateBatch(TheFixture().base, TheFixture().next, 1));
         return store::WriteUpdateFile(batch, path);
       },
       [](const std::string& path) {
         return store::ReadUpdateFile(path).status();
       }},
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

INSTANTIATE_TEST_SUITE_P(
    Formats, StoreMutationTest, ::testing::ValuesIn(Formats()),
    [](const ::testing::TestParamInfo<FormatCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace rdfalign

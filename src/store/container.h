// The section container shared by every store format: snapshots, deltas,
// archives and update fragments.
//
//   [ format header   magic, version, endian_tag, ...format fields...,
//                     num_sections, file_size, header_checksum          ]
//   [ SectionEntry * num_sections                                      ]
//   [ section payloads, packed: each starts at AlignUp(previous end)   ]
//
// Every header starts with {magic[8], version u32, endian_tag u32} and ends
// with the trailer {num_sections u64, file_size u64, header_checksum u64};
// the fields between belong to the format. This module is the only code
// that reads that frame (byte acquisition, header and table validation,
// section checksums), writes it (offsets, checksums, trailer, padding), or
// sniffs a magic. A format declares itself with a ContainerFormat and then
// decodes its payloads through Container's typed section spans. See
// docs/store.md ("Container") for the normative rules.

#ifndef RDFALIGN_STORE_CONTAINER_H_
#define RDFALIGN_STORE_CONTAINER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "store/format.h"
#include "util/result.h"

namespace rdfalign::store {

/// SectionSpec::size of a section whose size only the payload decoder can
/// check (a term blob, a run list).
inline constexpr uint64_t kDataDependentSize = ~uint64_t{0};

/// What a format expects of one section.
struct SectionSpec {
  uint32_t id = 0;
  /// Exact payload size, or kDataDependentSize.
  uint64_t size = kDataDependentSize;
  /// A data-dependent payload must hold whole elements of this many bytes.
  uint64_t unit = 1;
};

/// Everything a format declares about its container. The callbacks get the
/// raw header bytes (header_size of them) after magic, version and
/// endianness have been accepted.
struct ContainerFormat {
  const char* kind;  ///< names the file in messages ("snapshot", ...)
  std::array<char, 8> magic;
  size_t header_size;  ///< sizeof the format's header struct
  uint32_t min_version;  ///< accepted versions: [min_version, max_version]
  uint32_t max_version;
  /// The section count this header must declare.
  uint64_t (*section_count)(const unsigned char* header);
  /// Fills the expected id and size of every section (specs.size() is the
  /// declared count). Returns false when the header's element counts are
  /// implausible — they are bounded here so the sizes cannot overflow.
  bool (*expect)(const unsigned char* header, std::span<SectionSpec> specs);
  std::string_view (*section_name)(uint32_t id);
};

/// The raw table id of a format's section enum value.
template <typename SectionEnum>
constexpr uint32_t RawId(SectionEnum id) {
  return static_cast<uint32_t>(id);
}

/// Copies a header struct out of raw header bytes.
template <typename Header>
Header LoadHeader(const unsigned char* bytes) {
  static_assert(std::is_trivially_copyable_v<Header>);
  Header header;
  std::memcpy(&header, bytes, sizeof(header));
  return header;
}

/// How Container::Open acquires a file.
enum class Acquire {
  kPrefix,  ///< header and section table only (metadata readers)
  kBuffer,  ///< the whole file, read after its prefix has been validated
  kMmap,    ///< the whole file mapped read-only and validated in place
};

/// A container whose header and section table passed validation, in the
/// order docs/store.md documents: magic, version, endianness, section
/// count, file size, header checksum, then per section its id, expected
/// size and packed geometry. Section checksums are verified separately
/// (VerifyChecksums) because some readers may skip them. The format passed
/// to Open or FromMemory must outlive the container (every format is a
/// namespace-scope constant).
class Container {
 public:
  /// Opens and validates the file at `path`. Buffered and prefix reads
  /// check the fixed header first and the table once num_sections is
  /// bounded, so a junk or crafted file is rejected before anything
  /// file-sized is allocated.
  static Result<Container> Open(const ContainerFormat& format,
                                const std::string& path, Acquire how);

  /// Validates an image already in memory. `pin` (may be null) keeps
  /// [data, data + size) alive for as long as the container or anything
  /// that copies pin() lives; `name` labels messages.
  static Result<Container> FromMemory(const ContainerFormat& format,
                                      std::shared_ptr<const void> pin,
                                      const unsigned char* data,
                                      uint64_t size, const std::string& name);

  template <typename Header>
  Header header() const {
    return LoadHeader<Header>(header_.data());
  }
  const std::vector<SectionEntry>& table() const { return table_; }

  /// Section `index` as an array of T. Sections start 8-byte aligned and
  /// every backing (mapping, heap buffer) is at least that aligned. Not
  /// available on a kPrefix container.
  template <typename T>
  std::span<const T> Section(size_t index) const {
    return {reinterpret_cast<const T*>(data_ + table_[index].offset),
            static_cast<size_t>(table_[index].size / sizeof(T))};
  }

  /// Checksums every section on `threads` workers; the first mismatch in
  /// section order is reported as Corruption.
  Status VerifyChecksums(size_t threads) const;

  /// Reads and checksums one section of a kPrefix container from its file.
  Result<std::shared_ptr<std::string>> ReadSection(size_t index);

  /// Keeps the bytes behind Section() alive (null for unpinned memory).
  const std::shared_ptr<const void>& pin() const { return pin_; }
  uint64_t size() const { return size_; }

 private:
  Container(const ContainerFormat& format, std::string name)
      : format_(&format), name_(std::move(name)) {}

  /// Validates header and table, read through `read(offset, dst, n)` from
  /// a file of `actual_size` bytes.
  Status Validate(
      uint64_t actual_size,
      const std::function<Status(uint64_t, void*, uint64_t)>& read);
  /// "snapshot section 4 (triples)" — the subject of per-section messages.
  std::string SectionLabel(size_t index) const;

  const ContainerFormat* format_;
  std::string name_;
  std::vector<unsigned char> header_;
  std::vector<SectionEntry> table_;
  std::shared_ptr<const void> pin_;
  const unsigned char* data_ = nullptr;
  uint64_t size_ = 0;
  std::shared_ptr<std::ifstream> file_;  ///< kPrefix only, for ReadSection
};

/// Receives each piece of a streamed section payload, in order.
using PieceSink = std::function<void(std::string_view)>;

/// One section for WriteContainer: a contiguous payload, or — when
/// `pieces` is set — a payload streamed piece by piece (such as a term
/// blob), never concatenated. `pieces` runs twice, once to checksum and
/// once to write, and must emit `size` bytes in total each time.
struct SectionSource {
  uint32_t id = 0;
  const void* data = nullptr;
  uint64_t size = 0;
  std::function<void(const PieceSink&)> pieces = nullptr;
};

/// Writes `header` (format.header_size bytes of the format's header
/// struct), the section table and the packed, zero-padded payloads to
/// `out`. Fills the header's magic, endian_tag and trailer (num_sections,
/// file_size, header_checksum); the caller sets version and the format's
/// own fields. IOError "error writing <kind>: <name>" on a stream failure.
Status WriteContainer(const ContainerFormat& format, void* header,
                      std::span<const SectionSource> sections,
                      std::ostream& out, const std::string& name);

/// True when `bytes` starts with the format's magic.
bool HasMagic(const ContainerFormat& format, std::string_view bytes);

/// True when the file at `path` starts with the format's magic.
bool FileHasMagic(const ContainerFormat& format, const std::string& path);

/// Reads a whole regular file. NotFound when `path` is not one; IOError
/// "too large to buffer" when the allocator refuses its size.
Result<std::string> ReadWholeFile(const std::string& path);

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_CONTAINER_H_

// On-disk layout of the rdfalign binary snapshot format (versions 1 and 2).
//
// A snapshot serializes one TripleGraph — term dictionary, node labels,
// triple list, and both CSR indexes — so that it reloads with zero parsing:
// every array section is a verbatim little-endian memory image that the
// loader can reference in place (buffered read or mmap). See docs/store.md
// for the normative description.
//
// File layout:
//
//   [ SnapshotHeader            64 bytes                       ]
//   [ SectionEntry * kNumSections                              ]
//   [ section payloads, packed (store/container.h)             ]
//
// All integers are little-endian. The format is only written/read on
// little-endian hosts (the loader rejects the file otherwise via the
// endian tag); the structs below are laid out so that their in-memory
// representation *is* the on-disk representation (static_asserts enforce
// size and triviality).

#ifndef RDFALIGN_STORE_FORMAT_H_
#define RDFALIGN_STORE_FORMAT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "rdf/term.h"

namespace rdfalign::store {

/// "RDFSNAP1" — identifies an rdfalign snapshot file.
inline constexpr std::array<char, 8> kMagic = {'R', 'D', 'F', 'S',
                                               'N', 'A', 'P', '1'};

/// Version 1: raw dictionary (whole terms, ascending original-id order).
/// Read only: no writer emits it any more, and readers load it
/// bit-identically.
inline constexpr uint32_t kFormatVersion = 1;

/// Version 2: front-coded dictionary (terms sorted lexicographically,
/// shared prefixes elided — see store/front_coding.h). The only version
/// written; readers accept versions 1 and 2.
inline constexpr uint32_t kFormatVersionFrontCoded = 2;

/// Fixed byte-order tag. Written in native order; a reader on a host of
/// the other endianness sees the reversed pattern and rejects the file.
inline constexpr uint32_t kEndianTag = 0x0a0b0c0d;

/// The payload sections of a snapshot, in file order. Version 1 files
/// carry sections 1-9; version 2 appends kTermPrefixLens and reinterprets
/// kTermOffsets/kTermBlob as suffix offsets / suffix tails of the
/// front-coded dictionary (sorted lexicographically).
enum class SectionId : uint32_t {
  kTermOffsets = 1,  ///< (num_terms + 1) x u64: byte offsets into kTermBlob
                     ///< (v2: offsets of the suffix tails)
  kTermBlob = 2,     ///< concatenated UTF-8 lexical forms, unterminated
                     ///< (v2: concatenated suffix tails)
  kNodeKinds = 3,    ///< num_nodes x u8: TermKind of each node
  kNodeLex = 4,      ///< num_nodes x u32: term index of each node's label
  kTriples = 5,      ///< num_triples x {s,p,o u32}, sorted, deduplicated
  kOutOffsets = 6,   ///< (num_nodes + 1) x u64: CSR out-index offsets
  kOutPairs = 7,     ///< num_triples x {p,o u32}: CSR out-index payload
  kInOffsets = 8,    ///< (num_nodes + 1) x u64: reverse-CSR offsets
  kInSubjects = 9,   ///< in_offsets[num_nodes] x u32: reverse-CSR payload
  kTermPrefixLens = 10,  ///< v2 only: num_terms x u32 shared-prefix lengths
};

inline constexpr size_t kNumSections = 9;       ///< version 1
inline constexpr size_t kNumSectionsV2 = 10;    ///< version 2

/// Every section payload starts at a multiple of this (so u64 arrays can be
/// referenced in place from an mmap).
inline constexpr size_t kSectionAlignment = 8;

/// The fixed-size file header.
struct SnapshotHeader {
  std::array<char, 8> magic;  ///< kMagic
  uint32_t version;           ///< kFormatVersion
  uint32_t endian_tag;        ///< kEndianTag
  uint64_t num_nodes;         ///< |N_G|
  uint64_t num_triples;       ///< |E_G| (sorted, deduplicated)
  uint64_t num_terms;         ///< dictionary entries referenced by the graph
  uint64_t num_sections;      ///< kNumSections
  uint64_t file_size;         ///< total snapshot size in bytes
  uint64_t header_checksum;   ///< Checksum64 of header + section table,
                              ///< computed with this field set to zero
};
static_assert(sizeof(SnapshotHeader) == 64);
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);

/// One section-table entry.
struct SectionEntry {
  uint32_t id;        ///< SectionId
  uint32_t reserved;  ///< zero
  uint64_t offset;    ///< absolute byte offset of the payload
  uint64_t size;      ///< payload size in bytes (before padding)
  uint64_t checksum;  ///< Checksum64 of the payload bytes
};
static_assert(sizeof(SectionEntry) == 32);
static_assert(std::is_trivially_copyable_v<SectionEntry>);

/// The unread last parameter of WriteSnapshot and WriteDelta. Writers
/// always emit the front-coded version-2 layout; `compress_dict` is kept
/// only so that existing callers naming it in designated initializers
/// still compile, and no code reads it.
struct StoreWriteOptions {
  bool compress_dict = true;
};

// The array sections are memory images of these in-memory types; pin their
// layout so the zero-copy load path is sound.
static_assert(sizeof(Triple) == 12 && std::is_trivially_copyable_v<Triple>);
static_assert(sizeof(PredicateObject) == 8 &&
              std::is_trivially_copyable_v<PredicateObject>);
static_assert(sizeof(NodeId) == 4 && sizeof(LexId) == 4);

// ------------------------------------------------------------------------
// Delta files (version 1): the incremental change between two snapshots.
//
// A delta serializes everything needed to reconstruct the *next* version
// from a materialized *base* graph with no parsing and no sorting:
// dictionary additions, the next version's node columns, the
// alignment-derived node remap, and the triple change expressed as runs
// over the base triple list plus a sorted added-triple list. The file
// shares the snapshot conventions — fixed header, section table, 8-byte
// aligned checksummed payloads. See docs/store.md ("Delta format").

/// "RDFDELT1" — identifies an rdfalign delta file.
inline constexpr std::array<char, 8> kDeltaMagic = {'R', 'D', 'F', 'D',
                                                    'E', 'L', 'T', '1'};

/// Delta version 1: raw new-term blob. Read only: no writer emits it any
/// more, and readers apply it bit-identically.
inline constexpr uint32_t kDeltaFormatVersion = 1;

/// Delta version 2: front-coded new-term blob (the new-term list is
/// already lexicographically sorted by construction). The only version
/// written; readers accept versions 1 and 2.
inline constexpr uint32_t kDeltaFormatVersionFrontCoded = 2;

/// The payload sections of a delta, in file order. Version 1 files carry
/// sections 1-9; version 2 appends kNewTermPrefixLens and reinterprets
/// kNewTermOffsets/kNewTermBlob as suffix offsets / suffix tails.
enum class DeltaSectionId : uint32_t {
  kTermSources = 1,     ///< next_terms x u32: base term index, or
                        ///< kNewTermFlag | new-term index
  kNewTermOffsets = 2,  ///< (num_new_terms + 1) x u64 into kNewTermBlob
                        ///< (v2: offsets of the suffix tails)
  kNewTermBlob = 3,     ///< concatenated UTF-8 lexical forms of new terms
                        ///< (v2: concatenated suffix tails)
  kNodeKinds = 4,       ///< next_nodes x u8: TermKind per next node
  kNodeLex = 5,         ///< next_nodes x u32: next-dense term index
  kNodeRemap = 6,       ///< next_nodes x u32: aligned base node or
                        ///< kInvalidNode (injective on mapped entries)
  kRemovedRuns = 7,     ///< RunEntry[]: base triple indexes absent in next,
                        ///< ascending, non-overlapping
  kKeptRuns = 8,        ///< RunEntry[]: surviving base triple index runs,
                        ///< ordered by the mapped triples' next-space sort
                        ///< position
  kAddedTriples = 9,    ///< Triple[]: next-space triples new in next, sorted
  kNewTermPrefixLens = 10,  ///< v2 only: num_new_terms x u32 prefix lengths
};

inline constexpr size_t kNumDeltaSections = 9;       ///< version 1
inline constexpr size_t kNumDeltaSectionsV2 = 10;    ///< version 2

/// Marks a kTermSources entry as referencing the delta's new-term table
/// (low 31 bits index it) instead of the base term table.
inline constexpr uint32_t kNewTermFlag = 0x80000000u;

/// Term counts in delta files are bounded so kNewTermFlag can never collide
/// with a base term index.
inline constexpr uint64_t kMaxDeltaTerms = 0x7fffffffull;

/// A run of `count` consecutive base triple indexes starting at `start`.
struct RunEntry {
  uint64_t start;
  uint64_t count;
};
static_assert(sizeof(RunEntry) == 16);
static_assert(std::is_trivially_copyable_v<RunEntry>);

/// The fixed-size delta file header.
struct DeltaHeader {
  std::array<char, 8> magic;  ///< kDeltaMagic
  uint32_t version;           ///< kDeltaFormatVersion
  uint32_t endian_tag;        ///< kEndianTag
  uint64_t base_nodes;        ///< |N| of the base version
  uint64_t base_triples;      ///< |E| of the base version
  uint64_t base_terms;        ///< referenced dictionary terms of the base
  uint64_t base_fingerprint;  ///< GraphFingerprint(base) — binds the delta
                              ///< to exactly one base graph
  uint64_t next_nodes;        ///< |N| of the reconstructed version
  uint64_t next_triples;      ///< |E| of the reconstructed version
  uint64_t next_terms;        ///< referenced terms of the next version
  uint64_t num_new_terms;     ///< terms of next absent from the base
  uint64_t num_sections;      ///< kNumDeltaSections
  uint64_t file_size;         ///< total delta size in bytes
  uint64_t header_checksum;   ///< Checksum64 of header + section table,
                              ///< computed with this field set to zero
};
static_assert(sizeof(DeltaHeader) == 104);
static_assert(std::is_trivially_copyable_v<DeltaHeader>);

// ------------------------------------------------------------------------
// Archive files (version 1): a base snapshot plus a delta chain plus the
// per-version entity-id columns of a VersionArchive (§6). Sections are a
// verbatim embedded snapshot image, one embedded delta image per later
// version, then one u64 entity array per version.

/// "RDFARCH1" — identifies an rdfalign version-archive file.
inline constexpr std::array<char, 8> kArchiveMagic = {'R', 'D', 'F', 'A',
                                                      'R', 'C', 'H', '1'};

inline constexpr uint32_t kArchiveFormatVersion = 1;

/// Archive section kinds (ids repeat; order is base, deltas, entities).
enum class ArchiveSectionId : uint32_t {
  kBaseSnapshot = 1,  ///< embedded snapshot image of version 0
  kDelta = 2,         ///< embedded delta image v-1 -> v, ascending v
  kEntities = 3,      ///< num_nodes(v) x u64 entity ids, ascending v
};

/// The fixed-size archive file header.
struct ArchiveHeader {
  std::array<char, 8> magic;  ///< kArchiveMagic
  uint32_t version;           ///< kArchiveFormatVersion
  uint32_t endian_tag;        ///< kEndianTag
  uint64_t num_versions;      ///< V; sections = 2V (V >= 1), 0 when V == 0
  uint64_t num_sections;
  uint64_t file_size;
  uint64_t header_checksum;  ///< Checksum64 of header + section table,
                             ///< computed with this field set to zero
};
static_assert(sizeof(ArchiveHeader) == 48);
static_assert(std::is_trivially_copyable_v<ArchiveHeader>);

/// Content checksum: multiply-xor mixing over 8-byte words, tail bytes
/// zero-padded into a final word, total length folded in at the end. Not
/// cryptographic — detects torn writes, truncation, and bit rot. Incremental
/// (the writer streams the term blob through it); word assembly is
/// little-endian by construction since only little-endian hosts read or
/// write snapshots.
class Checksummer {
 public:
  void Update(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += n;
    if (carry_len_ > 0) {
      // Complete the pending partial word first.
      while (carry_len_ < 8 && n > 0) {
        carry_[carry_len_++] = *p++;
        --n;
      }
      if (carry_len_ < 8) return;
      MixWord(LoadWord(carry_, 8));
      carry_len_ = 0;
    }
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      MixWord(LoadWord(p + i, 8));
    }
    for (; i < n; ++i) {
      carry_[carry_len_++] = p[i];
    }
  }

  uint64_t Finish() const {
    uint64_t h = h_;
    if (carry_len_ > 0) {
      uint64_t w = LoadWord(carry_, carry_len_);
      h = (h ^ (w + 0x9e3779b97f4a7c15ULL)) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 29;
    }
    // Fold the length so trailing-zero payloads of different sizes differ,
    // then avalanche.
    h ^= total_ * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
    h *= 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

 private:
  static uint64_t LoadWord(const unsigned char* p, size_t n) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);  // zero-padded partial word
    return w;
  }
  void MixWord(uint64_t w) {
    h_ = (h_ ^ (w + 0x9e3779b97f4a7c15ULL)) * 0xbf58476d1ce4e5b9ULL;
    h_ ^= h_ >> 29;
  }

  uint64_t h_ = 0x9e3779b97f4a7c15ULL;
  unsigned char carry_[8] = {};
  size_t carry_len_ = 0;
  uint64_t total_ = 0;
};

/// One-shot convenience over Checksummer.
inline uint64_t Checksum64(const void* data, size_t n) {
  Checksummer c;
  c.Update(data, n);
  return c.Finish();
}

/// Rounds `offset` up to the next section boundary.
inline uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~uint64_t{kSectionAlignment - 1};
}

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_FORMAT_H_

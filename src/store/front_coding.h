// Dictionary sections of the snapshot, delta, and update-fragment files:
// the front-coded writer layout and the one reader-side check and decode
// of both on-disk term layouts.
//
// Writers emit format version 2, the front-coded layout. Its terms are
// sorted lexicographically by their raw bytes; consecutive terms then
// share long prefixes (IRIs share namespaces by construction), and each
// term is stored as
//
//   prefix_lens[i]  — bytes shared with term i-1 (u32)
//   suffix          — the remaining tail, concatenated into the blob
//
// with a *restart point* every kRestartInterval terms: at a restart the
// prefix length is forced to zero, so the term is stored whole and any
// single term decodes by scanning at most one block — O(block), not O(i).
// The suffix offset table keeps the (t + 1) x u64 shape of the raw
// version-1 layout, but its entries index the *suffix* blob.
//
// Readers also accept version 1, the raw layout: whole terms, no prefix
// column, in no particular order (no writer emits it any more; committed
// fixtures pin it). Both layouts go through CheckTermSection and
// TermDecoder below, so a reader knows nothing of either.
//
// The decode contract (see docs/store.md "Front-coded dictionary"):
// restart terms and raw terms are complete in the blob and stay
// zero-copy; non-restart terms are materialized (previous term's head +
// own suffix) into a caller-owned arena, so a snapshot load can pin it to
// the dictionary and Dictionary::InternPinned stays valid for every term.

#ifndef RDFALIGN_STORE_FRONT_CODING_H_
#define RDFALIGN_STORE_FRONT_CODING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace rdfalign::store {

/// Terms between forced whole-term restart points. Small enough that the
/// worst-case single-term decode touches a handful of entries, large
/// enough that the per-block whole term amortizes away.
inline constexpr size_t kRestartInterval = 16;

/// The computed layout of one front-coded term list: per-term shared
/// prefix lengths and offsets of the suffix tails. Suffix bytes are not
/// materialized — writers stream them from the term accessor.
struct FrontCodedLayout {
  std::vector<uint32_t> prefix_lens;     ///< count entries
  std::vector<uint64_t> suffix_offsets;  ///< count + 1 entries
};

/// Computes the front-coded layout of `count` terms. `get(i)` must return
/// the i-th term; the terms must be sorted ascending (strictly — distinct
/// interned ids hold distinct strings).
template <typename GetTerm>
FrontCodedLayout FrontCodeTerms(size_t count, GetTerm&& get) {
  FrontCodedLayout layout;
  layout.prefix_lens.resize(count);
  layout.suffix_offsets.assign(count + 1, 0);
  std::string_view prev;
  for (size_t i = 0; i < count; ++i) {
    const std::string_view term = get(i);
    size_t plen = 0;
    if (i % kRestartInterval != 0) {
      const size_t limit = prev.size() < term.size() ? prev.size()
                                                     : term.size();
      while (plen < limit && prev[plen] == term[plen]) ++plen;
      // The on-disk field is u32; a >4 GiB shared prefix is truncated to
      // a shorter (still correct) one rather than wrapped.
      if (plen > 0xffffffffull) plen = 0xffffffffull;
    }
    layout.prefix_lens[i] = static_cast<uint32_t>(plen);
    layout.suffix_offsets[i + 1] =
        layout.suffix_offsets[i] + (term.size() - plen);
    prev = term;
  }
  return layout;
}

/// A dictionary section as a reader finds it in a container. `offsets`
/// has count + 1 entries; `prefix_lens` has count entries when the
/// section is front-coded and is ignored otherwise.
struct TermSection {
  bool front_coded = false;
  std::span<const uint64_t> offsets;
  std::span<const char> blob;
  std::span<const uint32_t> prefix_lens;

  size_t count() const { return offsets.size() - 1; }
};

class Container;

/// The term section of `c` at table positions `offsets` and `blob`, plus
/// `prefix_lens` when `front_coded` (a raw file has no such section).
TermSection TermSectionAt(const Container& c, bool front_coded,
                          size_t offsets, size_t blob, size_t prefix_lens);

/// Validates a term section's geometry before any blob byte is
/// interpreted: the offsets span the blob monotonically and, when
/// front-coded, every restart has prefix length zero and every prefix
/// length is bounded by the previous term's decoded length — so
/// TermDecoder never reads outside its inputs. Returns nullptr on success
/// or a static description of the defect; on success *arena_bytes is the
/// total decoded size of the materialized terms (the arena budget, 0 for
/// a raw section).
const char* CheckTermSection(const TermSection& section,
                             uint64_t* arena_bytes);

/// Validates the node columns that reference a term section: every kind
/// is a TermKind and every lex index names one of `num_terms` terms.
/// Returns nullptr or a static description of the defect.
const char* CheckNodeColumns(std::span<const uint8_t> kinds,
                             std::span<const uint32_t> lex,
                             uint64_t num_terms);

/// Decodes a section that passed CheckTermSection, one term per Next()
/// call in file order. Materialized terms are appended to `arena`, which
/// the caller reserves to the CheckTermSection budget beforehand: the
/// arena then never reallocates, so every view handed out stays valid
/// as long as the arena and the blob do.
class TermDecoder {
 public:
  TermDecoder(TermSection section, std::vector<char>* arena)
      : section_(section), arena_(arena) {}

  /// Decodes the next term into *term. Returns nullptr, or a static
  /// description of the defect when a front-coded term is not strictly
  /// greater than its predecessor (which proves the terms distinct).
  const char* Next(std::string_view* term) {
    const uint64_t begin = section_.offsets[next_];
    const uint64_t len = section_.offsets[next_ + 1] - begin;
    const uint32_t plen =
        section_.front_coded ? section_.prefix_lens[next_] : 0;
    if (plen == 0) {
      *term = std::string_view(section_.blob.data() + begin, len);
    } else {
      const size_t pos = arena_->size();
      arena_->insert(arena_->end(), prev_.data(), prev_.data() + plen);
      arena_->insert(arena_->end(), section_.blob.data() + begin,
                     section_.blob.data() + begin + len);
      *term = std::string_view(arena_->data() + pos, plen + len);
    }
    if (section_.front_coded && next_ > 0 && !(prev_ < *term)) {
      return "front-coded terms not strictly ascending";
    }
    prev_ = *term;
    ++next_;
    return nullptr;
  }

 private:
  TermSection section_;
  std::vector<char>* arena_;
  std::string_view prev_;
  uint64_t next_ = 0;
};

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_FRONT_CODING_H_

// String interning: lexical forms -> dense LexId.
//
// A Dictionary is shared between the two versions being aligned so that
// label equality is an integer comparison — the trivial alignment (§3.1)
// and the initial bisimulation coloring both reduce to comparing LexIds.
//
// Two storage modes coexist per entry: Intern() and AppendCopy() copy the
// string into the dictionary, while InternPinned() and AppendPinned()
// record a view into an externally owned buffer registered with PinArena()
// (the snapshot store's zero-copy load path — term bytes stay in the load
// buffer / file mapping and are never copied).
//
// The string -> id hash index is lazy: appending never touches it, and it
// is built on the first Find(), Intern() or InternPinned(). A snapshot
// load (AppendPinned), a merge-join rebind (service::RebindGraph) and a
// patch replay's merge walk (store::ApplyDelta, AppendCopy) never build
// it. Each append also records whether the entries still form one
// strictly ascending run (std::string_view operator<), which is what lets
// RebindGraph and ApplyDelta join against a dictionary by a linear merge
// instead of hashing.

#ifndef RDFALIGN_RDF_DICTIONARY_H_
#define RDFALIGN_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"
#include "util/lazy_index.h"

namespace rdfalign {

/// Append-only interner of lexical forms. Mutation is not thread-safe;
/// the const lookups (Find, Get) are, including the lazy index build.
class Dictionary {
 public:
  Dictionary() = default;

  // Movable but not copyable: interned string_views point into strings_
  // (deque nodes and pinned arenas survive a move).
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// Interns `s`, returning its id; repeated calls with equal strings return
  /// the same id. The bytes are copied into the dictionary.
  LexId Intern(std::string_view s) {
    const LexId id = Find(s);
    return id != kInvalidLex ? id : AppendCopy(s);
  }

  /// Keeps `arena` alive for the lifetime of this dictionary so that views
  /// into it may be interned without copying.
  void PinArena(std::shared_ptr<const void> arena) {
    arenas_.push_back(std::move(arena));
  }

  /// Interns `s` *by reference*: the dictionary stores the view itself, not
  /// a copy. `s` must point into memory registered with PinArena() (or
  /// otherwise outlive the dictionary).
  LexId InternPinned(std::string_view s) {
    const LexId id = Find(s);
    return id != kInvalidLex ? id : Append(s);
  }

  /// Appends `s` by reference without looking it up, as a new id. The
  /// caller guarantees `s` is not interned yet (the snapshot loader's
  /// proven strictly ascending terms, a merge-join miss); `s` must outlive
  /// the dictionary as for InternPinned().
  LexId AppendPinned(std::string_view s) { return Append(s); }

  /// Appends a copy of `s` without looking it up, as a new id. The caller
  /// guarantees `s` is not interned yet (a patch replay's merge-walk miss).
  LexId AppendCopy(std::string_view s) {
    strings_.emplace_back(s);
    return Append(strings_.back());
  }

  /// Returns the id of `s` or kInvalidLex when not interned. The first
  /// lookup builds the hash index.
  LexId Find(std::string_view s) const {
    const Index& index = index_.Get([this](Index* map) {
      map->reserve(views_.size());
      for (LexId id = 0; id < views_.size(); ++id) map->emplace(views_[id], id);
    });
    auto it = index.find(s);
    return it == index.end() ? kInvalidLex : it->second;
  }

  /// The lexical form for an id. id must be valid.
  std::string_view Get(LexId id) const { return views_[id]; }

  size_t size() const { return views_.size(); }

  /// True while every entry is strictly greater than the one before it
  /// (vacuously for fewer than two entries).
  bool ascending() const { return ascending_; }

  /// Sum of the entries' byte lengths.
  uint64_t term_bytes() const { return term_bytes_; }

  /// Whether the lazy hash index has been built.
  bool index_built() const { return index_.built(); }

 private:
  using Index = std::unordered_map<std::string_view, LexId>;

  LexId Append(std::string_view view) {
    ascending_ = ascending_ && (views_.empty() || views_.back() < view);
    term_bytes_ += view.size();
    views_.push_back(view);
    const LexId id = static_cast<LexId>(views_.size() - 1);
    if (Index* index = index_.Mutable()) index->emplace(view, id);
    return id;
  }

  // std::deque keeps element references stable under growth, so views into
  // strings_ remain valid.
  std::deque<std::string> strings_;
  // id -> lexical form; points into strings_ or into a pinned arena.
  std::vector<std::string_view> views_;
  // External buffers (snapshot load buffers / file mappings) whose bytes
  // back pinned entries.
  std::vector<std::shared_ptr<const void>> arenas_;
  bool ascending_ = true;
  uint64_t term_bytes_ = 0;
  LazyIndex<Index> index_;
};

}  // namespace rdfalign

#endif  // RDFALIGN_RDF_DICTIONARY_H_

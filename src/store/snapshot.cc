#include "store/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "store/atomic_writer.h"
#include "store/container.h"
#include "store/front_coding.h"
#include "util/shared_array.h"

namespace rdfalign::store {

namespace {

/// Section count of a snapshot format version.
size_t SectionCount(uint32_t version) {
  return version == kFormatVersion ? kNumSections : kNumSectionsV2;
}

bool ExpectSnapshotSections(const unsigned char* bytes,
                            std::span<SectionSpec> specs) {
  const auto h = LoadHeader<SnapshotHeader>(bytes);
  // Bound the counts before computing expected sizes (overflow safety).
  if (h.num_nodes >= kInvalidNode || h.num_terms >= kInvalidLex ||
      h.num_triples > (uint64_t{1} << 40)) {
    return false;
  }
  const uint64_t n = h.num_nodes;
  const uint64_t e = h.num_triples;
  const uint64_t t = h.num_terms;
  // The blob and in_subjects sizes are data-dependent; LoadFromContainer
  // cross-checks them against their offset arrays.
  const SectionSpec all[kNumSectionsV2] = {
      {RawId(SectionId::kTermOffsets), (t + 1) * sizeof(uint64_t)},
      {RawId(SectionId::kTermBlob)},
      {RawId(SectionId::kNodeKinds), n * sizeof(uint8_t)},
      {RawId(SectionId::kNodeLex), n * sizeof(uint32_t)},
      {RawId(SectionId::kTriples), e * sizeof(Triple)},
      {RawId(SectionId::kOutOffsets), (n + 1) * sizeof(uint64_t)},
      {RawId(SectionId::kOutPairs), e * sizeof(PredicateObject)},
      {RawId(SectionId::kInOffsets), (n + 1) * sizeof(uint64_t)},
      {RawId(SectionId::kInSubjects), kDataDependentSize, sizeof(NodeId)},
      {RawId(SectionId::kTermPrefixLens), t * sizeof(uint32_t)},
  };
  std::copy_n(all, specs.size(), specs.begin());
  return true;
}

constexpr ContainerFormat kSnapshotFormat = {
    .kind = "snapshot",
    .magic = kMagic,
    .header_size = sizeof(SnapshotHeader),
    .min_version = kFormatVersion,
    .max_version = kFormatVersionFrontCoded,
    .section_count = [](const unsigned char* h) -> uint64_t {
      return SectionCount(LoadHeader<SnapshotHeader>(h).version);
    },
    .expect = ExpectSnapshotSections,
    .section_name =
        [](uint32_t id) { return SectionName(static_cast<SectionId>(id)); },
};

}  // namespace

std::string_view SectionName(SectionId id) {
  switch (id) {
    case SectionId::kTermOffsets:
      return "term_offsets";
    case SectionId::kTermBlob:
      return "term_blob";
    case SectionId::kNodeKinds:
      return "node_kinds";
    case SectionId::kNodeLex:
      return "node_lex";
    case SectionId::kTriples:
      return "triples";
    case SectionId::kOutOffsets:
      return "out_offsets";
    case SectionId::kOutPairs:
      return "out_pairs";
    case SectionId::kInOffsets:
      return "in_offsets";
    case SectionId::kInSubjects:
      return "in_subjects";
    case SectionId::kTermPrefixLens:
      return "term_prefix_lens";
  }
  return "unknown";
}

std::vector<LexId> CanonicalTermOrder(const TripleGraph& g) {
  const Dictionary& dict = g.dict();
  std::vector<uint8_t> used(dict.size(), 0);
  for (const NodeLabel& l : g.labels()) {
    used[l.lex] = 1;
  }
  std::vector<LexId> ids;
  for (LexId id = 0; id < used.size(); ++id) {
    if (used[id]) ids.push_back(id);
  }
  // Natural merge sort: cut the id-ordered list into its maximal strictly
  // ascending runs, then merge neighbouring runs pairwise until one is
  // left. A dictionary filled in sorted order (a v2 load) is one run and a
  // rebound next version two (the base's terms, then its misses), so the
  // usual cost is one or two linear passes; a scrambled dictionary yields
  // many runs and degrades to an ordinary merge sort. Distinct ids hold
  // distinct strings (the dictionary interns uniquely), so the order is
  // total and the result is the unique sorted permutation.
  const auto less = [&dict](LexId a, LexId c) {
    return dict.Get(a) < dict.Get(c);
  };
  std::vector<size_t> bounds{0};
  for (size_t i = 1; i < ids.size(); ++i) {
    if (!less(ids[i - 1], ids[i])) bounds.push_back(i);
  }
  bounds.push_back(ids.size());
  std::vector<LexId> tmp(bounds.size() > 2 ? ids.size() : 0);
  while (bounds.size() > 2) {
    std::vector<size_t> merged{0};
    for (size_t r = 0; r + 1 < bounds.size(); r += 2) {
      const size_t mid = bounds[r + 1];
      const size_t hi = r + 2 < bounds.size() ? bounds[r + 2] : mid;
      std::merge(ids.begin() + bounds[r], ids.begin() + mid,
                 ids.begin() + mid, ids.begin() + hi, tmp.begin() + bounds[r],
                 less);
      merged.push_back(hi);
    }
    ids.swap(tmp);
    bounds = std::move(merged);
  }
  return ids;
}

Status WriteSnapshotToStream(const TripleGraph& g, std::ostream& out,
                             const std::string& path) {
  static_assert(std::endian::native == std::endian::little,
                "snapshots are written on little-endian hosts only");
  const size_t n = g.NumNodes();
  const size_t e = g.NumEdges();
  const Dictionary& dict = g.dict();

  // Terms referenced by this graph, renumbered densely in lexicographic
  // order (the front-coding precondition). A shared dictionary may hold
  // terms of other graphs; those are not written. Loading a snapshot into
  // a fresh dictionary interns the terms in file order, so re-saving a
  // loaded snapshot reproduces it byte for byte.
  const std::vector<LexId> term_ids = CanonicalTermOrder(g);
  const size_t num_terms = term_ids.size();
  std::vector<LexId> remap(dict.size(), kInvalidLex);
  for (size_t j = 0; j < num_terms; ++j) {
    remap[term_ids[j]] = static_cast<LexId>(j);
  }

  // Dense columns. The offset table indexes the suffix blob; the
  // prefix-length column is the tenth section.
  const FrontCodedLayout layout = FrontCodeTerms(
      num_terms, [&](size_t i) { return dict.Get(term_ids[i]); });
  std::vector<uint8_t> kinds(n);
  std::vector<uint32_t> lex(n);
  for (size_t i = 0; i < n; ++i) {
    kinds[i] = static_cast<uint8_t>(g.labels()[i].kind);
    lex[i] = remap[g.labels()[i].lex];
  }

  const SectionSource sections[kNumSectionsV2] = {
      {RawId(SectionId::kTermOffsets), layout.suffix_offsets.data(),
       (num_terms + 1) * sizeof(uint64_t)},
      {RawId(SectionId::kTermBlob), nullptr, layout.suffix_offsets[num_terms],
       [&](const PieceSink& sink) {
         for (size_t i = 0; i < num_terms; ++i) {
           sink(dict.Get(term_ids[i]).substr(layout.prefix_lens[i]));
         }
       }},
      {RawId(SectionId::kNodeKinds), kinds.data(), n * sizeof(uint8_t)},
      {RawId(SectionId::kNodeLex), lex.data(), n * sizeof(uint32_t)},
      {RawId(SectionId::kTriples), g.triples().data(), e * sizeof(Triple)},
      {RawId(SectionId::kOutOffsets), g.OutOffsets().data(),
       (n + 1) * sizeof(uint64_t)},
      {RawId(SectionId::kOutPairs), g.OutPairs().data(),
       e * sizeof(PredicateObject)},
      {RawId(SectionId::kInOffsets), g.InOffsets().data(),
       (n + 1) * sizeof(uint64_t)},
      {RawId(SectionId::kInSubjects), g.InSubjects().data(),
       g.InSubjects().size() * sizeof(NodeId)},
      {RawId(SectionId::kTermPrefixLens), layout.prefix_lens.data(),
       num_terms * sizeof(uint32_t)},
  };
  SnapshotHeader header{};
  header.version = kFormatVersionFrontCoded;
  header.num_nodes = n;
  header.num_triples = e;
  header.num_terms = num_terms;
  return WriteContainer(kSnapshotFormat, &header, sections, out, path);
}

Status WriteSnapshot(const TripleGraph& g, const std::string& path,
                     const StoreWriteOptions& /*unread*/) {
  // Durable atomic replace (store/atomic_writer.h): a crash mid-save
  // leaves the previous snapshot intact and never a torn file.
  return AtomicWriteStream(path, "snapshot", [&](std::ostream& out) {
    return WriteSnapshotToStream(g, out, path);
  });
}

namespace {

/// The shared body of the file and memory loaders: checksums, structural
/// validation, dictionary interning, zero-copy array adoption.
Result<TripleGraph> LoadFromContainer(const Container& c,
                                      std::shared_ptr<Dictionary> dict,
                                      const SnapshotLoadOptions& options,
                                      SnapshotLoadStats* stats,
                                      const std::string& path) {
  static_assert(std::endian::native == std::endian::little,
                "snapshots are read on little-endian hosts only");
  const auto header = c.header<SnapshotHeader>();
  const uint64_t n = header.num_nodes;
  const uint64_t e = header.num_triples;
  const uint64_t t = header.num_terms;
  if (options.verify_checksums) {
    RDFALIGN_RETURN_IF_ERROR(c.VerifyChecksums(/*threads=*/1));
  }

  const TermSection terms =
      TermSectionAt(c, header.version == kFormatVersionFrontCoded, 0, 1, 9);
  const auto kinds = c.Section<uint8_t>(2);
  const auto lex = c.Section<uint32_t>(3);
  const auto triples = c.Section<Triple>(4);
  const auto out_offsets = c.Section<uint64_t>(5);
  const auto out_pairs = c.Section<PredicateObject>(6);
  const auto in_offsets = c.Section<uint64_t>(7);
  const auto in_subjects = c.Section<NodeId>(8);

  // Structural validation: everything FromIndexedParts trusts. Runs on
  // every load — these invariants are what make a malformed file safe to
  // reject instead of undefined behavior.
  const auto corrupt = [&path](std::string_view what) {
    return Status::Corruption(std::string(what) + ": " + path);
  };
  uint64_t arena_bytes = 0;
  if (const char* defect = CheckTermSection(terms, &arena_bytes)) {
    return corrupt(defect);
  }
  if (const char* defect = CheckNodeColumns(kinds, lex, t)) {
    return corrupt(defect);
  }
  for (uint64_t i = 0; i < e; ++i) {
    const Triple& tr = triples[i];
    if (tr.s >= n || tr.p >= n || tr.o >= n) {
      return corrupt("triple references node out of range");
    }
    if (i > 0 && !(triples[i - 1] < tr)) {
      return corrupt("triples not sorted and deduplicated");
    }
  }
  // Each offsets array must be proven monotone END TO END before any entry
  // is used as an index: monotonicity plus the endpoint equality bounds
  // every entry by the payload length. Interleaving the monotone check with
  // the per-node consistency loop would let out_offsets = [0, HUGE, ...]
  // drive reads far past the section before the i=1 check fires.
  if (out_offsets[0] != 0 || out_offsets[n] != e) {
    return corrupt("out-index offsets do not span the triple list");
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (out_offsets[i] > out_offsets[i + 1]) {
      return corrupt("out-index offsets not monotonic");
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t k = out_offsets[i]; k < out_offsets[i + 1]; ++k) {
      if (triples[k].s != i || out_pairs[k].p != triples[k].p ||
          out_pairs[k].o != triples[k].o) {
        return corrupt("out-index inconsistent with triple list");
      }
    }
  }
  if (in_offsets[0] != 0 ||
      in_offsets[n] != static_cast<uint64_t>(in_subjects.size())) {
    return corrupt("in-index offsets do not span the subject list");
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (in_offsets[i] > in_offsets[i + 1]) {
      return corrupt("in-index offsets not monotonic");
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t k = in_offsets[i]; k < in_offsets[i + 1]; ++k) {
      if (in_subjects[k] >= n ||
          (k > in_offsets[i] && in_subjects[k - 1] >= in_subjects[k])) {
        return corrupt("in-index subjects malformed");
      }
    }
  }

  // Dictionary: intern each term as a view into the pinned payload. With a
  // fresh dictionary this assigns ids 0..t-1 in file order (identity map);
  // with a shared dictionary the ids are remapped transparently. Front-coded
  // terms into a fresh (or still empty shared) dictionary are appended
  // unhashed, so the decoder's ascending check is load-bearing: it proves
  // them distinct, without which two equal labels could get two LexIds.
  if (dict == nullptr) dict = std::make_shared<Dictionary>();
  const bool fresh = dict->size() == 0;
  dict->PinArena(c.pin());
  const size_t dict_before = dict->size();
  std::vector<LexId> remap(t);
  bool identity = true;
  // Restart and raw terms stay zero-copy views into the pinned payload;
  // materialized terms go to a side arena pinned to the dictionary. The
  // arena is reserved to its exact final size and MUST NOT reallocate —
  // views already interned point into it.
  auto arena = std::make_shared<std::vector<char>>();
  arena->reserve(arena_bytes);
  TermDecoder decoder(terms, arena.get());
  const bool append = fresh && terms.front_coded;
  for (uint64_t i = 0; i < t; ++i) {
    std::string_view term;
    if (const char* defect = decoder.Next(&term)) return corrupt(defect);
    remap[i] = append ? dict->AppendPinned(term) : dict->InternPinned(term);
    identity = identity && remap[i] == i;
  }
  if (!arena->empty()) dict->PinArena(std::move(arena));

  std::vector<NodeLabel> labels(n);
  for (uint64_t i = 0; i < n; ++i) {
    labels[i] = NodeLabel{static_cast<TermKind>(kinds[i]), remap[lex[i]]};
  }

  if (stats != nullptr) {
    stats->file_bytes = c.size();
    stats->terms_interned = dict->size() - dict_before;
    stats->identity_term_map = identity;
    stats->used_mmap = options.use_mmap;
  }

  return TripleGraph::FromIndexedParts(
      std::move(dict), std::move(labels),
      SharedArray<Triple>(c.pin(), triples.data(), triples.size()),
      SharedArray<uint64_t>(c.pin(), out_offsets.data(), out_offsets.size()),
      SharedArray<PredicateObject>(c.pin(), out_pairs.data(),
                                   out_pairs.size()),
      SharedArray<uint64_t>(c.pin(), in_offsets.data(), in_offsets.size()),
      SharedArray<NodeId>(c.pin(), in_subjects.data(), in_subjects.size()));
}

}  // namespace

Result<TripleGraph> LoadSnapshot(const std::string& path,
                                 std::shared_ptr<Dictionary> dict,
                                 const SnapshotLoadOptions& options,
                                 SnapshotLoadStats* stats) {
  RDFALIGN_ASSIGN_OR_RETURN(
      Container c,
      Container::Open(kSnapshotFormat, path,
                      options.use_mmap ? Acquire::kMmap : Acquire::kBuffer));
  return LoadFromContainer(c, std::move(dict), options, stats, path);
}

Result<TripleGraph> LoadSnapshotFromMemory(std::shared_ptr<const void> pin,
                                           const unsigned char* data,
                                           uint64_t size,
                                           std::shared_ptr<Dictionary> dict,
                                           const SnapshotLoadOptions& options,
                                           SnapshotLoadStats* stats,
                                           const std::string& name) {
  RDFALIGN_ASSIGN_OR_RETURN(
      Container c,
      Container::FromMemory(kSnapshotFormat, std::move(pin), data, size, name));
  SnapshotLoadOptions in_place = options;
  in_place.use_mmap = false;  // no file involved; report a buffered load
  return LoadFromContainer(c, std::move(dict), in_place, stats, name);
}

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(
      Container c, Container::Open(kSnapshotFormat, path, Acquire::kPrefix));
  const auto header = c.header<SnapshotHeader>();
  SnapshotInfo info;
  info.version = header.version;
  info.num_nodes = header.num_nodes;
  info.num_triples = header.num_triples;
  info.num_terms = header.num_terms;
  info.file_size = header.file_size;
  for (const SectionEntry& sec : c.table()) {
    info.sections.push_back(SnapshotSectionInfo{
        static_cast<SectionId>(sec.id), sec.offset, sec.size, sec.checksum});
  }
  return info;
}

bool LooksLikeSnapshot(const std::string& path) {
  return FileHasMagic(kSnapshotFormat, path);
}

}  // namespace rdfalign::store

#include "store/update_fragment.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <sstream>
#include <unordered_map>

#include "store/atomic_writer.h"
#include "store/container.h"
#include "store/front_coding.h"

namespace rdfalign::store {

namespace {

std::string_view UpdateSectionName(UpdateSectionId id) {
  switch (id) {
    case UpdateSectionId::kTermOffsets:
      return "term_offsets";
    case UpdateSectionId::kTermBlob:
      return "term_blob";
    case UpdateSectionId::kNodeKinds:
      return "node_kinds";
    case UpdateSectionId::kNodeLex:
      return "node_lex";
    case UpdateSectionId::kRemovedNodes:
      return "removed_nodes";
    case UpdateSectionId::kRemovedTriples:
      return "removed_triples";
    case UpdateSectionId::kAddedTriples:
      return "added_triples";
    case UpdateSectionId::kTermPrefixLens:
      return "term_prefix_lens";
  }
  return "unknown";
}

/// Section count of an update-fragment format version.
size_t UpdateSectionCount(uint32_t version) {
  return version == kUpdateFormatVersion ? kNumUpdateSections
                                         : kNumUpdateSectionsV2;
}

bool ExpectUpdateSections(const unsigned char* bytes,
                          std::span<SectionSpec> specs) {
  const auto h = LoadHeader<UpdateHeader>(bytes);
  // Bound the counts before computing expected sizes (overflow safety).
  constexpr uint64_t kMaxElements = uint64_t{1} << 40;
  if (h.num_refs > 0xffffffffull || h.num_terms > 0xffffffffull ||
      h.num_new_nodes > h.num_refs || h.num_removed_nodes > kMaxElements ||
      h.num_removed_triples > kMaxElements ||
      h.num_added_triples > kMaxElements) {
    return false;
  }
  const SectionSpec all[kNumUpdateSectionsV2] = {
      {RawId(UpdateSectionId::kTermOffsets),
       (h.num_terms + 1) * sizeof(uint64_t)},
      {RawId(UpdateSectionId::kTermBlob)},
      {RawId(UpdateSectionId::kNodeKinds), h.num_refs * sizeof(uint8_t)},
      {RawId(UpdateSectionId::kNodeLex), h.num_refs * sizeof(uint32_t)},
      {RawId(UpdateSectionId::kRemovedNodes),
       h.num_removed_nodes * sizeof(uint32_t)},
      {RawId(UpdateSectionId::kRemovedTriples),
       h.num_removed_triples * sizeof(Triple)},
      {RawId(UpdateSectionId::kAddedTriples),
       h.num_added_triples * sizeof(Triple)},
      {RawId(UpdateSectionId::kTermPrefixLens),
       h.num_terms * sizeof(uint32_t)},
  };
  std::copy_n(all, specs.size(), specs.begin());
  return true;
}

constexpr ContainerFormat kUpdateFormat = {
    .kind = "update fragment",
    .magic = kUpdateMagic,
    .header_size = sizeof(UpdateHeader),
    .min_version = kUpdateFormatVersion,
    .max_version = kUpdateFormatVersionFrontCoded,
    .section_count = [](const unsigned char* h) -> uint64_t {
      return UpdateSectionCount(LoadHeader<UpdateHeader>(h).version);
    },
    .expect = ExpectUpdateSections,
    .section_name =
        [](uint32_t id) {
          return UpdateSectionName(static_cast<UpdateSectionId>(id));
        },
};

/// Internal invariants every encoded (and every accepted decoded) batch
/// satisfies; shared so a hand-built batch fails the same way a corrupt
/// fragment does.
Status ValidateBatch(const UpdateBatch& batch, const std::string& name) {
  const size_t refs = batch.nodes.size();
  if (batch.num_new > refs) {
    return Status::InvalidArgument(
        "update batch declares more new nodes than references: " + name);
  }
  for (size_t i = 0; i < refs; ++i) {
    const auto kind = static_cast<uint32_t>(batch.nodes[i].kind);
    if (kind > static_cast<uint32_t>(TermKind::kBlank)) {
      return Status::Corruption("update batch node kind out of range: " +
                                name);
    }
  }
  auto check_triples = [&](const std::vector<Triple>& ts,
                           const char* what) -> Status {
    for (size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].s >= refs || ts[i].p >= refs || ts[i].o >= refs) {
        return Status::Corruption(std::string("update batch ") + what +
                                  " references an undeclared node: " + name);
      }
      if (i > 0 && !(ts[i - 1] < ts[i])) {
        return Status::Corruption(std::string("update batch ") + what +
                                  " not sorted/deduplicated: " + name);
      }
    }
    return Status::OK();
  };
  RDFALIGN_RETURN_IF_ERROR(check_triples(batch.removed, "removed triples"));
  RDFALIGN_RETURN_IF_ERROR(check_triples(batch.added, "added triples"));
  for (size_t i = 0; i < batch.removed_nodes.size(); ++i) {
    const uint32_t r = batch.removed_nodes[i];
    if (r < batch.num_new || r >= refs) {
      return Status::Corruption(
          "update batch retires a node outside the existing-reference "
          "range: " +
          name);
    }
    if (i > 0 && batch.removed_nodes[i - 1] >= r) {
      return Status::Corruption(
          "update batch removed-node list not ascending: " + name);
    }
  }
  return Status::OK();
}

}  // namespace

bool LooksLikeUpdateFragment(std::string_view bytes) {
  return HasMagic(kUpdateFormat, bytes);
}

bool LooksLikeUpdateFile(const std::string& path) {
  return FileHasMagic(kUpdateFormat, path);
}

Result<std::string> EncodeUpdateBatch(const UpdateBatch& batch) {
  static_assert(std::endian::native == std::endian::little,
                "update fragments are written on little-endian hosts only");
  RDFALIGN_RETURN_IF_ERROR(ValidateBatch(batch, "encode"));

  // Term table: distinct lexical forms, collected in first-use
  // (reference) order and then sorted lexicographically so consecutive
  // terms share prefixes.
  std::unordered_map<std::string_view, uint32_t> term_of;
  std::vector<std::string_view> first_use;
  std::vector<uint32_t> lex(batch.nodes.size());
  std::vector<uint8_t> kinds(batch.nodes.size());
  for (size_t i = 0; i < batch.nodes.size(); ++i) {
    kinds[i] = static_cast<uint8_t>(batch.nodes[i].kind);
    const std::string_view form = batch.nodes[i].lex;
    auto [it, inserted] =
        term_of.emplace(form, static_cast<uint32_t>(first_use.size()));
    if (inserted) first_use.push_back(form);
    lex[i] = it->second;
  }
  // The forms are distinct (term_of interned uniquely), so the sort is
  // strict and the remap a permutation.
  std::vector<uint32_t> order(first_use.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&first_use](uint32_t a, uint32_t b) {
    return first_use[a] < first_use[b];
  });
  std::vector<uint32_t> remap(first_use.size());
  std::vector<std::string_view> terms(first_use.size());
  for (size_t k = 0; k < order.size(); ++k) {
    remap[order[k]] = static_cast<uint32_t>(k);
    terms[k] = first_use[order[k]];
  }
  for (uint32_t& t : lex) t = remap[t];
  const FrontCodedLayout layout =
      FrontCodeTerms(terms.size(), [&terms](size_t k) { return terms[k]; });

  const SectionSource sections[kNumUpdateSectionsV2] = {
      {RawId(UpdateSectionId::kTermOffsets), layout.suffix_offsets.data(),
       layout.suffix_offsets.size() * sizeof(uint64_t)},
      {RawId(UpdateSectionId::kTermBlob), nullptr,
       layout.suffix_offsets.back(),
       [&](const PieceSink& sink) {
         for (size_t t = 0; t < terms.size(); ++t) {
           sink(terms[t].substr(layout.prefix_lens[t]));
         }
       }},
      {RawId(UpdateSectionId::kNodeKinds), kinds.data(), kinds.size()},
      {RawId(UpdateSectionId::kNodeLex), lex.data(),
       lex.size() * sizeof(uint32_t)},
      {RawId(UpdateSectionId::kRemovedNodes), batch.removed_nodes.data(),
       batch.removed_nodes.size() * sizeof(uint32_t)},
      {RawId(UpdateSectionId::kRemovedTriples), batch.removed.data(),
       batch.removed.size() * sizeof(Triple)},
      {RawId(UpdateSectionId::kAddedTriples), batch.added.data(),
       batch.added.size() * sizeof(Triple)},
      {RawId(UpdateSectionId::kTermPrefixLens), layout.prefix_lens.data(),
       layout.prefix_lens.size() * sizeof(uint32_t)},
  };
  UpdateHeader header{};
  header.version = kUpdateFormatVersionFrontCoded;
  header.sequence = batch.sequence;
  header.num_refs = batch.nodes.size();
  header.num_new_nodes = batch.num_new;
  header.num_removed_nodes = batch.removed_nodes.size();
  header.num_removed_triples = batch.removed.size();
  header.num_added_triples = batch.added.size();
  header.num_terms = terms.size();
  std::ostringstream out(std::ios::binary);
  RDFALIGN_RETURN_IF_ERROR(
      WriteContainer(kUpdateFormat, &header, sections, out, "update fragment"));
  return std::move(out).str();
}

namespace {

/// Decodes a validated fragment container into a batch: term dictionary
/// geometry, reference and term index bounds, then the batch invariants.
Result<UpdateBatch> DecodeFromContainer(const Container& c,
                                        const std::string& name) {
  RDFALIGN_RETURN_IF_ERROR(c.VerifyChecksums(/*threads=*/1));
  const auto header = c.header<UpdateHeader>();
  const TermSection terms = TermSectionAt(
      c, header.version == kUpdateFormatVersionFrontCoded, 0, 1, 7);
  const auto kinds = c.Section<uint8_t>(2);
  const auto lex = c.Section<uint32_t>(3);
  const auto removed_nodes = c.Section<uint32_t>(4);
  const auto removed = c.Section<Triple>(5);
  const auto added = c.Section<Triple>(6);
  const auto corrupt = [&name](std::string_view what) {
    return Status::Corruption(std::string(what) + ": " + name);
  };

  uint64_t arena_bytes = 0;
  if (const char* defect = CheckTermSection(terms, &arena_bytes)) {
    return corrupt(defect);
  }
  if (const char* defect = CheckNodeColumns(kinds, lex, header.num_terms)) {
    return corrupt(defect);
  }
  // Nodes reference terms in any order, so every term is decoded to a
  // view first and then copied into each node that uses it.
  std::vector<char> arena;
  arena.reserve(arena_bytes);
  TermDecoder decoder(terms, &arena);
  std::vector<std::string_view> views(header.num_terms);
  for (std::string_view& view : views) {
    if (const char* defect = decoder.Next(&view)) return corrupt(defect);
  }

  UpdateBatch batch;
  batch.sequence = header.sequence;
  batch.num_new = static_cast<uint32_t>(header.num_new_nodes);
  batch.nodes.resize(header.num_refs);
  for (uint64_t i = 0; i < header.num_refs; ++i) {
    batch.nodes[i].kind = static_cast<TermKind>(kinds[i]);
    batch.nodes[i].lex = views[lex[i]];
  }
  batch.removed_nodes.assign(removed_nodes.begin(), removed_nodes.end());
  batch.removed.assign(removed.begin(), removed.end());
  batch.added.assign(added.begin(), added.end());

  RDFALIGN_RETURN_IF_ERROR(ValidateBatch(batch, name));
  return batch;
}

}  // namespace

Result<UpdateBatch> DecodeUpdateBatch(std::string_view bytes,
                                      const std::string& name) {
  RDFALIGN_ASSIGN_OR_RETURN(
      Container c,
      Container::FromMemory(
          kUpdateFormat, nullptr,
          reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(),
          name));
  return DecodeFromContainer(c, name);
}

Result<UpdateBatch> BuildUpdateBatch(const TripleGraph& base,
                                     const TripleGraph& next,
                                     uint64_t sequence) {
  // Node matching by (kind, lexical form). GraphBuilder guarantees unique
  // labels per graph (blanks by local name), so the match is one-to-one.
  auto key_of = [](TermKind kind, std::string_view lex) {
    std::string key;
    key.reserve(lex.size() + 2);
    key.push_back(static_cast<char>(kind));
    key.push_back(':');
    key.append(lex);
    return key;
  };
  std::unordered_map<std::string, NodeId> in_next;
  in_next.reserve(next.NumNodes());
  for (NodeId n = 0; n < next.NumNodes(); ++n) {
    if (!in_next.emplace(key_of(next.KindOf(n), next.Lexical(n)), n).second) {
      return Status::InvalidArgument(
          "next graph has duplicate node labels; cannot build an update "
          "batch");
    }
  }
  std::vector<NodeId> base_to_next(base.NumNodes(), kInvalidNode);
  std::vector<NodeId> next_to_base(next.NumNodes(), kInvalidNode);
  {
    std::unordered_map<std::string, NodeId> seen;
    seen.reserve(base.NumNodes());
    for (NodeId b = 0; b < base.NumNodes(); ++b) {
      const std::string key = key_of(base.KindOf(b), base.Lexical(b));
      if (!seen.emplace(key, b).second) {
        return Status::InvalidArgument(
            "base graph has duplicate node labels; cannot build an update "
            "batch");
      }
      auto it = in_next.find(key);
      if (it != in_next.end()) {
        base_to_next[b] = it->second;
        next_to_base[it->second] = b;
      }
    }
  }

  UpdateBatch batch;
  batch.sequence = sequence;
  // References: new nodes first (ascending next id), then existing nodes in
  // first-use order over a deterministic walk.
  std::vector<uint32_t> ref_of_next(next.NumNodes(), kInvalidNode);
  std::vector<uint32_t> ref_of_base(base.NumNodes(), kInvalidNode);
  for (NodeId n = 0; n < next.NumNodes(); ++n) {
    if (next_to_base[n] != kInvalidNode) continue;
    ref_of_next[n] = static_cast<uint32_t>(batch.nodes.size());
    batch.nodes.push_back(
        {next.KindOf(n), std::string(next.Lexical(n))});
  }
  batch.num_new = static_cast<uint32_t>(batch.nodes.size());
  auto ref_existing_next = [&](NodeId n) -> uint32_t {
    if (ref_of_next[n] == kInvalidNode) {
      ref_of_next[n] = static_cast<uint32_t>(batch.nodes.size());
      const NodeId b = next_to_base[n];
      if (b != kInvalidNode) ref_of_base[b] = ref_of_next[n];
      batch.nodes.push_back({next.KindOf(n), std::string(next.Lexical(n))});
    }
    return ref_of_next[n];
  };
  auto ref_base = [&](NodeId b) -> uint32_t {
    const NodeId n = base_to_next[b];
    if (n != kInvalidNode) return ref_existing_next(n);
    if (ref_of_base[b] == kInvalidNode) {
      ref_of_base[b] = static_cast<uint32_t>(batch.nodes.size());
      batch.nodes.push_back({base.KindOf(b), std::string(base.Lexical(b))});
    }
    return ref_of_base[b];
  };

  // Removed triples: base triples whose label-image is absent from next.
  const auto next_triples = next.triples();
  for (const Triple& t : base.triples()) {
    const NodeId s = base_to_next[t.s];
    const NodeId p = base_to_next[t.p];
    const NodeId o = base_to_next[t.o];
    bool kept = false;
    if (s != kInvalidNode && p != kInvalidNode && o != kInvalidNode) {
      const Triple mapped{s, p, o};
      kept = std::binary_search(next_triples.begin(), next_triples.end(),
                                mapped);
    }
    if (!kept) {
      batch.removed.push_back(
          {ref_base(t.s), ref_base(t.p), ref_base(t.o)});
    }
  }
  // Added triples: next triples whose label-preimage is absent from base.
  const auto base_triples = base.triples();
  for (const Triple& t : next_triples) {
    const NodeId s = next_to_base[t.s];
    const NodeId p = next_to_base[t.p];
    const NodeId o = next_to_base[t.o];
    bool existed = false;
    if (s != kInvalidNode && p != kInvalidNode && o != kInvalidNode) {
      const Triple mapped{s, p, o};
      existed = std::binary_search(base_triples.begin(), base_triples.end(),
                                   mapped);
    }
    if (!existed) {
      batch.added.push_back({ref_existing_next(t.s), ref_existing_next(t.p),
                             ref_existing_next(t.o)});
    }
  }
  // Retired nodes: base nodes with no next image.
  for (NodeId b = 0; b < base.NumNodes(); ++b) {
    if (base_to_next[b] == kInvalidNode) {
      batch.removed_nodes.push_back(ref_base(b));
    }
  }

  std::sort(batch.removed.begin(), batch.removed.end());
  batch.removed.erase(std::unique(batch.removed.begin(), batch.removed.end()),
                      batch.removed.end());
  std::sort(batch.added.begin(), batch.added.end());
  batch.added.erase(std::unique(batch.added.begin(), batch.added.end()),
                    batch.added.end());
  std::sort(batch.removed_nodes.begin(), batch.removed_nodes.end());

  RDFALIGN_RETURN_IF_ERROR(ValidateBatch(batch, "build"));
  return batch;
}

Status WriteUpdateFile(const UpdateBatch& batch, const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(std::string bytes, EncodeUpdateBatch(batch));
  return AtomicWriteFile(path, bytes.data(), bytes.size(), "update fragment");
}

Result<std::string> ReadFileBytes(const std::string& path) {
  return ReadWholeFile(path);
}

Result<UpdateBatch> ReadUpdateFile(const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(
      Container c, Container::Open(kUpdateFormat, path, Acquire::kBuffer));
  return DecodeFromContainer(c, path);
}

}  // namespace rdfalign::store

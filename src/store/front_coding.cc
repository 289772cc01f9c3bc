#include "store/front_coding.h"

#include "rdf/term.h"
#include "store/container.h"

namespace rdfalign::store {

TermSection TermSectionAt(const Container& c, bool front_coded,
                          size_t offsets, size_t blob, size_t prefix_lens) {
  return TermSection{
      .front_coded = front_coded,
      .offsets = c.Section<uint64_t>(offsets),
      .blob = c.Section<char>(blob),
      .prefix_lens = front_coded ? c.Section<uint32_t>(prefix_lens)
                                 : std::span<const uint32_t>{}};
}

const char* CheckTermSection(const TermSection& section,
                             uint64_t* arena_bytes) {
  const std::span<const uint64_t> offsets = section.offsets;
  const size_t count = section.count();
  if (section.front_coded && section.prefix_lens.size() != count) {
    return "front-coded prefix table does not match the offset table";
  }
  if (offsets[0] != 0 || offsets[count] != section.blob.size()) {
    return "term offset table does not span the term blob";
  }
  uint64_t arena = 0;
  uint64_t prev_len = 0;
  for (size_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) return "term offsets not monotonic";
    if (!section.front_coded) continue;
    const uint64_t plen = section.prefix_lens[i];
    if (i % kRestartInterval == 0) {
      if (plen != 0) return "front-coded restart term has a nonzero prefix";
    } else if (plen > prev_len) {
      return "front-coded prefix longer than the previous term";
    }
    prev_len = plen + (offsets[i + 1] - offsets[i]);
    if (plen != 0) arena += prev_len;
  }
  *arena_bytes = arena;
  return nullptr;
}

const char* CheckNodeColumns(std::span<const uint8_t> kinds,
                             std::span<const uint32_t> lex,
                             uint64_t num_terms) {
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] > static_cast<uint8_t>(TermKind::kBlank)) {
      return "node kind out of range";
    }
    if (lex[i] >= num_terms) {
      return "node label references term out of range";
    }
  }
  return nullptr;
}

}  // namespace rdfalign::store

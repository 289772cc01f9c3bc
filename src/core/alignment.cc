#include "core/alignment.h"

#include <algorithm>
#include <atomic>

#include "util/hash.h"
#include "util/scratch.h"
#include "util/thread_pool.h"

namespace rdfalign {

namespace {

// Minimum element count before the chunked kernels engage; below this the
// serial loops win.
constexpr size_t kAlignParallelMin = 1 << 15;
// Elements per chunk of the key-building and accumulation passes.
constexpr size_t kAlignGrain = 1 << 15;

uint8_t SideBit(const CombinedGraph& cg, NodeId n) {
  return cg.InSource(n) ? 1 : 2;
}

/// 96-bit edge key packed into two 64-bit words, ordered lexicographically
/// so membership tests are binary searches over sorted flat arrays instead
/// of hash-set probes.
struct TripleKey {
  uint64_t hi;
  uint64_t lo;
  bool operator==(const TripleKey&) const = default;
  auto operator<=>(const TripleKey&) const = default;
};

TripleKey MakeColorKey(const Partition& p, const Triple& t) {
  return TripleKey{PackPair(p.ColorOf(t.s), p.ColorOf(t.p)),
                   static_cast<uint64_t>(p.ColorOf(t.o))};
}

/// Counts the elements of sorted multiset `b` whose key occurs in sorted
/// multiset `a` — one linear merge, no per-element searches.
size_t CountMembersIn(const std::vector<TripleKey>& b,
                      const std::vector<TripleKey>& a) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      const TripleKey key = b[j];
      while (j < b.size() && b[j] == key) {
        ++count;
        ++j;
      }
      while (i < a.size() && a[i] == key) ++i;
    }
  }
  return count;
}

/// Pass 1 of ComputeEdgeAlignment without sorting: the number of
/// non-blank target triples whose label key — subject and predicate by
/// lexical id, object by (lexical id, kind) — some non-blank source triple
/// also has. Each non-blank source node is the *label twin* of its
/// (lexical id, URI|literal); a target triple counts when a combination of
/// its nodes' twins is a triple of the source, found by a binary search in
/// the twin subject's out-CSR slice. Subjects and predicates try both
/// kinds' twins, since their key ignores the kind. Returns false, leaving
/// `merged` untouched, when two source nodes share a non-blank label
/// (possible only in a graph built without RDF validation): the twin is
/// then not unique and the caller counts by sorted keys instead.
bool CountLabelIdenticalEdges(const CombinedGraph& cg, size_t threads,
                              size_t* merged) {
  const TripleGraph& g = cg.graph();
  std::vector<NodeId> twin(2 * g.dict().size(), kInvalidNode);
  const auto slot = [&g](NodeId n, bool literal) {
    return 2 * static_cast<size_t>(g.LexicalId(n)) + (literal ? 1 : 0);
  };
  for (NodeId n = 0; n < cg.n1(); ++n) {
    if (g.IsBlank(n)) continue;
    NodeId& t = twin[slot(n, g.IsLiteral(n))];
    if (t != kInvalidNode) return false;
    t = n;
  }
  const auto twin_of = [&](NodeId n, bool literal) {
    return twin[slot(n, literal)];
  };
  // Source triples sort before target ones: subjects < n1 come first.
  const std::span<const Triple> target = g.triples().subspan(cg.e1());
  const auto count = [&](size_t, size_t begin, size_t end) {
    size_t found = 0;
    for (size_t i = begin; i < end; ++i) {
      const Triple& t = target[i];
      if (g.IsBlank(t.s) || g.IsBlank(t.p) || g.IsBlank(t.o)) continue;
      const NodeId o = twin_of(t.o, g.IsLiteral(t.o));
      if (o == kInvalidNode) continue;
      bool hit = false;
      for (int sk = 0; sk < 2 && !hit; ++sk) {
        const NodeId s = twin_of(t.s, sk == 1);
        if (s == kInvalidNode) continue;
        const std::span<const PredicateObject> out = g.Out(s);
        for (int pk = 0; pk < 2 && !hit; ++pk) {
          const NodeId p = twin_of(t.p, pk == 1);
          hit = p != kInvalidNode &&
                std::binary_search(out.begin(), out.end(),
                                   PredicateObject{p, o});
        }
      }
      if (hit) ++found;
    }
    return found;
  };
  *merged = ChunkedReduce<size_t>(
      target.size(), threads, kAlignGrain, size_t{0}, count,
      [](size_t& acc, size_t&& part) { acc += part; });
  return true;
}

}  // namespace

std::vector<ClassSides> ComputeClassSides(const CombinedGraph& cg,
                                          const Partition& p, size_t threads) {
  threads = EffectiveLanes(threads);
  std::vector<uint8_t> bits(p.NumColors(), 0);
  if (threads > 1 && p.NumNodes() >= kAlignParallelMin) {
    // ORing side bits is order-insensitive, so relaxed atomic ORs give the
    // serial result for any interleaving.
    ParallelChunks(p.NumNodes(), threads, kAlignGrain,
                   [&](size_t, size_t begin, size_t end) {
                     for (size_t n = begin; n < end; ++n) {
                       std::atomic_ref<uint8_t>(
                           bits[p.ColorOf(static_cast<NodeId>(n))])
                           .fetch_or(SideBit(cg, static_cast<NodeId>(n)),
                                     std::memory_order_relaxed);
                     }
                   });
    std::vector<ClassSides> out(bits.size());
    ParallelChunks(bits.size(), threads, kAlignGrain,
                   [&](size_t, size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       out[i] = static_cast<ClassSides>(bits[i]);
                     }
                   });
    return out;
  }
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    bits[p.ColorOf(n)] |= SideBit(cg, n);
  }
  std::vector<ClassSides> out(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    out[i] = static_cast<ClassSides>(bits[i]);
  }
  return out;
}

std::vector<NodeId> UnalignedNodes(const CombinedGraph& cg,
                                   const Partition& p) {
  std::vector<ClassSides> sides = ComputeClassSides(cg, p);
  std::vector<NodeId> out;
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    if (sides[p.ColorOf(n)] != ClassSides::kBoth) out.push_back(n);
  }
  return out;
}

std::vector<NodeId> UnalignedNonLiterals(const CombinedGraph& cg,
                                         const Partition& p) {
  std::vector<ClassSides> sides = ComputeClassSides(cg, p);
  const TripleGraph& g = cg.graph();
  std::vector<NodeId> out;
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    if (sides[p.ColorOf(n)] != ClassSides::kBoth && !g.IsLiteral(n)) {
      out.push_back(n);
    }
  }
  return out;
}

EdgeAlignmentStats ComputeEdgeAlignment(const CombinedGraph& cg,
                                        const Partition& p, size_t threads) {
  threads = EffectiveLanes(threads);
  const TripleGraph& g = cg.graph();
  const bool parallel = threads > 1 && g.NumEdges() >= kAlignParallelMin;

  // Scratch key buffers persist across calls: the figure benches and the
  // archive workloads call this once per version pair, and the buffers
  // reach a steady size after the first pair.
  static thread_local std::vector<TripleKey> scratch_a;
  static thread_local std::vector<TripleKey> scratch_b;
  // Plain references: a pool-worker lambda naming a thread_local would
  // resolve the worker's own instance (docs/parallelism.md).
  std::vector<TripleKey>& set_a = scratch_a;
  std::vector<TripleKey>& set_b = scratch_b;

  // Pass 1: count label-identical non-blank edges present on both sides —
  // these are "edges using precisely the same identifiers" and are counted
  // once. Blank nodes are never persistent identifiers, so edges touching a
  // blank never merge.
  size_t merged = 0;
  if (!CountLabelIdenticalEdges(cg, parallel ? threads : 1, &merged)) {
    // Lexical ids are shared across kinds (a URI and a literal can intern
    // the same string), so the object's kind is packed into the key;
    // subjects are never literals and predicates are always URIs.
    auto label_key = [&](const Triple& t) -> TripleKey {
      return TripleKey{PackPair(g.LexicalId(t.s), g.LexicalId(t.p)),
                       static_cast<uint64_t>(g.LexicalId(t.o)) |
                           (static_cast<uint64_t>(g.KindOf(t.o)) << 32)};
    };
    auto has_blank = [&](const Triple& t) {
      return g.IsBlank(t.s) || g.IsBlank(t.p) || g.IsBlank(t.o);
    };
    set_a.clear();
    set_b.clear();
    for (const Triple& t : g.triples()) {
      if (!has_blank(t)) {
        (cg.InSource(t.s) ? set_a : set_b).push_back(label_key(t));
      }
    }
    ParallelSort(set_a, threads);
    ParallelSort(set_b, threads);
    merged = CountMembersIn(set_b, set_a);
  }

  // Pass 2: an edge is aligned when the opposite side has an edge whose
  // color triple matches — sort each side's key multiset, then count cross
  // memberships with two linear merges. Source triples are the prefix
  // [0, e1) of the sorted triple list, so each side's keys are a
  // positionwise transform of its range.
  const std::span<const Triple> triples = g.triples();
  set_a.resize(cg.e1());
  set_b.resize(cg.e2());
  ParallelChunks(triples.size(), parallel ? threads : 1, kAlignGrain,
                 [&](size_t, size_t begin, size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     (i < set_a.size() ? set_a[i] : set_b[i - set_a.size()]) =
                         MakeColorKey(p, triples[i]);
                   }
                 });
  ParallelSort(set_a, threads);
  ParallelSort(set_b, threads);
  size_t aligned = CountMembersIn(set_a, set_b) + CountMembersIn(set_b, set_a);
  // Merged edges are aligned on both sides by construction; count them once.
  aligned -= merged;
  TrimScratch(set_a);
  TrimScratch(set_b);

  EdgeAlignmentStats stats;
  stats.total_edges = cg.e1() + cg.e2() - merged;
  stats.aligned_edges = aligned;
  return stats;
}

NodeAlignmentStats ComputeNodeAlignment(const CombinedGraph& cg,
                                        const Partition& p, size_t threads) {
  threads = EffectiveLanes(threads);
  std::vector<ClassSides> sides = ComputeClassSides(cg, p, threads);
  if (threads > 1 && p.NumNodes() >= kAlignParallelMin) {
    // Integer sums merged in chunk order — exact for any chunking.
    NodeAlignmentStats stats = ChunkedReduce<NodeAlignmentStats>(
        p.NumNodes(), threads, kAlignGrain, NodeAlignmentStats{},
        [&](size_t, size_t begin, size_t end) {
          NodeAlignmentStats part;
          for (size_t i = begin; i < end; ++i) {
            const NodeId n = static_cast<NodeId>(i);
            bool aligned = sides[p.ColorOf(n)] == ClassSides::kBoth;
            if (cg.InSource(n)) {
              aligned ? ++part.aligned_source_nodes
                      : ++part.unaligned_source_nodes;
            } else {
              aligned ? ++part.aligned_target_nodes
                      : ++part.unaligned_target_nodes;
            }
          }
          return part;
        },
        [](NodeAlignmentStats& acc, NodeAlignmentStats&& part) {
          acc.aligned_source_nodes += part.aligned_source_nodes;
          acc.aligned_target_nodes += part.aligned_target_nodes;
          acc.unaligned_source_nodes += part.unaligned_source_nodes;
          acc.unaligned_target_nodes += part.unaligned_target_nodes;
        });
    stats.aligned_classes = ChunkedReduce<size_t>(
        sides.size(), threads, kAlignGrain, size_t{0},
        [&](size_t, size_t begin, size_t end) {
          size_t count = 0;
          for (size_t i = begin; i < end; ++i) {
            if (sides[i] == ClassSides::kBoth) ++count;
          }
          return count;
        },
        [](size_t& acc, size_t&& part) { acc += part; });
    return stats;
  }
  NodeAlignmentStats stats;
  for (const ClassSides s : sides) {
    if (s == ClassSides::kBoth) ++stats.aligned_classes;
  }
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    bool aligned = sides[p.ColorOf(n)] == ClassSides::kBoth;
    if (cg.InSource(n)) {
      aligned ? ++stats.aligned_source_nodes : ++stats.unaligned_source_nodes;
    } else {
      aligned ? ++stats.aligned_target_nodes : ++stats.unaligned_target_nodes;
    }
  }
  return stats;
}

std::vector<std::pair<NodeId, NodeId>> EnumerateAlignedPairs(
    const CombinedGraph& cg, const Partition& p, size_t limit) {
  // Group nodes per class and side with two counting-sort CSRs over the
  // dense colors. Classes are emitted in ascending color order, so the
  // output is deterministic (the hash-map version followed bucket order).
  const size_t num_colors = p.NumColors();
  std::vector<uint64_t> src_off(num_colors + 1, 0);
  std::vector<uint64_t> tgt_off(num_colors + 1, 0);
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    ++(cg.InSource(n) ? src_off : tgt_off)[p.ColorOf(n) + 1];
  }
  for (size_t c = 0; c < num_colors; ++c) {
    src_off[c + 1] += src_off[c];
    tgt_off[c + 1] += tgt_off[c];
  }
  std::vector<NodeId> src_members(src_off[num_colors]);
  std::vector<NodeId> tgt_members(tgt_off[num_colors]);
  {
    std::vector<uint64_t> src_cur(src_off.begin(), src_off.end() - 1);
    std::vector<uint64_t> tgt_cur(tgt_off.begin(), tgt_off.end() - 1);
    for (NodeId n = 0; n < p.NumNodes(); ++n) {
      const ColorId c = p.ColorOf(n);
      if (cg.InSource(n)) {
        src_members[src_cur[c]++] = n;
      } else {
        tgt_members[tgt_cur[c]++] = n;
      }
    }
  }
  std::vector<std::pair<NodeId, NodeId>> out;
  for (size_t c = 0; c < num_colors; ++c) {
    for (uint64_t i = src_off[c]; i < src_off[c + 1]; ++i) {
      for (uint64_t j = tgt_off[c]; j < tgt_off[c + 1]; ++j) {
        if (out.size() >= limit) return out;
        out.emplace_back(src_members[i], tgt_members[j]);
      }
    }
  }
  return out;
}

bool HasCrossoverProperty(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  // Sorted packed-u64 views replace the std::set + two std::multimaps: the
  // forward array doubles as the membership set and the by-source index,
  // and the reversed array is the by-target index.
  std::vector<uint64_t> fwd;
  std::vector<uint64_t> rev;
  fwd.reserve(pairs.size());
  rev.reserve(pairs.size());
  for (const auto& [n, m] : pairs) {
    fwd.push_back(PackPair(n, m));
    rev.push_back(PackPair(m, n));
  }
  std::sort(fwd.begin(), fwd.end());
  std::sort(rev.begin(), rev.end());
  auto range_of = [](const std::vector<uint64_t>& sorted, NodeId hi) {
    return std::pair{
        std::lower_bound(sorted.begin(), sorted.end(), PackPair(hi, 0)),
        std::upper_bound(sorted.begin(), sorted.end(),
                         PackPair(hi, kInvalidNode))};
  };
  for (const auto& [n, m] : pairs) {
    auto [ms_begin, ms_end] = range_of(fwd, n);   // all m' with (n, m')
    auto [ns_begin, ns_end] = range_of(rev, m);   // all n' with (n', m)
    for (auto it1 = ns_begin; it1 != ns_end; ++it1) {
      const NodeId n_prime = UnpackLo(*it1);
      for (auto it2 = ms_begin; it2 != ms_end; ++it2) {
        const NodeId m_prime = UnpackLo(*it2);
        if (!std::binary_search(fwd.begin(), fwd.end(),
                                PackPair(n_prime, m_prime))) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace rdfalign

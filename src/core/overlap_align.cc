#include "core/overlap_align.h"

#include <algorithm>
#include <string>

#include "core/alignment.h"
#include "core/edit_distance.h"
#include "core/hybrid.h"
#include "rdf/dictionary.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rdfalign {

std::vector<uint64_t> OutColorSet(const TripleGraph& g,
                                  const WeightedPartition& xi, NodeId n) {
  std::vector<uint64_t> out;
  out.reserve(g.OutDegree(n));
  for (const PredicateObject& po : g.Out(n)) {
    out.push_back(PackPair(xi.partition.ColorOf(po.p),
                           xi.partition.ColorOf(po.o)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// One out-edge annotated with its color key and endpoint weights.
struct KeyedEdge {
  uint64_t key;
  double wp;
  double wo;

  bool operator<(const KeyedEdge& other) const {
    if (key != other.key) return key < other.key;
    return (wp + wo) < (other.wp + other.wo);
  }
};

void CollectKeyedEdges(const TripleGraph& g, const WeightedPartition& xi,
                       NodeId n, std::vector<KeyedEdge>& out) {
  out.clear();
  for (const PredicateObject& po : g.Out(n)) {
    out.push_back(KeyedEdge{PackPair(xi.partition.ColorOf(po.p),
                                     xi.partition.ColorOf(po.o)),
                            xi.weight[po.p], xi.weight[po.o]});
  }
  std::sort(out.begin(), out.end());
}

/// Streams the word set of a literal into `sets` (Algorithm 2's `split`,
/// via the shared ForEachWord tokenizer): each word is interned to a dense
/// id through `words`. Word-id assignment order matches SplitWords +
/// first-occurrence interning; no per-literal vector<string> is
/// materialized.
void AppendWordSet(std::string_view text, Dictionary& words,
                   std::string& word_buf, CharacterizingSets& sets) {
  sets.BeginSet();
  ForEachWord(text, word_buf,
              [&](std::string_view word) { sets.Add(words.Intern(word)); });
  sets.EndSetSortedUnique();
}

}  // namespace

void AppendOutColorSet(const TripleGraph& g, const WeightedPartition& xi,
                       NodeId n, CharacterizingSets& sets) {
  sets.BeginSet();
  for (const PredicateObject& po : g.Out(n)) {
    sets.Add(PackPair(xi.partition.ColorOf(po.p),
                      xi.partition.ColorOf(po.o)));
  }
  sets.EndSetSortedUnique();
}

double SigmaNonLiteral(const TripleGraph& g, const WeightedPartition& xi,
                       NodeId n, NodeId m) {
  const size_t deg_n = g.OutDegree(n);
  const size_t deg_m = g.OutDegree(m);
  const size_t f = std::max(deg_n, deg_m);
  if (f == 0) return 0.0;

  static thread_local std::vector<KeyedEdge> en;
  static thread_local std::vector<KeyedEdge> em;
  CollectKeyedEdges(g, xi, n, en);
  CollectKeyedEdges(g, xi, m, em);

  // Two-pointer merge over color-key runs; within one run both sides are
  // weight-sorted, so rank coupling is the optimal same-color assignment.
  double total = 0.0;
  size_t coupled = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < en.size() && j < em.size()) {
    if (en[i].key < em[j].key) {
      ++i;
    } else if (em[j].key < en[i].key) {
      ++j;
    } else {
      const uint64_t key = en[i].key;
      size_t i_end = i;
      while (i_end < en.size() && en[i_end].key == key) ++i_end;
      size_t j_end = j;
      while (j_end < em.size() && em[j_end].key == key) ++j_end;
      const size_t c = std::min(i_end - i, j_end - j);
      for (size_t t = 0; t < c; ++t) {
        // σ_ξ on same-color nodes is the ⊕ of their weights (eq. 5).
        double sigma_p = OPlus(en[i + t].wp, em[j + t].wp);
        double sigma_o = OPlus(en[i + t].wo, em[j + t].wo);
        total += OPlus(sigma_p, sigma_o);
      }
      coupled += c;
      i = i_end;
      j = j_end;
    }
  }
  const double r = static_cast<double>((deg_n - coupled) + (deg_m - coupled));
  return std::min(1.0, (total + r) / static_cast<double>(f));
}

OverlapAlignResult OverlapAlign(const CombinedGraph& cg,
                                const OverlapAlignOptions& options,
                                const Partition* hybrid) {
  const TripleGraph& g = cg.graph();
  OverlapAlignResult result;

  // Line 1: ξ0 = (λ_Hybrid, 0).
  WallTimer refine_timer;
  WeightedPartition xi =
      MakeZeroWeighted(hybrid != nullptr ? *hybrid : HybridPartition(cg));
  result.refine_ms = refine_timer.ElapsedMillis();

  // Lines 2-4: match unaligned literals by word sets + edit distance.
  WallTimer literal_index_timer;
  std::vector<NodeId> a0;
  std::vector<NodeId> b0;
  {
    std::vector<ClassSides> sides =
        ComputeClassSides(cg, xi.partition, options.threads);
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (!g.IsLiteral(n)) continue;
      if (sides[xi.partition.ColorOf(n)] == ClassSides::kBoth) continue;
      (cg.InSource(n) ? a0 : b0).push_back(n);
    }
  }
  CharacterizingSets a0_char;
  CharacterizingSets b0_char;
  {
    // Word ids shared across both sides via one interning dictionary.
    Dictionary words;
    std::string word_buf;
    a0_char.Reserve(a0.size(), 4 * a0.size());
    b0_char.Reserve(b0.size(), 4 * b0.size());
    for (NodeId n : a0) AppendWordSet(g.Lexical(n), words, word_buf, a0_char);
    for (NodeId n : b0) AppendWordSet(g.Lexical(n), words, word_buf, b0_char);
  }
  result.index_ms += literal_index_timer.ElapsedMillis();
  OverlapMatchStats h0_stats;
  BipartiteMatching h = OverlapMatch(
      a0, b0, a0_char, b0_char, options.theta,
      [&](size_t ai, size_t bi) {
        return NormalizedEditDistanceBounded(g.Lexical(a0[ai]),
                                             g.Lexical(b0[bi]),
                                             options.theta);
      },
      options.match, &h0_stats, options.threads);
  result.literal_matches = h.NumEdges();
  result.index_ms += h0_stats.index_ms;
  result.match_ms += h0_stats.probe_ms;
  result.round_stats.push_back(h0_stats);

  // Lines 5-12: enrich, propagate, match non-literals; repeat until dry.
  for (size_t round = 1; round <= options.max_rounds; ++round) {
    WallTimer enrich_timer;
    xi = Propagate(cg, Enrich(xi, h), options.propagate);
    result.enrich_ms += enrich_timer.ElapsedMillis();
    result.rounds = round;

    WallTimer round_index_timer;
    std::vector<NodeId> ai;
    std::vector<NodeId> bi;
    {
      std::vector<ClassSides> sides =
        ComputeClassSides(cg, xi.partition, options.threads);
      for (NodeId n = 0; n < g.NumNodes(); ++n) {
        if (g.IsLiteral(n)) continue;
        if (sides[xi.partition.ColorOf(n)] == ClassSides::kBoth) continue;
        (cg.InSource(n) ? ai : bi).push_back(n);
      }
    }
    CharacterizingSets ai_char;
    CharacterizingSets bi_char;
    ai_char.Reserve(ai.size(), ai.size());
    bi_char.Reserve(bi.size(), bi.size());
    for (NodeId n : ai) AppendOutColorSet(g, xi, n, ai_char);
    for (NodeId n : bi) AppendOutColorSet(g, xi, n, bi_char);
    result.index_ms += round_index_timer.ElapsedMillis();

    OverlapMatchStats round_stats;
    h = OverlapMatch(
        ai, bi, ai_char, bi_char, options.theta,
        [&](size_t x, size_t y) {
          return SigmaNonLiteral(g, xi, ai[x], bi[y]);
        },
        options.match, &round_stats, options.threads);
    result.index_ms += round_stats.index_ms;
    result.match_ms += round_stats.probe_ms;
    result.round_stats.push_back(round_stats);
    result.nonliteral_matches += h.NumEdges();
    if (h.Empty()) break;
  }

  result.xi = std::move(xi);
  return result;
}

}  // namespace rdfalign

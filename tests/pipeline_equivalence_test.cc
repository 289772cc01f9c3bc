// Equivalence of the flat dense-ID pipeline against the pre-rewrite
// hash-map oracles (tests/oracle/pipeline.h): the rewrite must be a pure
// representation change, with bit-identical outputs.
//
// Covers random partitions (dense, non-contiguous, adversarially sparse
// color ids), the label-keyed partition constructors, the merge fast path,
// edge/delta statistics, pair enumeration, the crossover checker, and the
// byte-identity of OverlapMatch (edges *and* counters) on seeded instances.

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/alignment.h"
#include "core/delta.h"
#include "core/edit_distance.h"
#include "core/hybrid.h"
#include "core/overlap_align.h"
#include "gen/category_gen.h"
#include "gen/textgen.h"
#include "oracle/pipeline.h"
#include "rdf/merge.h"
#include "util/random.h"
#include "util/string_util.h"

namespace rdfalign {
namespace {

// ---------------------------------------------------------------- helpers ---

/// Random color vector. `style` 0: dense-ish ids in [0, n); 1: sparse
/// non-contiguous ids (multiples of 7 plus an offset); 2: adversarial ids
/// spread over the whole 32-bit range (forces the hash fallback).
std::vector<ColorId> RandomColors(Rng& rng, size_t n, int style) {
  std::vector<ColorId> colors(n);
  for (size_t i = 0; i < n; ++i) {
    switch (style) {
      case 0:
        colors[i] = static_cast<ColorId>(rng.Uniform(std::max<size_t>(n, 1)));
        break;
      case 1:
        colors[i] = static_cast<ColorId>(
            7 * rng.Uniform(std::max<size_t>(n / 2, 1)) + 13);
        break;
      default:
        colors[i] = static_cast<ColorId>(rng.Uniform(0xffffffffULL)) |
                    (i % 3 == 0 ? 0x80000000u : 0u);
        break;
    }
  }
  return colors;
}

std::pair<TripleGraph, TripleGraph> RandomVersionPair(uint64_t seed) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(0.05, /*versions=*/2, seed));
  return {chain.Version(0), chain.Version(1)};
}

// ------------------------------------------------------------- partitions ---

TEST(FlatPartitionEquivalence, FromColorsMatchesLegacyOnRandomInputs) {
  Rng rng(7);
  for (int style = 0; style < 3; ++style) {
    for (size_t trial = 0; trial < 40; ++trial) {
      const size_t n = rng.Uniform(300);
      std::vector<ColorId> colors = RandomColors(rng, n, style);
      Partition flat = Partition::FromColors(colors);
      auto [legacy_colors, legacy_count] =
          oracle::RenumberFirstOccurrence(colors);
      EXPECT_EQ(flat.colors(), legacy_colors)
          << "style=" << style << " trial=" << trial;
      EXPECT_EQ(flat.NumColors(), legacy_count);
    }
  }
}

TEST(FlatPartitionEquivalence, FromColorsHandlesAdversarialSentinelValues) {
  // Ids at the very top of the 32-bit range (including the sentinel value
  // used by the flat remap tables) must renumber like any other id.
  std::vector<ColorId> colors = {0xffffffffu, 0, 0xffffffffu, 0xfffffffeu, 0};
  Partition p = Partition::FromColors(colors);
  auto [legacy_colors, legacy_count] =
      oracle::RenumberFirstOccurrence(colors);
  EXPECT_EQ(p.colors(), legacy_colors);
  EXPECT_EQ(p.NumColors(), legacy_count);
  EXPECT_EQ(p.NumColors(), 3u);
}

TEST(FlatPartitionEquivalence, EquivalentAndFinerMatchLegacy) {
  Rng rng(11);
  for (size_t trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.Uniform(200);
    Partition a = Partition::FromColors(RandomColors(rng, n, trial % 3));
    // b is either a color-permuted copy of a, a coarsening, or independent.
    Partition b;
    switch (trial % 3) {
      case 0: {  // permuted copy: equivalent to a
        std::vector<ColorId> permuted(a.colors());
        for (ColorId& c : permuted) c = static_cast<ColorId>(c * 2654435761u);
        b = Partition::FromColors(std::move(permuted));
        break;
      }
      case 1: {  // coarsening: a is finer or equal
        std::vector<ColorId> coarse(a.colors());
        for (ColorId& c : coarse) c /= 2;
        b = Partition::FromColors(std::move(coarse));
        break;
      }
      default:
        b = Partition::FromColors(RandomColors(rng, n, 0));
        break;
    }
    EXPECT_EQ(Partition::Equivalent(a, b), oracle::PartitionEquivalent(a, b))
        << trial;
    EXPECT_EQ(Partition::IsFinerOrEqual(a, b),
              oracle::PartitionIsFinerOrEqual(a, b))
        << trial;
    EXPECT_EQ(Partition::IsFinerOrEqual(b, a),
              oracle::PartitionIsFinerOrEqual(b, a))
        << trial;
    EXPECT_TRUE(Partition::Equivalent(a, a));
    EXPECT_TRUE(Partition::IsFinerOrEqual(a, a));
  }
}

TEST(FlatPartitionEquivalence, ClassesCsrMatchesLegacyVectors) {
  Rng rng(13);
  for (size_t trial = 0; trial < 30; ++trial) {
    const size_t n = rng.Uniform(250);
    Partition p = Partition::FromColors(RandomColors(rng, n, trial % 3));
    PartitionClasses csr = p.Classes();
    std::vector<std::vector<NodeId>> legacy_classes =
        oracle::PartitionClassesVectors(p);
    ASSERT_EQ(csr.size(), legacy_classes.size());
    for (size_t c = 0; c < csr.size(); ++c) {
      std::span<const NodeId> members = csr[c];
      EXPECT_TRUE(std::equal(members.begin(), members.end(),
                             legacy_classes[c].begin(),
                             legacy_classes[c].end()))
          << "class " << c;
    }
  }
}

TEST(FlatPartitionEquivalence, LabelKeyedConstructorsMatchLegacy) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    auto [g1, g2] = RandomVersionPair(seed);
    auto cg = CombinedGraph::Build(g1, g2).value();
    const TripleGraph& g = cg.graph();
    EXPECT_EQ(LabelPartition(g).colors(), oracle::LabelPartition(g).colors());
    EXPECT_EQ(TrivialPartition(g).colors(),
              oracle::TrivialPartition(g).colors());
  }
}

TEST(FlatPartitionEquivalence, LabelKeyedConstructorsWithOversizedDictionary) {
  // Archive workloads share one Dictionary across many versions, so the
  // dictionary can dwarf one graph's node set; the constructors then take
  // the hash path instead of clearing an O(terms) flat table. Same colors
  // either way.
  auto dict = std::make_shared<Dictionary>();
  for (int i = 0; i < 20000; ++i) {
    dict->Intern("ex:unrelated-term-" + std::to_string(i));
  }
  GraphBuilder b(dict);
  NodeId s = b.AddUri("ex:s");
  NodeId p = b.AddUri("ex:p");
  NodeId lit = b.AddLiteral("hello");
  NodeId blank1 = b.AddBlank("b1");
  NodeId blank2 = b.AddBlank("b2");
  b.AddTriple(s, p, lit);
  b.AddTriple(blank1, p, lit);
  b.AddTriple(blank2, p, lit);
  TripleGraph g = std::move(b.Build(true)).value();
  ASSERT_GT(g.dict().size(), 4 * g.NumNodes() + 1024);
  EXPECT_EQ(LabelPartition(g).colors(), oracle::LabelPartition(g).colors());
  EXPECT_EQ(TrivialPartition(g).colors(),
            oracle::TrivialPartition(g).colors());
  // Blanks: one shared class under ℓ_G, singletons under λ_Trivial.
  Partition lp = LabelPartition(g);
  EXPECT_EQ(lp.ColorOf(blank1), lp.ColorOf(blank2));
  Partition tp = TrivialPartition(g);
  EXPECT_NE(tp.ColorOf(blank1), tp.ColorOf(blank2));
}

// ------------------------------------------------------------------ merge ---

TEST(MergeEquivalence, FastBuildIsBitIdenticalToLegacyReindex) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    auto [g1, g2] = RandomVersionPair(seed);
    auto fast = CombinedGraph::Build(g1, g2).value();
    auto slow = oracle::BuildUnion(g1, g2).value();
    ASSERT_TRUE(LabeledGraphsEqual(fast.graph(), slow.graph)) << seed;
    // The CSR indexes must match element for element, not just semantically.
    auto spans_equal = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    EXPECT_TRUE(spans_equal(fast.graph().OutOffsets(),
                            slow.graph.OutOffsets()));
    EXPECT_TRUE(spans_equal(fast.graph().OutPairs(),
                            slow.graph.OutPairs()));
    EXPECT_TRUE(spans_equal(fast.graph().InOffsets(),
                            slow.graph.InOffsets()));
    EXPECT_TRUE(spans_equal(fast.graph().InSubjects(),
                            slow.graph.InSubjects()));
    EXPECT_EQ(fast.n1(), slow.n1);
    EXPECT_EQ(fast.e2(), slow.e2);
    // Node lookup by label behaves the same (first match wins per side).
    EXPECT_EQ(fast.graph().FindUri("not-there"), kInvalidNode);
  }
}

TEST(MergeEquivalence, EmptySidesMerge) {
  auto dict = std::make_shared<Dictionary>();
  GraphBuilder b1(dict);
  b1.AddUriTriple("ex:s", "ex:p", "ex:o");
  GraphBuilder b2(dict);
  auto g1 = std::move(b1.Build(true)).value();
  auto g2 = std::move(b2.Build(true)).value();
  auto fast = CombinedGraph::Build(g1, g2).value();
  auto slow = oracle::BuildUnion(g1, g2).value();
  EXPECT_TRUE(LabeledGraphsEqual(fast.graph(), slow.graph));
  auto fast2 = CombinedGraph::Build(g2, g1).value();
  auto slow2 = oracle::BuildUnion(g2, g1).value();
  EXPECT_TRUE(LabeledGraphsEqual(fast2.graph(), slow2.graph));
  EXPECT_EQ(fast2.n1(), 0u);
}

// -------------------------------------------------------------- statistics ---

TEST(StatsEquivalence, EdgeAlignmentAndDeltaMatchLegacy) {
  for (uint64_t seed : {3ull, 4ull, 5ull, 6ull}) {
    auto [g1, g2] = RandomVersionPair(seed);
    auto cg = CombinedGraph::Build(g1, g2).value();
    for (int method = 0; method < 2; ++method) {
      Partition p = method == 0 ? TrivialPartition(cg.graph())
                                : HybridPartition(cg);
      EdgeAlignmentStats flat_stats = ComputeEdgeAlignment(cg, p);
      EdgeAlignmentStats legacy_stats = oracle::ComputeEdgeAlignment(cg, p);
      EXPECT_EQ(flat_stats.total_edges, legacy_stats.total_edges);
      EXPECT_EQ(flat_stats.aligned_edges, legacy_stats.aligned_edges);

      RdfDelta flat_delta = ComputeDelta(cg, p);
      RdfDelta legacy_delta = oracle::ComputeDelta(cg, p);
      EXPECT_EQ(flat_delta.unchanged, legacy_delta.unchanged);
      // added/deleted preserve triple order exactly.
      EXPECT_EQ(flat_delta.added, legacy_delta.added);
      EXPECT_EQ(flat_delta.deleted, legacy_delta.deleted);
      // The legacy rename order followed unordered_map iteration; compare
      // as sets of (source, target) node pairs.
      auto rename_set = [](const RdfDelta& d) {
        std::set<std::pair<NodeId, NodeId>> out;
        for (const UriRename& r : d.renamed_uris) {
          out.emplace(r.source, r.target);
        }
        return out;
      };
      EXPECT_EQ(rename_set(flat_delta), rename_set(legacy_delta));
      EXPECT_EQ(flat_delta.renamed_uris.size(),
                legacy_delta.renamed_uris.size());
    }
  }
}

// Pass 1 of ComputeEdgeAlignment counts label-identical edges through
// label twins. These pairs stress its key semantics: one string pool
// feeds both URIs and literals (the same string is often both), blanks
// occur on both sides, and — in the unvalidated variants — literals are
// subjects, or the source repeats a label (which forces the sorted-key
// fallback).

/// Node labels by string, so a spec materializes under any dictionary.
struct GraphSpec {
  std::vector<std::pair<TermKind, std::string>> nodes;
  std::vector<Triple> triples;
};

TripleGraph Materialize(const GraphSpec& spec,
                        const std::shared_ptr<Dictionary>& dict) {
  std::vector<NodeLabel> labels;
  for (const auto& [kind, lex] : spec.nodes) {
    labels.push_back(NodeLabel{kind, dict->Intern(lex)});
  }
  return std::move(TripleGraph::FromParts(dict, std::move(labels),
                                          spec.triples,
                                          /*validate_rdf=*/false))
      .value();
}

/// A random source spec over `strings` pooled strings (every one a URI,
/// every other one also a literal) plus blanks, and a target that keeps
/// ~80% of the source triples under a node shuffle and adds fresh ones.
std::pair<GraphSpec, GraphSpec> PunnedPair(uint64_t seed, size_t strings,
                                           size_t edges,
                                           bool literal_subjects) {
  Rng rng(seed);
  GraphSpec src;
  std::vector<NodeId> subjects;
  std::vector<NodeId> predicates;
  for (size_t k = 0; k < strings; ++k) {
    const NodeId id = static_cast<NodeId>(src.nodes.size());
    src.nodes.emplace_back(TermKind::kUri, "t" + std::to_string(k));
    subjects.push_back(id);
    if (predicates.size() < 6) predicates.push_back(id);
  }
  for (size_t k = 0; k < strings; k += 2) {
    if (literal_subjects) {
      subjects.push_back(static_cast<NodeId>(src.nodes.size()));
    }
    src.nodes.emplace_back(TermKind::kLiteral, "t" + std::to_string(k));
  }
  for (size_t k = 0; k < strings / 8 + 1; ++k) {
    subjects.push_back(static_cast<NodeId>(src.nodes.size()));
    src.nodes.emplace_back(TermKind::kBlank, "b" + std::to_string(k));
  }
  const auto random_triple = [&](size_t num_nodes,
                                 const std::vector<NodeId>& subj) {
    return Triple{subj[rng.Uniform(subj.size())],
                  predicates[rng.Uniform(predicates.size())],
                  static_cast<NodeId>(rng.Uniform(num_nodes))};
  };
  for (size_t i = 0; i < edges; ++i) {
    src.triples.push_back(random_triple(src.nodes.size(), subjects));
  }

  // Target: the same labels in shuffled order, plus a few new URIs.
  std::vector<NodeId> perm(src.nodes.size());
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Uniform(i)]);
  }
  GraphSpec tgt;
  tgt.nodes.resize(src.nodes.size());
  for (NodeId n = 0; n < src.nodes.size(); ++n) {
    tgt.nodes[perm[n]] = src.nodes[n];
  }
  for (size_t k = 0; k < strings / 10 + 1; ++k) {
    tgt.nodes.emplace_back(TermKind::kUri, "new" + std::to_string(k));
  }
  for (const Triple& t : src.triples) {
    if (rng.Bernoulli(0.8)) {
      tgt.triples.push_back(Triple{perm[t.s], perm[t.p], perm[t.o]});
    }
  }
  std::vector<NodeId> tgt_subjects;
  for (NodeId n : subjects) tgt_subjects.push_back(perm[n]);
  for (size_t i = 0; i < edges / 5; ++i) {
    tgt.triples.push_back(random_triple(tgt.nodes.size(), tgt_subjects));
  }
  return {std::move(src), std::move(tgt)};
}

/// Gives the source a second node carrying an existing URI label, moving
/// every other triple of the original onto the copy.
void RepeatSourceLabel(GraphSpec& src, NodeId original) {
  const NodeId copy = static_cast<NodeId>(src.nodes.size());
  src.nodes.push_back(src.nodes[original]);
  bool move = false;
  for (Triple& t : src.triples) {
    if (t.s != original && t.o != original) continue;
    if (move) {
      if (t.s == original) t.s = copy;
      if (t.o == original) t.o = copy;
    }
    move = !move;
  }
}

void ExpectEdgeStatsMatchLegacy(const GraphSpec& src, const GraphSpec& tgt,
                                const std::vector<size_t>& thread_counts) {
  auto dict = std::make_shared<Dictionary>();
  const TripleGraph g1 = Materialize(src, dict);
  const TripleGraph g2 = Materialize(tgt, dict);
  const CombinedGraph cg = CombinedGraph::Build(g1, g2).value();
  for (int method = 0; method < 2; ++method) {
    const Partition p =
        method == 0 ? TrivialPartition(cg.graph()) : HybridPartition(cg);
    const EdgeAlignmentStats legacy_stats =
        oracle::ComputeEdgeAlignment(cg, p);
    for (size_t threads : thread_counts) {
      SCOPED_TRACE("method " + std::to_string(method) + ", threads " +
                   std::to_string(threads));
      const EdgeAlignmentStats stats = ComputeEdgeAlignment(cg, p, threads);
      EXPECT_EQ(stats.total_edges, legacy_stats.total_edges);
      EXPECT_EQ(stats.aligned_edges, legacy_stats.aligned_edges);
    }
  }
}

TEST(StatsEquivalence, EdgeAlignmentLabelTwinsMatchLegacy) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (bool literal_subjects : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (literal_subjects ? ", literal subjects" : ""));
      const auto [src, tgt] =
          PunnedPair(seed, 40 + 10 * seed, 300, literal_subjects);
      ExpectEdgeStatsMatchLegacy(src, tgt, {1});
    }
  }
}

TEST(StatsEquivalence, EdgeAlignmentRepeatedSourceLabelMatchesLegacy) {
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto [src, tgt] = PunnedPair(seed, 50, 400, seed % 2 == 0);
    RepeatSourceLabel(src, /*original=*/3);
    ExpectEdgeStatsMatchLegacy(src, tgt, {1});
  }
}

// Large enough (>= 2^15 combined edges) for the chunked pass-1 count to
// engage; both the twin path and the fallback must agree for threads
// {1, 2, 4} and with the legacy count.
TEST(ParallelPipelineEdgeStats, LabelTwinsBitIdenticalAcrossThreads) {
  auto [src, tgt] = PunnedPair(21, 4000, 30000, /*literal_subjects=*/false);
  ASSERT_GE(src.triples.size() + tgt.triples.size(), size_t{1} << 15);
  ExpectEdgeStatsMatchLegacy(src, tgt, {1, 2, 4});
  RepeatSourceLabel(src, /*original=*/5);
  ExpectEdgeStatsMatchLegacy(src, tgt, {1, 2, 4});
}

TEST(StatsEquivalence, PairEnumerationAndCrossoverMatchLegacy) {
  for (uint64_t seed : {2ull, 3ull}) {
    auto [g1, g2] = RandomVersionPair(seed);
    auto cg = CombinedGraph::Build(g1, g2).value();
    Partition p = HybridPartition(cg);
    auto flat_pairs = EnumerateAlignedPairs(cg, p);
    auto legacy_pairs = oracle::EnumerateAlignedPairs(cg, p);
    std::set<std::pair<NodeId, NodeId>> flat_set(flat_pairs.begin(),
                                                 flat_pairs.end());
    std::set<std::pair<NodeId, NodeId>> legacy_set(legacy_pairs.begin(),
                                                   legacy_pairs.end());
    EXPECT_EQ(flat_set, legacy_set);
    EXPECT_EQ(flat_pairs.size(), legacy_pairs.size());
    EXPECT_EQ(HasCrossoverProperty(flat_pairs),
              oracle::HasCrossoverProperty(flat_pairs));
    EXPECT_TRUE(HasCrossoverProperty(flat_pairs));
    // Limit still respected, deterministically.
    auto limited = EnumerateAlignedPairs(cg, p, 5);
    EXPECT_LE(limited.size(), 5u);
    EXPECT_EQ(limited, EnumerateAlignedPairs(cg, p, 5));
  }
}

TEST(StatsEquivalence, CrossoverCheckerAgreesOnViolations) {
  std::vector<std::pair<NodeId, NodeId>> bad = {{1, 10}, {1, 11}, {2, 10}};
  EXPECT_FALSE(HasCrossoverProperty(bad));
  EXPECT_FALSE(oracle::HasCrossoverProperty(bad));
  bad.emplace_back(2, 11);
  EXPECT_TRUE(HasCrossoverProperty(bad));
  EXPECT_TRUE(oracle::HasCrossoverProperty(bad));
  // Duplicated pairs must not change the verdict.
  bad.push_back(bad.front());
  EXPECT_EQ(HasCrossoverProperty(bad), oracle::HasCrossoverProperty(bad));
}

// ------------------------------------------------------------ OverlapMatch ---

/// Word-set fixture in both representations (CSR and per-node vectors).
struct DualFixture {
  std::vector<NodeId> a_nodes;
  std::vector<NodeId> b_nodes;
  CharacterizingSets a_csr;
  CharacterizingSets b_csr;
  oracle::VectorCharSets a_vec;
  oracle::VectorCharSets b_vec;
  std::vector<std::string> a_text;
  std::vector<std::string> b_text;
};

DualFixture MakeDualFixture(uint64_t seed, size_t n, double typo_prob) {
  Rng rng(seed);
  DualFixture f;
  std::unordered_map<std::string, uint64_t> words;
  auto charset = [&](const std::string& text) {
    std::vector<uint64_t> ids;
    for (const std::string& w : SplitWords(text)) {
      auto [it, ins] = words.emplace(w, words.size());
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  };
  for (size_t i = 0; i < n; ++i) {
    std::string base = gen::RandomSentence(rng, 3, 7);
    std::string evolved =
        rng.Bernoulli(typo_prob) ? gen::ApplyTypo(base, rng) : base;
    f.a_nodes.push_back(static_cast<NodeId>(i));
    f.b_nodes.push_back(static_cast<NodeId>(10000 + i));
    f.a_text.push_back(base);
    f.b_text.push_back(evolved);
    std::vector<uint64_t> ca = charset(base);
    std::vector<uint64_t> cb = charset(evolved);
    f.a_csr.push_back(ca);
    f.b_csr.push_back(cb);
    f.a_vec.push_back(std::move(ca));
    f.b_vec.push_back(std::move(cb));
  }
  return f;
}

class OverlapMatchByteIdentity
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, bool>> {};

TEST_P(OverlapMatchByteIdentity, EdgesAndCountersAreIdenticalToLegacy) {
  auto [seed, theta, paper_prefix] = GetParam();
  DualFixture f = MakeDualFixture(seed, 50, 0.5);
  auto sigma = [&](size_t ai, size_t bi) {
    // Deterministic, representation-independent distance.
    return NormalizedEditDistance(f.a_text[ai], f.b_text[bi]);
  };
  OverlapMatchOptions options;
  options.paper_prefix = paper_prefix;
  OverlapMatchStats flat_stats;
  OverlapMatchStats legacy_stats;
  BipartiteMatching flat = OverlapMatch(f.a_nodes, f.b_nodes, f.a_csr,
                                        f.b_csr, theta, sigma, options,
                                        &flat_stats);
  BipartiteMatching legacy_h =
      oracle::OverlapMatch(f.a_nodes, f.b_nodes, f.a_vec, f.b_vec, theta,
                           sigma, options, &legacy_stats);
  // Byte identity: same edges, same order, same distances, same counters.
  ASSERT_EQ(flat.edges.size(), legacy_h.edges.size());
  for (size_t i = 0; i < flat.edges.size(); ++i) {
    EXPECT_EQ(flat.edges[i].a, legacy_h.edges[i].a) << i;
    EXPECT_EQ(flat.edges[i].b, legacy_h.edges[i].b) << i;
    EXPECT_EQ(flat.edges[i].distance, legacy_h.edges[i].distance) << i;
  }
  EXPECT_EQ(flat_stats.candidates_probed, legacy_stats.candidates_probed);
  EXPECT_EQ(flat_stats.overlap_checked, legacy_stats.overlap_checked);
  EXPECT_EQ(flat_stats.sigma_checked, legacy_stats.sigma_checked);
  EXPECT_EQ(flat_stats.matched, legacy_stats.matched);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OverlapMatchByteIdentity,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6),
                       ::testing::Values(0.35, 0.65, 0.9),
                       ::testing::Bool()));

TEST(OverlapMatchByteIdentityTest, EmptyAndDegenerateInputs) {
  DualFixture f = MakeDualFixture(9, 5, 0.0);
  auto zero = [](size_t, size_t) { return 0.0; };
  OverlapMatchStats s1, s2;
  auto e1 = OverlapMatch({}, f.b_nodes, {}, f.b_csr, 0.5, zero, {}, &s1);
  auto e2 = oracle::OverlapMatch({}, f.b_nodes, {}, f.b_vec, 0.5, zero, {},
                                 &s2);
  EXPECT_TRUE(e1.Empty());
  EXPECT_TRUE(e2.Empty());
  EXPECT_EQ(s1.candidates_probed, s2.candidates_probed);
}

// The full overlap alignment (word interning through Dictionary, streamed
// CSR char sets) still produces the same partition as before the rewrite on
// seeded version pairs — pinned against the aligner-level contract rather
// than a copied implementation.
TEST(OverlapAlignRegression, AlignedStatsStableAcrossRepresentations) {
  for (uint64_t seed : {5ull, 6ull}) {
    auto [g1, g2] = RandomVersionPair(seed);
    auto cg = CombinedGraph::Build(g1, g2).value();
    OverlapAlignResult r1 = OverlapAlign(cg);
    OverlapAlignResult r2 = OverlapAlign(cg);
    // Deterministic run-to-run.
    EXPECT_EQ(r1.xi.partition.colors(), r2.xi.partition.colors());
    EXPECT_EQ(r1.literal_matches, r2.literal_matches);
    EXPECT_EQ(r1.nonliteral_matches, r2.nonliteral_matches);
    // Anything the overlap method aligns must still satisfy crossover.
    auto pairs = EnumerateAlignedPairs(cg, r1.xi.partition, 2000);
    EXPECT_TRUE(HasCrossoverProperty(pairs));
  }
}

}  // namespace
}  // namespace rdfalign

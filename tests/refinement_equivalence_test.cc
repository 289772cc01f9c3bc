// Randomized equivalence harness: the library's worklist engine and the
// full-rescan oracle (tests/oracle/refinement.h) must compute the same
// fixpoint partition — in fact bit-identical dense color vectors, since
// Partition::FromColors renumbers canonically — across random graphs,
// refinable subsets, predicate keys, mediation (contextual) instances, and
// the generated category and EFO workloads. Small graphs are additionally
// cross-checked against the brute-force maximal-bisimulation oracle.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "core/bisim.h"
#include "core/context.h"
#include "core/refinement.h"
#include "gen/category_gen.h"
#include "gen/efo_gen.h"
#include "oracle/refinement.h"
#include "test_util.h"

namespace rdfalign {
namespace {

std::vector<NodeId> AllNodes(const TripleGraph& g) {
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  return all;
}

// Compares the worklist engine with the rescan oracle on one (graph,
// initial, x) instance and checks the worklist stats invariants.
void ExpectEnginesAgree(const TripleGraph& g, const Partition& initial,
                        const std::vector<NodeId>& x,
                        const std::vector<uint8_t>* mask) {
  RefinementStats inc_stats;
  RefinementStats leg_stats;
  Partition inc =
      mask == nullptr
          ? BisimRefineFixpoint(g, initial, x, &inc_stats)
          : BisimRefineFixpointKeyed(g, initial, x, *mask, &inc_stats);
  Partition leg =
      mask == nullptr
          ? oracle::BisimRefineFixpoint(g, initial, x, &leg_stats)
          : oracle::BisimRefineFixpointKeyed(g, initial, x, *mask,
                                             &leg_stats);
  ASSERT_TRUE(Partition::Equivalent(inc, leg));
  // FromColors renumbers by first occurrence, which is canonical for an
  // equivalence relation: equal relations give equal vectors.
  EXPECT_EQ(inc.colors(), leg.colors());
  EXPECT_EQ(inc_stats.final_classes, leg_stats.final_classes);
  EXPECT_TRUE(Partition::IsFinerOrEqual(inc, initial));
  // The worklist can only shrink after the first full pass.
  if (!inc_stats.dirty_per_iteration.empty()) {
    EXPECT_EQ(inc_stats.dirty_per_iteration.front(), x.size());
  }
  // Steady-state work must not exceed the oracle's rescan total.
  EXPECT_LE(inc_stats.TotalDirty(), leg_stats.TotalDirty());
}

// Contextual (mediation-aware) refinement: the worklist engine must match
// the oracle's full-rescan ContextualRefineFixpoint bit for bit.
// Returns the number of predicate-only URIs so callers can assert the
// mediation path was actually exercised across a suite of instances.
size_t ExpectContextualEnginesAgree(const TripleGraph& g,
                                    const Partition& initial,
                                    const std::vector<NodeId>& x) {
  std::vector<uint8_t> predicate_only(g.NumNodes(), 0);
  const std::vector<NodeId> pred_only_uris = PredicateOnlyUris(g);
  for (NodeId n : pred_only_uris) predicate_only[n] = 1;
  MediationIndex mediation(g);
  RefinementStats inc_stats;
  RefinementStats leg_stats;
  Partition inc = ContextualRefineFixpoint(g, initial, x, mediation,
                                           predicate_only, &inc_stats);
  Partition leg = oracle::ContextualRefineFixpoint(g, initial, x, mediation,
                                                   predicate_only, &leg_stats);
  EXPECT_TRUE(Partition::Equivalent(inc, leg));
  EXPECT_EQ(inc.colors(), leg.colors());
  EXPECT_EQ(inc_stats.final_classes, leg_stats.final_classes);
  EXPECT_TRUE(Partition::IsFinerOrEqual(inc, initial));
  if (!inc_stats.dirty_per_iteration.empty()) {
    EXPECT_EQ(inc_stats.dirty_per_iteration.front(), x.size());
  }
  // The mediation-aware dirtiness must not exceed the full-rescan total.
  EXPECT_LE(inc_stats.TotalDirty(), leg_stats.TotalDirty());
  return pred_only_uris.size();
}

class EngineEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(EngineEquivalenceProperty, RandomGraphsAllSubsets) {
  const uint64_t seed = GetParam();
  testing::RandomGraphOptions options;
  options.seed = seed;
  options.uris = 8 + seed % 13;
  options.literals = 4 + seed % 9;
  options.blanks = 3 + seed % 11;
  options.edges = 20 + seed % 70;
  options.predicates = 2 + seed % 5;
  TripleGraph g = testing::RandomGraph(options);

  const std::vector<NodeId> all = AllNodes(g);
  const std::vector<NodeId> blanks = g.NodesOfKind(TermKind::kBlank);

  // Full bisimulation from the label partition.
  ExpectEnginesAgree(g, LabelPartition(g), all, nullptr);
  // Deblanking restriction: X = blanks only.
  ExpectEnginesAgree(g, LabelPartition(g), blanks, nullptr);
  // From the trivial partition (URI singletons stay put).
  ExpectEnginesAgree(g, TrivialPartition(g), all, nullptr);

  // Keyed refinement under a pseudo-random key over the predicates.
  std::vector<uint8_t> mask(g.NumNodes(), 0);
  for (const Triple& t : g.triples()) {
    if ((g.LexicalId(t.p) + seed) % 2 == 0) mask[t.p] = 1;
  }
  ExpectEnginesAgree(g, LabelPartition(g), all, &mask);
  ExpectEnginesAgree(g, LabelPartition(g), blanks, &mask);
}

// 50 seeds x 5 engine comparisons each = 250 random instances, plus the
// evolving-pair and oracle suites below.
INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceProperty,
                         ::testing::Range<uint64_t>(1, 51));

class EvolvingPairEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvolvingPairEquivalence, CombinedGraphsAgree) {
  // The production shape: a combined two-version graph where label classes
  // pair up across the sides.
  auto [g1, g2] = testing::RandomEvolvingPair(GetParam());
  CombinedGraph cg = testing::Combine(g1, g2);
  const TripleGraph& g = cg.graph();
  ExpectEnginesAgree(g, LabelPartition(g), AllNodes(g), nullptr);
  ExpectEnginesAgree(g, LabelPartition(g), g.NodesOfKind(TermKind::kBlank),
                     nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvolvingPairEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

class BruteForceCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BruteForceCrossCheck, IncrementalMatchesOracleOnSmallGraphs) {
  const uint64_t seed = GetParam();
  testing::RandomGraphOptions options;
  options.seed = seed;
  options.uris = 4;
  options.literals = 3;
  options.blanks = 2 + seed % 4;
  options.edges = 8 + seed % 10;
  options.predicates = 2;
  TripleGraph g = testing::RandomGraph(options);

  Partition p = BisimPartition(g);
  auto oracle = MaximalBisimulationBruteForce(g);
  std::set<std::pair<NodeId, NodeId>> rel(oracle.begin(), oracle.end());
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      EXPECT_EQ(p.ColorOf(a) == p.ColorOf(b), rel.count({a, b}) > 0)
          << "nodes " << a << "," << b << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BruteForceCrossCheck,
                         ::testing::Range<uint64_t>(1, 9));

TEST(EngineEquivalenceTest, PaperGraphsBitIdentical) {
  TripleGraph g = testing::Fig2Graph();
  ExpectEnginesAgree(g, LabelPartition(g), AllNodes(g), nullptr);

  auto [g1, g2] = testing::Fig3Graphs();
  CombinedGraph cg = testing::Combine(g1, g2);
  ExpectEnginesAgree(cg.graph(), LabelPartition(cg.graph()),
                     AllNodes(cg.graph()), nullptr);
}

TEST(EngineEquivalenceTest, EmptySubsetIsIdentityInBothEngines) {
  TripleGraph g = testing::Fig2Graph();
  Partition p0 = LabelPartition(g);
  RefinementStats stats;
  Partition inc = BisimRefineFixpoint(g, p0, {}, &stats);
  EXPECT_TRUE(Partition::Equivalent(p0, inc));
  EXPECT_GE(stats.iterations, 1u);
  Partition leg = oracle::BisimRefineFixpoint(g, p0, {}, nullptr);
  EXPECT_TRUE(Partition::Equivalent(inc, leg));
}

// 40 random graphs x 2 inputs = 80 contextual instances; the accumulated
// predicate-only count guards that the mediation path is genuinely
// exercised (random predicates are predominantly predicate-only).
TEST(ContextualEquivalenceTest, RandomMediationInstances) {
  size_t total_predicate_only = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    testing::RandomGraphOptions options;
    options.seed = seed * 977;
    options.uris = 8 + seed % 11;
    options.literals = 4 + seed % 7;
    options.blanks = 3 + seed % 9;
    options.edges = 24 + seed % 60;
    options.predicates = 2 + seed % 6;
    TripleGraph g = testing::RandomGraph(options);
    const std::vector<NodeId> all = AllNodes(g);
    total_predicate_only +=
        ExpectContextualEnginesAgree(g, LabelPartition(g), all);
    // The production shape: refine from a blanked partition over a subset
    // (here the blanks plus every URI with an even lexical id).
    std::vector<NodeId> subset = g.NodesOfKind(TermKind::kBlank);
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (g.IsUri(n) && g.LexicalId(n) % 2 == 0) subset.push_back(n);
    }
    std::sort(subset.begin(), subset.end());
    ExpectContextualEnginesAgree(g, BlankColors(LabelPartition(g), subset),
                                 subset);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
  EXPECT_GT(total_predicate_only, 0u)
      << "no instance had predicate-only URIs; mediation never exercised";
}

class ContextualEvolvingPairEquivalence
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContextualEvolvingPairEquivalence, PredicateAwareHybridAgrees) {
  // End-to-end: the predicate-aware hybrid alignment over a combined
  // two-version graph must match the rescan oracle.
  auto [g1, g2] = testing::RandomEvolvingPair(GetParam());
  CombinedGraph cg = testing::Combine(g1, g2);
  RefinementStats inc_stats;
  RefinementStats leg_stats;
  Partition inc = PredicateAwareHybridPartition(cg, &inc_stats);
  Partition leg = oracle::PredicateAwareHybridPartition(cg, &leg_stats);
  ASSERT_TRUE(Partition::Equivalent(inc, leg));
  EXPECT_EQ(inc.colors(), leg.colors());
  EXPECT_EQ(inc_stats.final_classes, leg_stats.final_classes);
  EXPECT_LE(inc_stats.TotalDirty(), leg_stats.TotalDirty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextualEvolvingPairEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

// The generated workloads the refinement bench times, at scale 0.1: the
// worklist engine must reproduce the rescan oracle on the production
// shapes — full bisimulation, keyed refinement, and the predicate-aware
// hybrid alignment.
CombinedGraph GeneratedPair(const std::string& workload) {
  constexpr double kScale = 0.1;
  constexpr uint64_t kSeed = 5;
  if (workload == "category") {
    gen::CategoryChain chain = gen::CategoryChain::Generate(
        gen::CategoryOptions::FromScale(kScale, /*versions=*/2, kSeed));
    return testing::Combine(chain.Version(0), chain.Version(1));
  }
  gen::EfoOptions options;
  options.initial_classes = static_cast<size_t>(2000 * kScale);
  options.versions = 2;
  options.seed = kSeed;
  gen::EfoChain chain = gen::EfoChain::Generate(options);
  return testing::Combine(chain.Version(0), chain.Version(1));
}

class GeneratedWorkloadEngineEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratedWorkloadEngineEquivalence, PlainKeyedAndContextualAgree) {
  CombinedGraph cg = GeneratedPair(GetParam());
  const TripleGraph& g = cg.graph();
  ExpectEnginesAgree(g, LabelPartition(g), AllNodes(g), nullptr);

  std::vector<uint8_t> mask(g.NumNodes(), 0);
  for (const Triple& t : g.triples()) {
    if (g.LexicalId(t.p) % 2 == 0) mask[t.p] = 1;
  }
  ExpectEnginesAgree(g, LabelPartition(g), AllNodes(g), &mask);

  RefinementStats inc_stats;
  RefinementStats leg_stats;
  Partition inc = PredicateAwareHybridPartition(cg, &inc_stats);
  Partition leg = oracle::PredicateAwareHybridPartition(cg, &leg_stats);
  EXPECT_EQ(inc.colors(), leg.colors());
  EXPECT_EQ(inc_stats.final_classes, leg_stats.final_classes);
}

INSTANTIATE_TEST_SUITE_P(Scale0_1, GeneratedWorkloadEngineEquivalence,
                         ::testing::Values("category", "efo"));

TEST(EngineEquivalenceTest, DirtyCountsShrinkOnChainGraph) {
  // A long chain ending in a distinguishing literal: each round can split
  // only one more node, so the worklist must collapse to O(1) per round
  // while the rescan oracle re-signs everything.
  GraphBuilder b;
  NodeId p = b.AddUri("ex:p");
  constexpr int kLen = 40;
  std::vector<NodeId> chain;
  for (int i = 0; i < kLen; ++i) chain.push_back(b.AddBlank());
  for (int i = 0; i + 1 < kLen; ++i) b.AddTriple(chain[i], p, chain[i + 1]);
  b.AddTriple(chain[kLen - 1], p, b.AddLiteral("end"));
  TripleGraph g = std::move(b.Build(true)).value();

  RefinementStats stats;
  Partition fix = BisimRefineFixpoint(g, LabelPartition(g),
                                      g.NodesOfKind(TermKind::kBlank), &stats);
  EXPECT_EQ(stats.final_classes, fix.NumColors());
  ASSERT_GE(stats.dirty_per_iteration.size(), 3u);
  // After the full first pass the worklist is tiny (the split frontier).
  for (size_t i = 1; i < stats.dirty_per_iteration.size(); ++i) {
    EXPECT_LE(stats.dirty_per_iteration[i], 2u) << "iteration " << i;
  }
  EXPECT_GT(stats.signature_bytes, 0u);
}

}  // namespace
}  // namespace rdfalign

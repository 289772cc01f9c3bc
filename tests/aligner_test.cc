#include "core/aligner.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace rdfalign {
namespace {

TEST(AlignerTest, MethodNames) {
  EXPECT_EQ(AlignMethodToString(AlignMethod::kTrivial), "trivial");
  EXPECT_EQ(AlignMethodToString(AlignMethod::kDeblank), "deblank");
  EXPECT_EQ(AlignMethodToString(AlignMethod::kHybrid), "hybrid");
  EXPECT_EQ(AlignMethodToString(AlignMethod::kHybridContextual),
            "hybrid-contextual");
  EXPECT_EQ(AlignMethodToString(AlignMethod::kOverlap), "overlap");
}

TEST(AlignerTest, RejectsMismatchedDictionaries) {
  TripleGraph g1 = testing::Fig2Graph();
  TripleGraph g2 = testing::Fig2Graph();  // separate dictionary
  auto outcome = Aligner().Align(g1, g2);
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsInvalidArgument());
}

TEST(AlignerTest, OverlapPopulatesWeights) {
  auto [g1, g2] = testing::Fig3Graphs();
  AlignerOptions options;
  options.method = AlignMethod::kOverlap;
  auto outcome = Aligner(options).Align(g1, g2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->weights.size(), g1.NumNodes() + g2.NumNodes());
  for (double w : outcome->weights) {
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(AlignerTest, NonOverlapMethodsLeaveWeightsEmpty) {
  auto [g1, g2] = testing::Fig3Graphs();
  for (AlignMethod m : {AlignMethod::kTrivial, AlignMethod::kDeblank,
                        AlignMethod::kHybrid,
                        AlignMethod::kHybridContextual}) {
    AlignerOptions options;
    options.method = m;
    auto outcome = Aligner(options).Align(g1, g2);
    ASSERT_TRUE(outcome.ok()) << AlignMethodToString(m);
    EXPECT_TRUE(outcome->weights.empty()) << AlignMethodToString(m);
    EXPECT_EQ(outcome->partition.NumNodes(),
              g1.NumNodes() + g2.NumNodes());
  }
}

TEST(AlignerTest, TimingAndStatsAreFilled) {
  auto [g1, g2] = testing::Fig3Graphs();
  AlignerOptions options;
  options.method = AlignMethod::kHybrid;
  auto outcome = Aligner(options).Align(g1, g2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->seconds, 0.0);
  EXPECT_GT(outcome->refinement.iterations, 0u);
  EXPECT_GT(outcome->edge_stats.total_edges, 0u);
  EXPECT_GT(outcome->node_stats.aligned_classes, 0u);
}

// Every phase is measured, not derived: each is non-negative, and the
// phases inside the method core fit in its wall time.
TEST(AlignerTest, PhaseTimingsFitTheMethodWallTime) {
  auto [g1, g2] = testing::Fig3Graphs();
  for (AlignMethod m : {AlignMethod::kTrivial, AlignMethod::kDeblank,
                        AlignMethod::kHybrid, AlignMethod::kHybridContextual,
                        AlignMethod::kOverlap}) {
    AlignerOptions options;
    options.method = m;
    auto outcome = Aligner(options).Align(g1, g2);
    ASSERT_TRUE(outcome.ok()) << AlignMethodToString(m);
    const AlignPhaseTimings& t = outcome->phases;
    for (double ms : {t.merge_ms, t.refine_ms, t.enrich_ms,
                      t.overlap_index_ms, t.match_ms, t.stats_ms}) {
      EXPECT_GE(ms, 0.0) << AlignMethodToString(m);
    }
    // The slack absorbs double rounding of the separately converted
    // nanosecond intervals.
    EXPECT_LE(t.refine_ms + t.enrich_ms + t.overlap_index_ms + t.match_ms,
              1000.0 * outcome->seconds + 1e-6)
        << AlignMethodToString(m);
  }
}

TEST(AlignerTest, ContextualAtLeastMatchesHybridRatioOnFig3) {
  auto [g1, g2] = testing::Fig3Graphs();
  AlignerOptions hybrid{.method = AlignMethod::kHybrid};
  AlignerOptions contextual{.method = AlignMethod::kHybridContextual};
  auto h = Aligner(hybrid).Align(g1, g2);
  auto c = Aligner(contextual).Align(g1, g2);
  ASSERT_TRUE(h.ok() && c.ok());
  // Fig. 3 has no churn among predicate-only URIs, so both agree.
  EXPECT_EQ(h->edge_stats.aligned_edges, c->edge_stats.aligned_edges);
}

TEST(AlignerTest, OverlapThetaIsForwarded) {
  auto [g1, g2] = testing::RandomEvolvingPair(11);
  AlignerOptions strict;
  strict.method = AlignMethod::kOverlap;
  strict.overlap.theta = 0.95;
  AlignerOptions loose;
  loose.method = AlignMethod::kOverlap;
  loose.overlap.theta = 0.5;
  auto s = Aligner(strict).Align(g1, g2);
  auto l = Aligner(loose).Align(g1, g2);
  ASSERT_TRUE(s.ok() && l.ok());
  // Different thresholds generally change the outcome; at minimum both are
  // valid partitions covering all nodes.
  EXPECT_EQ(s->partition.NumNodes(), l->partition.NumNodes());
}

}  // namespace
}  // namespace rdfalign

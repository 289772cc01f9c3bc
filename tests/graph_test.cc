#include "rdf/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "rdf/dictionary.h"

namespace rdfalign {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  LexId a = d.Intern("http://x");
  LexId b = d.Intern("http://x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.Get(a), "http://x");
}

TEST(DictionaryTest, FindWithoutIntern) {
  Dictionary d;
  EXPECT_EQ(d.Find("missing"), kInvalidLex);
  LexId a = d.Intern("present");
  EXPECT_EQ(d.Find("present"), a);
}

TEST(DictionaryTest, ManyStringsStayStable) {
  Dictionary d;
  std::vector<LexId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(d.Intern("s" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.Get(ids[i]), "s" + std::to_string(i));
  }
}

TEST(DictionaryTest, TracksAscendingRunAndTermBytes) {
  Dictionary d;
  EXPECT_TRUE(d.ascending());
  d.AppendPinned("a");
  d.AppendPinned("ab");
  d.Intern("b");
  EXPECT_TRUE(d.ascending());
  EXPECT_EQ(d.term_bytes(), 4u);
  d.Intern("ab");  // a hit appends nothing
  EXPECT_TRUE(d.ascending());
  d.Intern("aa");  // below its predecessor "b"
  EXPECT_FALSE(d.ascending());
  d.Intern("c");  // the run never resumes
  EXPECT_FALSE(d.ascending());
  EXPECT_EQ(d.term_bytes(), 7u);
}

TEST(DictionaryTest, IndexIsBuiltOnFirstLookupAndKeptCurrent) {
  Dictionary d;
  const LexId x = d.AppendPinned("x");
  const LexId y = d.AppendPinned("y");
  EXPECT_FALSE(d.index_built());
  EXPECT_EQ(d.Find("y"), y);
  EXPECT_TRUE(d.index_built());
  const LexId z = d.AppendPinned("z");  // appended after the build
  EXPECT_EQ(d.Find("z"), z);
  EXPECT_EQ(d.Intern("x"), x);
  EXPECT_EQ(d.size(), 3u);

  Dictionary moved = std::move(d);
  EXPECT_TRUE(moved.index_built());
  EXPECT_EQ(moved.Find("z"), z);
}

TEST(GraphBuilderTest, DeduplicatesUrisAndLiterals) {
  GraphBuilder b;
  NodeId u1 = b.AddUri("ex:a");
  NodeId u2 = b.AddUri("ex:a");
  EXPECT_EQ(u1, u2);
  NodeId l1 = b.AddLiteral("x");
  NodeId l2 = b.AddLiteral("x");
  EXPECT_EQ(l1, l2);
  // A URI and a literal with the same lexical form are distinct nodes.
  NodeId u3 = b.AddUri("x");
  EXPECT_NE(u3, l1);
}

TEST(GraphBuilderTest, NamedBlanksDedupAnonymousDoNot) {
  GraphBuilder b;
  EXPECT_EQ(b.AddBlank("b1"), b.AddBlank("b1"));
  EXPECT_NE(b.AddBlank(), b.AddBlank());
}

TEST(GraphBuilderTest, BuildsValidGraph) {
  GraphBuilder b;
  b.AddLiteralTriple("ex:s", "ex:p", "value");
  b.AddUriTriple("ex:s", "ex:q", "ex:o");
  auto g = b.Build(true);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->NumNodes(), 5u);  // s, p, q, o, "value"
  EXPECT_EQ(g->NumEdges(), 2u);
}

TEST(GraphBuilderTest, DuplicateTriplesCollapse) {
  GraphBuilder b;
  b.AddUriTriple("ex:s", "ex:p", "ex:o");
  b.AddUriTriple("ex:s", "ex:p", "ex:o");
  auto g = b.Build(true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
}

TEST(GraphValidationTest, RejectsLiteralSubject) {
  GraphBuilder b;
  NodeId lit = b.AddLiteral("x");
  NodeId p = b.AddUri("ex:p");
  NodeId o = b.AddUri("ex:o");
  b.AddTriple(lit, p, o);
  auto g = b.Build(true);
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphValidationTest, RejectsLiteralAndBlankPredicates) {
  {
    GraphBuilder b;
    NodeId s = b.AddUri("ex:s");
    NodeId lit = b.AddLiteral("p");
    b.AddTriple(s, lit, s);
    EXPECT_FALSE(b.Build(true).ok());
  }
  {
    GraphBuilder b;
    NodeId s = b.AddUri("ex:s");
    NodeId blank = b.AddBlank("b");
    b.AddTriple(s, blank, s);
    EXPECT_FALSE(b.Build(true).ok());
  }
}

TEST(GraphValidationTest, BlankSubjectAndObjectAreFine) {
  GraphBuilder b;
  NodeId s = b.AddBlank("b1");
  NodeId p = b.AddUri("ex:p");
  NodeId o = b.AddBlank("b2");
  b.AddTriple(s, p, o);
  EXPECT_TRUE(b.Build(true).ok());
}

TEST(TripleGraphTest, OutNeighborhoodsAreSortedSlices) {
  GraphBuilder b;
  NodeId s = b.AddUri("ex:s");
  NodeId p = b.AddUri("ex:p");
  NodeId q = b.AddUri("ex:q");
  NodeId o1 = b.AddLiteral("1");
  NodeId o2 = b.AddLiteral("2");
  b.AddTriple(s, q, o2);
  b.AddTriple(s, p, o1);
  b.AddTriple(s, p, o2);
  auto g = std::move(b.Build(true)).value();
  auto out = g.Out(s);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0] < out[1] && out[1] < out[2]);
  EXPECT_EQ(g.OutDegree(s), 3u);
  EXPECT_EQ(g.OutDegree(o1), 0u);
}

TEST(TripleGraphTest, FindByLabel) {
  GraphBuilder b;
  b.AddLiteralTriple("ex:s", "ex:p", "hello");
  NodeId blank = b.AddBlank("bn");
  NodeId p = b.AddUri("ex:p");
  NodeId lit = b.AddLiteral("hello");
  b.AddTriple(blank, p, lit);
  auto g = std::move(b.Build(true)).value();
  EXPECT_NE(g.FindUri("ex:s"), kInvalidNode);
  EXPECT_EQ(g.FindUri("ex:zzz"), kInvalidNode);
  EXPECT_NE(g.FindLiteral("hello"), kInvalidNode);
  EXPECT_NE(g.FindBlank("bn"), kInvalidNode);
  EXPECT_EQ(g.FindBlank("zz"), kInvalidNode);
}

TEST(TripleGraphTest, LabelIndexIsLazyAndDerived) {
  GraphBuilder b;
  b.AddUriTriple("ex:s", "ex:p", "ex:o");
  auto g = std::move(b.Build(true)).value();
  EXPECT_FALSE(g.label_index_built());
  const NodeId o = g.FindUri("ex:o");
  ASSERT_NE(o, kInvalidNode);
  EXPECT_TRUE(g.label_index_built());
  // A copy starts unbuilt and rebuilds on demand; a move keeps the map.
  const TripleGraph copy = g;
  EXPECT_FALSE(copy.label_index_built());
  EXPECT_EQ(copy.FindUri("ex:o"), o);
  const TripleGraph moved = std::move(g);
  EXPECT_TRUE(moved.label_index_built());
  EXPECT_EQ(moved.FindUri("ex:o"), o);
}

TEST(TripleGraphTest, NodesOfKindAndCounts) {
  GraphBuilder b;
  b.AddLiteralTriple("ex:s", "ex:p", "v");
  NodeId blank = b.AddBlank();
  NodeId p = b.AddUri("ex:p");
  b.AddTriple(blank, p, b.AddLiteral("w"));
  auto g = std::move(b.Build(true)).value();
  EXPECT_EQ(g.CountOfKind(TermKind::kUri), 2u);
  EXPECT_EQ(g.CountOfKind(TermKind::kLiteral), 2u);
  EXPECT_EQ(g.CountOfKind(TermKind::kBlank), 1u);
  EXPECT_EQ(g.NodesOfKind(TermKind::kBlank).size(), 1u);
}

TEST(TripleGraphInIndexTest, EmptyNeighborhoodAndBasicEdges) {
  GraphBuilder b;
  NodeId s = b.AddUri("ex:s");
  NodeId p = b.AddUri("ex:p");
  NodeId o = b.AddUri("ex:o");
  NodeId isolated = b.AddUri("ex:island");
  b.AddTriple(s, p, o);
  auto g = std::move(b.Build(true)).value();
  // A subject-only node and an isolated node have empty in-neighborhoods.
  EXPECT_EQ(g.InDegree(s), 0u);
  EXPECT_TRUE(g.In(s).empty());
  EXPECT_EQ(g.InDegree(isolated), 0u);
  EXPECT_TRUE(g.In(isolated).empty());
  // Predicate and object both see the subject.
  ASSERT_EQ(g.InDegree(p), 1u);
  EXPECT_EQ(g.In(p)[0], s);
  ASSERT_EQ(g.InDegree(o), 1u);
  EXPECT_EQ(g.In(o)[0], s);
}

TEST(TripleGraphInIndexTest, DeduplicatesAcrossRolesAndPredicates) {
  GraphBuilder b;
  NodeId s = b.AddUri("ex:s");
  NodeId p = b.AddUri("ex:p");
  NodeId q = b.AddUri("ex:q");
  NodeId o = b.AddUri("ex:o");
  // s reaches o through two predicates: one in-index entry.
  b.AddTriple(s, p, o);
  b.AddTriple(s, q, o);
  // s also uses p both as predicate (above) and as object.
  b.AddTriple(s, q, p);
  auto g = std::move(b.Build(true)).value();
  ASSERT_EQ(g.InDegree(o), 1u);
  EXPECT_EQ(g.In(o)[0], s);
  ASSERT_EQ(g.InDegree(p), 1u);
  EXPECT_EQ(g.In(p)[0], s);
}

TEST(TripleGraphInIndexTest, HighFanoutNodeListsAllSubjectsSorted) {
  // A hub referenced by many subjects through one predicate: the in-index
  // must list every subject exactly once, ascending.
  GraphBuilder b;
  NodeId hub = b.AddUri("ex:hub");
  NodeId p = b.AddUri("ex:p");
  constexpr int kFanout = 500;
  std::vector<NodeId> subjects;
  for (int i = 0; i < kFanout; ++i) {
    NodeId s = b.AddUri("ex:s" + std::to_string(i));
    b.AddTriple(s, p, hub);
    b.AddTriple(s, p, s);  // self-loop: s is its own in-neighbor
    subjects.push_back(s);
  }
  auto g = std::move(b.Build(true)).value();
  ASSERT_EQ(g.InDegree(hub), static_cast<size_t>(kFanout));
  auto in = g.In(hub);
  EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
  std::sort(subjects.begin(), subjects.end());
  EXPECT_TRUE(std::equal(in.begin(), in.end(), subjects.begin()));
  // The predicate sees all subjects too (fanout distinct subjects).
  EXPECT_EQ(g.InDegree(p), static_cast<size_t>(kFanout));
  // Self-loop: each subject occurs in its own in-neighborhood exactly once.
  for (NodeId s : subjects) {
    ASSERT_EQ(g.InDegree(s), 1u);
    EXPECT_EQ(g.In(s)[0], s);
  }
}

TEST(TripleGraphInIndexTest, ConsistentWithTriples) {
  // Cross-check In() against a reference recomputation from the triples.
  GraphBuilder b;
  for (int i = 0; i < 40; ++i) {
    b.AddUriTriple("ex:s" + std::to_string(i % 7),
                   "ex:p" + std::to_string(i % 3),
                   "ex:o" + std::to_string(i % 11));
  }
  auto g = std::move(b.Build(true)).value();
  std::vector<std::set<NodeId>> expected(g.NumNodes());
  for (const Triple& t : g.triples()) {
    expected[t.p].insert(t.s);
    expected[t.o].insert(t.s);
  }
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    auto in = g.In(n);
    ASSERT_EQ(g.InDegree(n), expected[n].size()) << "node " << n;
    EXPECT_TRUE(std::equal(in.begin(), in.end(), expected[n].begin()))
        << "node " << n;
  }
}

TEST(TripleGraphTest, FromPartsRejectsOutOfRangeIds) {
  auto dict = std::make_shared<Dictionary>();
  std::vector<NodeLabel> labels{{TermKind::kUri, dict->Intern("ex:a")}};
  std::vector<Triple> triples{{0, 0, 5}};
  auto g = TripleGraph::FromParts(dict, labels, triples, false);
  EXPECT_FALSE(g.ok());
}

}  // namespace
}  // namespace rdfalign

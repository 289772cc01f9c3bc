// Graph-source coverage of the hash-free label join:
//
//   * RebindJoinTest — RebindGraph's merge join (two ascending runs) and
//     its Intern fallback (v1 files, parsed text, a third rebind) give the
//     shared dictionary and the rebound labels exactly what interning
//     every referenced term in ascending source-id order gives;
//   * the align path (two v2 loads, two rebinds, one merge) builds no
//     dictionary or label hash index at all;
//   * LoadedGraphBytes' running term total equals the walked sum;
//   * DictionaryParallel (in the CI TSan lane's *Parallel* scope) — many
//     threads racing the first lookups of one shared cached graph.

#include "service/graph_source.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rdf/merge.h"
#include "store/snapshot.h"
#include "test_util.h"

namespace rdfalign::service {
namespace {

std::string DataPath(const std::string& name) {
  return std::string(RDFALIGN_SOURCE_DIR) + "/tests/data/" + name;
}

std::string ScratchPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_join_" + info->name() + "_" + name;
}

LoadedGraphRef Load(const std::string& path) {
  Result<LoadedGraphRef> loaded = LoadGraphFile(path, CommonOptions(), false);
  EXPECT_TRUE(loaded.ok()) << path << ": " << loaded.status();
  return loaded.ok() ? *loaded : nullptr;
}

/// `g` written as a front-coded (v2) snapshot and loaded back through the
/// service load path, into a fresh dictionary.
LoadedGraphRef LoadAsV2(const TripleGraph& g, const std::string& name) {
  const std::string path = ScratchPath(name + ".snap");
  EXPECT_TRUE(store::WriteSnapshot(g, path).ok());
  LoadedGraphRef loaded = Load(path);
  std::remove(path.c_str());
  return loaded;
}

/// A URI chain through `uris`, with a literal hanging off each node.
TripleGraph UriGraph(const std::vector<std::string>& uris) {
  GraphBuilder b;
  for (size_t i = 0; i < uris.size(); ++i) {
    if (i + 1 < uris.size()) {
      b.AddUriTriple(uris[i], "http://p/next", uris[i + 1]);
    }
    b.AddLiteralTriple(uris[i], "http://p/label", "label " + uris[i]);
  }
  Result<TripleGraph> g = b.Build();
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(*g);
}

std::vector<std::string> Uris(const std::string& prefix,
                              const std::vector<int>& ids) {
  std::vector<std::string> out;
  for (int id : ids) out.push_back(prefix + std::to_string(1000 + id));
  return out;
}

/// Rebinds `sources` in order into one fresh dictionary and checks the
/// result against the reference: interning each source's referenced terms
/// in ascending source-id order into another fresh dictionary.
void ExpectRebindMatchesIntern(const std::vector<LoadedGraphRef>& sources) {
  auto dict = std::make_shared<Dictionary>();
  Dictionary reference;
  for (size_t s = 0; s < sources.size(); ++s) {
    SCOPED_TRACE("source " + std::to_string(s));
    ASSERT_NE(sources[s], nullptr);
    const TripleGraph& g = sources[s]->graph;
    const TripleGraph rebound = RebindGraph(sources[s], dict);

    std::vector<uint8_t> used(g.dict().size(), 0);
    for (const NodeLabel& l : g.labels()) used[l.lex] = 1;
    std::vector<LexId> remap(g.dict().size(), kInvalidLex);
    for (LexId id = 0; id < g.dict().size(); ++id) {
      if (used[id]) remap[id] = reference.Intern(g.dict().Get(id));
    }
    ASSERT_EQ(rebound.NumNodes(), g.NumNodes());
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      ASSERT_EQ(rebound.KindOf(n), g.KindOf(n)) << "node " << n;
      ASSERT_EQ(rebound.LexicalId(n), remap[g.LexicalId(n)]) << "node " << n;
    }
    EXPECT_TRUE(LabeledGraphsEqual(rebound, g));
  }
  ASSERT_EQ(dict->size(), reference.size());
  for (LexId id = 0; id < dict->size(); ++id) {
    ASSERT_EQ(dict->Get(id), reference.Get(id)) << "id " << id;
  }
}

TEST(RebindJoinTest, IdenticalTermSets) {
  const TripleGraph g = UriGraph(Uris("http://x/", {0, 1, 2, 3, 4, 5}));
  const LoadedGraphRef a = LoadAsV2(g, "a");
  const LoadedGraphRef b = LoadAsV2(g, "b");
  ASSERT_TRUE(a->graph.dict().ascending());
  ExpectRebindMatchesIntern({a, b});
}

TEST(RebindJoinTest, DisjointTermSets) {
  ExpectRebindMatchesIntern(
      {LoadAsV2(UriGraph(Uris("http://b/", {0, 1, 2, 3})), "a"),
       LoadAsV2(UriGraph(Uris("http://a/", {4, 5, 6})), "b")});
  ExpectRebindMatchesIntern(
      {LoadAsV2(UriGraph(Uris("http://a/", {0, 1, 2, 3})), "c"),
       LoadAsV2(UriGraph(Uris("http://b/", {4, 5, 6})), "d")});
}

TEST(RebindJoinTest, InterleavedTermSets) {
  ExpectRebindMatchesIntern(
      {LoadAsV2(UriGraph(Uris("http://x/", {0, 2, 4, 6, 8, 9})), "a"),
       LoadAsV2(UriGraph(Uris("http://x/", {1, 2, 3, 5, 8, 10})), "b")});
  for (uint64_t seed : {3, 11, 29}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto [g1, g2] = rdfalign::testing::RandomEvolvingPair(seed);
    ExpectRebindMatchesIntern({LoadAsV2(g1, "r1"), LoadAsV2(g2, "r2")});
  }
}

TEST(RebindJoinTest, SourceWithUnusedTerms) {
  // An ascending dictionary whose odd entries no node references.
  auto dict = std::make_shared<Dictionary>();
  std::vector<NodeLabel> labels;
  for (int i = 0; i < 12; ++i) {
    const LexId lex = dict->Intern("http://x/" + std::to_string(1000 + i));
    if (i % 2 == 0) labels.push_back(NodeLabel{TermKind::kUri, lex});
  }
  ASSERT_TRUE(dict->ascending());
  auto sparse = std::make_shared<LoadedGraph>();
  Result<TripleGraph> g = TripleGraph::FromParts(
      dict, labels, {Triple{0, 1, 2}, Triple{2, 1, 4}}, true);
  ASSERT_TRUE(g.ok()) << g.status();
  sparse->graph = std::move(*g);
  const LoadedGraphRef other =
      LoadAsV2(UriGraph(Uris("http://x/", {1, 2, 5, 6, 20})), "other");
  ExpectRebindMatchesIntern({other, sparse});
  ExpectRebindMatchesIntern({sparse, other});
}

TEST(RebindJoinTest, V1FilesAndParsedTextFallBackToIntern) {
  const LoadedGraphRef v1_base = Load(DataPath("fixture_base_v1.snap"));
  const LoadedGraphRef v1_next = Load(DataPath("fixture_next_v1.snap"));
  const LoadedGraphRef text_base = Load(DataPath("fixture_base.nt"));
  const LoadedGraphRef text_next = Load(DataPath("fixture_next.nt"));
  ASSERT_NE(text_base, nullptr);
  ASSERT_NE(text_next, nullptr);
  const LoadedGraphRef v2_base = LoadAsV2(text_base->graph, "base");
  const LoadedGraphRef v2_next = LoadAsV2(text_next->graph, "next");
  // Parsed text interns in encounter order: not one ascending run.
  EXPECT_FALSE(text_base->graph.dict().ascending());
  ExpectRebindMatchesIntern({v1_base, v1_next});
  ExpectRebindMatchesIntern({text_base, text_next});
  ExpectRebindMatchesIntern({v2_base, text_next});
  ExpectRebindMatchesIntern({text_base, v2_next});
  ExpectRebindMatchesIntern({v2_base, v1_next});
  ExpectRebindMatchesIntern({v2_base, v2_next});
}

TEST(RebindJoinTest, ThirdRebind) {
  const std::vector<TripleGraph> chain =
      rdfalign::testing::RandomEvolvingChain(17, 3);
  ExpectRebindMatchesIntern({LoadAsV2(chain[0], "c0"),
                             LoadAsV2(chain[1], "c1"),
                             LoadAsV2(chain[2], "c2")});
}

TEST(RebindJoinTest, AlignPathBuildsNoHashIndex) {
  auto [g1, g2] = rdfalign::testing::RandomEvolvingPair(7);
  std::vector<LoadedGraphRef> loaded;
  for (const TripleGraph* g : {&g1, &g2}) {
    const std::string path =
        ScratchPath(std::to_string(loaded.size()) + ".snap");
    ASSERT_TRUE(store::WriteSnapshot(*g, path).ok());
    Result<TripleGraph> got = store::LoadSnapshot(path, nullptr);
    ASSERT_TRUE(got.ok()) << got.status();
    std::remove(path.c_str());
    auto l = std::make_shared<LoadedGraph>();
    l->graph = std::move(*got);
    loaded.push_back(std::move(l));
  }
  auto dict = std::make_shared<Dictionary>();
  const TripleGraph ra = RebindGraph(loaded[0], dict);
  const TripleGraph rb = RebindGraph(loaded[1], dict);
  Result<CombinedGraph> cg = CombinedGraph::Build(ra, rb);
  ASSERT_TRUE(cg.ok()) << cg.status();

  for (const LoadedGraphRef& l : loaded) {
    EXPECT_FALSE(l->graph.dict().index_built());
    EXPECT_FALSE(l->graph.label_index_built());
  }
  EXPECT_FALSE(dict->index_built());
  EXPECT_FALSE(ra.label_index_built());
  EXPECT_FALSE(rb.label_index_built());
  EXPECT_FALSE(cg->graph().label_index_built());

  // The first lookup builds both indexes; in the combined graph the
  // source-side node wins for a label both sides carry.
  const TripleGraph& combined = cg->graph();
  bool checked = false;
  for (NodeId n = 0; n < ra.NumNodes() && !checked; ++n) {
    if (!ra.IsUri(n) || rb.FindUri(ra.Lexical(n)) == kInvalidNode) continue;
    EXPECT_EQ(combined.FindUri(ra.Lexical(n)), n);
    checked = true;
  }
  EXPECT_TRUE(checked) << "the pair shares no URI";
  EXPECT_TRUE(combined.label_index_built());
  EXPECT_TRUE(dict->index_built());
}

TEST(GraphSourceTest, LoadedGraphBytesTermTotalMatchesWalkedSum) {
  const LoadedGraphRef text = Load(DataPath("fixture_base.nt"));
  ASSERT_NE(text, nullptr);
  const std::vector<LoadedGraphRef> sources = {
      text, Load(DataPath("fixture_base_v1.snap")),
      LoadAsV2(text->graph, "v2")};
  auto shared = std::make_shared<Dictionary>();
  for (const LoadedGraphRef& src : sources) {
    ASSERT_NE(src, nullptr);
    const TripleGraph rebound = RebindGraph(src, shared);
    for (const TripleGraph* g : {&src->graph, &rebound}) {
      uint64_t walked = 0;
      for (LexId id = 0; id < g->dict().size(); ++id) {
        walked += g->dict().Get(id).size();
      }
      EXPECT_EQ(g->dict().term_bytes(), walked);
      const uint64_t expected =
          g->labels().size() * sizeof(NodeLabel) +
          g->triples().size() * sizeof(Triple) +
          g->OutOffsets().size() * sizeof(uint64_t) +
          g->OutPairs().size() * sizeof(PredicateObject) +
          g->InOffsets().size() * sizeof(uint64_t) +
          g->InSubjects().size() * sizeof(NodeId) + walked +
          g->dict().size() * 48 + g->NumNodes() * 24;
      EXPECT_EQ(LoadedGraphBytes(*g), expected);
    }
    EXPECT_EQ(src->resident_bytes, LoadedGraphBytes(src->graph));
  }
}

// Several threads race the first Find / Find* calls on one shared const
// graph, the way concurrent daemon requests read a cached entry.
TEST(DictionaryParallel, LazyIndex) {
  rdfalign::testing::RandomGraphOptions opt;
  opt.uris = 400;
  opt.literals = 300;
  opt.blanks = 50;
  opt.edges = 3000;
  opt.seed = 5;
  const LoadedGraphRef cached =
      LoadAsV2(rdfalign::testing::RandomGraph(opt), "cached");
  ASSERT_NE(cached, nullptr);
  const TripleGraph& g = cached->graph;
  ASSERT_FALSE(g.dict().index_built());
  ASSERT_FALSE(g.label_index_built());

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // Each thread walks the nodes from a different start.
      for (NodeId k = 0; k < g.NumNodes(); ++k) {
        const NodeId n = static_cast<NodeId>(
            (k + static_cast<NodeId>(t) * 97) % g.NumNodes());
        const std::string_view lex = g.Lexical(n);
        NodeId found = kInvalidNode;
        switch (g.KindOf(n)) {
          case TermKind::kUri:
            found = g.FindUri(lex);
            break;
          case TermKind::kLiteral:
            found = g.FindLiteral(lex);
            break;
          case TermKind::kBlank:
            found = g.FindBlank(lex);
            break;
        }
        if (found != n || g.dict().Find(lex) != g.LexicalId(n)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_TRUE(g.dict().index_built());
  EXPECT_TRUE(g.label_index_built());
}

}  // namespace
}  // namespace rdfalign::service

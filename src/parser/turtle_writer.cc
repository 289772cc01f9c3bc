#include "parser/turtle_writer.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "store/atomic_writer.h"
#include "util/string_util.h"

namespace rdfalign {

namespace {

/// A Turtle "PN_LOCAL"-safe local name (conservative: alphanumerics, '_',
/// '-', '.').
bool IsSafeLocalName(std::string_view s) {
  if (s.empty() || s.back() == '.') return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-' && c != '.') {
      return false;
    }
  }
  return true;
}

/// The stem of an IRI: everything up to and including the last '/' or '#'.
std::string_view IriStem(std::string_view iri) {
  size_t pos = iri.find_last_of("/#");
  if (pos == std::string_view::npos || pos + 1 >= iri.size()) return {};
  return iri.substr(0, pos + 1);
}

class PrefixTable {
 public:
  PrefixTable(const TripleGraph& g, const TurtleWriteOptions& options) {
    if (!options.prefixes.empty()) {
      for (const auto& [name, iri] : options.prefixes) {
        by_stem_.emplace(iri, name);
      }
      return;
    }
    // Infer: count IRI stems; frequent ones get p0, p1, ... names.
    std::unordered_map<std::string, size_t> counts;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (!g.IsUri(n)) continue;
      std::string_view stem = IriStem(g.Lexical(n));
      if (stem.empty()) continue;
      if (!IsSafeLocalName(g.Lexical(n).substr(stem.size()))) continue;
      ++counts[std::string(stem)];
    }
    std::vector<std::pair<std::string, size_t>> frequent(counts.begin(),
                                                         counts.end());
    std::sort(frequent.begin(), frequent.end(), [](auto& a, auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    size_t index = 0;
    for (const auto& [stem, count] : frequent) {
      if (count < options.min_prefix_uses) break;
      by_stem_.emplace(stem, "p" + std::to_string(index++));
    }
  }

  /// Prefixed form of an IRI, or empty when no prefix applies.
  std::string Compress(std::string_view iri) const {
    std::string_view stem = IriStem(iri);
    if (stem.empty()) return {};
    auto it = by_stem_.find(std::string(stem));
    if (it == by_stem_.end()) return {};
    std::string_view local = iri.substr(stem.size());
    if (!IsSafeLocalName(local)) return {};
    return it->second + ":" + std::string(local);
  }

  /// name -> IRI pairs, sorted by name (deterministic header).
  std::vector<std::pair<std::string, std::string>> Entries() const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [stem, name] : by_stem_) {
      out.emplace_back(name, stem);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::unordered_map<std::string, std::string> by_stem_;
};

void WriteTerm(const TripleGraph& g, NodeId n, const PrefixTable& prefixes,
               std::ostream& out, bool as_predicate = false) {
  switch (g.KindOf(n)) {
    case TermKind::kUri: {
      // The 'a' abbreviation is only grammatical in predicate position; a
      // graph can also carry rdf:type as a subject or object (schema
      // introspection), which must stay a full IRI to round-trip.
      if (as_predicate &&
          g.Lexical(n) ==
              "http://www.w3.org/1999/02/22-rdf-syntax-ns#type") {
        out << "a";
        return;
      }
      std::string compressed = prefixes.Compress(g.Lexical(n));
      if (!compressed.empty()) {
        out << compressed;
      } else {
        out << '<' << EscapeNTriplesString(g.Lexical(n)) << '>';
      }
      break;
    }
    case TermKind::kLiteral:
      out << '"' << EscapeNTriplesString(g.Lexical(n)) << '"';
      break;
    case TermKind::kBlank:
      out << "_:" << g.Lexical(n);
      break;
  }
}

}  // namespace

Status WriteTurtle(const TripleGraph& g, std::ostream& out,
                   const TurtleWriteOptions& options) {
  PrefixTable prefixes(g, options);
  for (const auto& [name, iri] : prefixes.Entries()) {
    out << "@prefix " << name << ": <" << EscapeNTriplesString(iri)
        << "> .\n";
  }
  if (!prefixes.Entries().empty()) out << "\n";

  // triples() is sorted by (s, p, o): group by subject, then predicate.
  const auto& triples = g.triples();
  size_t i = 0;
  while (i < triples.size()) {
    const NodeId subject = triples[i].s;
    WriteTerm(g, subject, prefixes, out);
    out << " ";
    bool first_predicate = true;
    while (i < triples.size() && triples[i].s == subject) {
      const NodeId predicate = triples[i].p;
      if (!first_predicate) {
        out << " ;\n    ";
      }
      first_predicate = false;
      WriteTerm(g, predicate, prefixes, out, /*as_predicate=*/true);
      out << " ";
      bool first_object = true;
      while (i < triples.size() && triples[i].s == subject &&
             triples[i].p == predicate) {
        if (!first_object) out << ", ";
        first_object = false;
        WriteTerm(g, triples[i].o, prefixes, out);
        ++i;
      }
    }
    out << " .\n";
  }
  if (!out) {
    return Status::IOError("stream error while writing Turtle");
  }
  return Status::OK();
}

std::string TurtleToString(const TripleGraph& g,
                           const TurtleWriteOptions& options) {
  std::ostringstream out;
  WriteTurtle(g, out, options).ok();
  return out.str();
}

Status WriteTurtleFile(const TripleGraph& g, const std::string& path,
                       const TurtleWriteOptions& options) {
  return store::AtomicWriteStream(path, "Turtle", [&](std::ostream& out) {
    return WriteTurtle(g, out, options);
  });
}

}  // namespace rdfalign

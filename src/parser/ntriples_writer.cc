#include "parser/ntriples_writer.h"

#include <sstream>

#include "store/atomic_writer.h"
#include "util/string_util.h"

namespace rdfalign {

namespace {

void WriteTerm(const TripleGraph& g, NodeId n, std::ostream& out) {
  switch (g.KindOf(n)) {
    case TermKind::kUri:
      out << '<' << EscapeNTriplesString(g.Lexical(n)) << '>';
      break;
    case TermKind::kLiteral:
      out << '"' << EscapeNTriplesString(g.Lexical(n)) << '"';
      break;
    case TermKind::kBlank:
      out << "_:" << g.Lexical(n);
      break;
  }
}

}  // namespace

Status WriteNTriples(const TripleGraph& g, std::ostream& out) {
  for (const Triple& t : g.triples()) {
    WriteTerm(g, t.s, out);
    out << ' ';
    WriteTerm(g, t.p, out);
    out << ' ';
    WriteTerm(g, t.o, out);
    out << " .\n";
  }
  if (!out) {
    return Status::IOError("stream error while writing N-Triples");
  }
  return Status::OK();
}

std::string NTriplesToString(const TripleGraph& g) {
  std::ostringstream out;
  WriteNTriples(g, out).ok();
  return out.str();
}

Status WriteNTriplesFile(const TripleGraph& g, const std::string& path) {
  return store::AtomicWriteStream(path, "N-Triples", [&](std::ostream& out) {
    return WriteNTriples(g, out);
  });
}

}  // namespace rdfalign

#include "ccbt/graph/edge_list.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <system_error>

#include "ccbt/util/error.hpp"

namespace ccbt {

EdgeList simplify(EdgeList list) {
  auto& edges = list.edges;
  for (auto& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.u == e.v; }),
              edges.end());
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return list;
}

namespace {

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

const char* skip_blanks(const char* p, const char* end) {
  while (p < end && is_blank(*p)) ++p;
  return p;
}

/// Parse one vertex id at `p` (leading blanks skipped): unsigned decimal
/// digits only — no sign — and below kNoVertex, so no id is truncated
/// into VertexId or collides with the sentinel.
VertexId parse_id(const char*& p, const char* end, const std::string& line) {
  p = skip_blanks(p, end);
  std::uint64_t id = 0;
  const auto [next, ec] = std::from_chars(p, end, id);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc{} && id >= kNoVertex)) {
    throw Error("edge list: vertex id out of range: " + line);
  }
  if (ec != std::errc{}) throw Error("edge list: malformed line: " + line);
  p = next;
  return static_cast<VertexId>(id);
}

}  // namespace

EdgeList read_edge_list(std::istream& in) {
  EdgeList list;
  std::string line;
  while (std::getline(in, line)) {
    const char* p = line.data();
    const char* const end = p + line.size();
    if (skip_blanks(p, end) == end || line[0] == '#') continue;
    const VertexId u = parse_id(p, end, line);
    const VertexId v = parse_id(p, end, line);
    if (skip_blanks(p, end) != end) {
      throw Error("edge list: trailing characters: " + line);
    }
    list.add(u, v);
  }
  return list;
}

EdgeList read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("edge list: cannot open " + path);
  return read_edge_list(in);
}

void write_edge_list(std::ostream& out, const EdgeList& list) {
  out << "# ccbt edge list: " << list.num_vertices << " vertices, "
      << list.edges.size() << " edges\n";
  for (const Edge& e : list.edges) out << e.u << ' ' << e.v << '\n';
}

}  // namespace ccbt

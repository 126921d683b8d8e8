#pragma once
// Edge lists: the exchange format between generators, I/O and CSR building.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/graph/types.hpp"

namespace ccbt {

struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// A bag of undirected edges plus a vertex-count upper bound.
struct EdgeList {
  std::vector<Edge> edges;
  VertexId num_vertices = 0;

  void add(VertexId u, VertexId v) {
    edges.push_back({u, v});
    if (u >= num_vertices) num_vertices = u + 1;
    if (v >= num_vertices) num_vertices = v + 1;
  }

  std::size_t size() const { return edges.size(); }
};

/// Canonicalize: drop self loops, order endpoints (u < v), sort, dedupe.
EdgeList simplify(EdgeList list);

/// Text format: one "u v" pair per line; '#' starts a comment line and
/// blank lines are skipped. Ids are unsigned decimals below kNoVertex;
/// a sign, an out-of-range id or anything but blanks after the pair
/// throws Error.
EdgeList read_edge_list(std::istream& in);
EdgeList read_edge_list_file(const std::string& path);
void write_edge_list(std::ostream& out, const EdgeList& list);

}  // namespace ccbt

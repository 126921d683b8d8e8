#pragma once
// Graph persistence.
//
// Two formats round-trip a CsrGraph:
//   * SNAP-style text — one "u v" pair per line, '#' comments — the format
//     of the paper's datasets (http://snap.stanford.edu), so a user can
//     drop in the original graphs where available;
//   * a binary CSR snapshot (magic + version + offsets + adjacency) for
//     fast reload of large generated workloads between bench runs.

#include <string>

#include "ccbt/graph/csr_graph.hpp"

namespace ccbt {

/// Write a SNAP-style text edge list (canonical u < v, sorted).
void save_graph_text(const CsrGraph& g, const std::string& path);

/// Load a SNAP-style text edge list (self loops and duplicates dropped).
CsrGraph load_graph_text(const std::string& path);

/// Write the binary CSR snapshot.
void save_graph_binary(const CsrGraph& g, const std::string& path);

/// Load a binary CSR snapshot; throws Error on bad magic, version, a
/// truncated file, an edge count the file cannot hold, or an endpoint
/// outside the declared vertex count.
CsrGraph load_graph_binary(const std::string& path);

}  // namespace ccbt

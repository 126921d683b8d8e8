#include "ccbt/graph/io.hpp"

#include <cstdint>
#include <fstream>
#include <vector>

#include "ccbt/graph/edge_list.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

namespace {

constexpr std::uint32_t kMagic = 0x43434254;  // "CCBT"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw Error("load_graph_binary: truncated file");
  return value;
}

}  // namespace

void save_graph_text(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("save_graph_text: cannot open " + path);
  out << "# ccbt graph: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  write_edge_list(out, g.to_edges());
  if (!out) throw Error("save_graph_text: write failed for " + path);
}

CsrGraph load_graph_text(const std::string& path) {
  return CsrGraph::from_edges(read_edge_list_file(path));
}

void save_graph_binary(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("save_graph_binary: cannot open " + path);
  write_pod(out, kMagic);
  write_pod(out, kVersion);
  write_pod(out, g.num_vertices());
  const EdgeList edges = g.to_edges();
  write_pod(out, static_cast<std::uint64_t>(edges.size()));
  for (const Edge& e : edges.edges) {
    write_pod(out, e.u);
    write_pod(out, e.v);
  }
  if (!out) throw Error("save_graph_binary: write failed for " + path);
}

CsrGraph load_graph_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("load_graph_binary: cannot open " + path);
  if (read_pod<std::uint32_t>(in) != kMagic) {
    throw Error("load_graph_binary: bad magic in " + path);
  }
  if (read_pod<std::uint32_t>(in) != kVersion) {
    throw Error("load_graph_binary: unsupported version in " + path);
  }
  EdgeList list;
  list.num_vertices = read_pod<VertexId>(in);
  const auto m = read_pod<std::uint64_t>(in);
  // Check the declared edge count against the bytes actually present
  // before reserving for it.
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  const auto remaining = static_cast<std::uint64_t>(in.tellg() - body);
  in.seekg(body);
  constexpr std::uint64_t kEdgeBytes = 2 * sizeof(VertexId);
  if (m > remaining / kEdgeBytes) {
    throw Error("load_graph_binary: edge count exceeds file length in " +
                path);
  }
  list.edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto u = read_pod<VertexId>(in);
    const auto v = read_pod<VertexId>(in);
    if (u >= list.num_vertices || v >= list.num_vertices) {
      throw Error("load_graph_binary: endpoint out of range in " + path);
    }
    list.edges.push_back({u, v});
  }
  return CsrGraph::from_edges(list);
}

}  // namespace ccbt

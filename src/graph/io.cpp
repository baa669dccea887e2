#include "graph/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/error.hpp"

namespace rsets {
namespace {

// One parsed data line: two unsigned decimal fields, 1-based source line
// number kept for diagnostics.
struct RawPair {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::size_t line = 0;
};

std::uint64_t parse_field(const std::string& token, std::size_t line,
                          const std::string& text) {
  // strtoull accepts a leading '-' (wrapping the value) and partial
  // prefixes; both are malformed input here, not vertex ids.
  if (token.empty() || token[0] == '-' || token[0] == '+') {
    throw Error(ErrorCode::kMalformedLine,
                "line " + std::to_string(line) + ": '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    throw Error(ErrorCode::kMalformedLine,
                "line " + std::to_string(line) + ": '" + text + "'");
  }
  if (errno == ERANGE) {
    throw Error(ErrorCode::kVertexIdOverflow,
                "line " + std::to_string(line) + ": value out of range");
  }
  return v;
}

void check_fits_vertex_id(std::uint64_t v, std::size_t line) {
  if (v > std::numeric_limits<VertexId>::max()) {
    throw Error(ErrorCode::kVertexIdOverflow,
                "line " + std::to_string(line) + ": id " + std::to_string(v) +
                    " does not fit a 32-bit vertex id");
  }
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::vector<RawPair> pairs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Tolerate CRLF files: the '\r' is line framing, not data.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#' || line[start] == '%')
      continue;
    std::istringstream ls(line);
    std::string ta, tb, extra;
    if (!(ls >> ta >> tb) || (ls >> extra)) {
      throw Error(ErrorCode::kMalformedLine,
                  "line " + std::to_string(lineno) + ": '" + line + "'");
    }
    RawPair p;
    p.a = parse_field(ta, lineno, line);
    p.b = parse_field(tb, lineno, line);
    p.line = lineno;
    pairs.push_back(p);
  }
  if (in.bad()) {
    throw Error(ErrorCode::kIoFailure, "stream error while reading edge list");
  }

  // Header detection. A first line whose first value is at least every id on
  // the remaining lines is read as a header "n m" when its second value
  // matches the remaining line count — and as a *truncated* file when it
  // promises more edges than follow. Equality is deliberately included: a
  // file declaring n while an edge touches vertex n is far more likely a
  // corrupt header than a heroic coincidence, and the id >= n check below
  // rejects it loudly instead of silently inferring a larger graph.
  // (Single-line inputs are always one edge.)
  bool have_header = false;
  std::uint64_t n64 = 0;
  std::size_t first_edge = 0;
  if (pairs.size() >= 2) {
    std::uint64_t max_rest = 0;
    for (std::size_t i = 1; i < pairs.size(); ++i) {
      max_rest = std::max({max_rest, pairs[i].a, pairs[i].b});
    }
    const std::uint64_t declared_m = pairs[0].b;
    const std::uint64_t remaining = pairs.size() - 1;
    if (pairs[0].a >= max_rest) {
      if (declared_m == remaining) {
        have_header = true;
        n64 = pairs[0].a;
        first_edge = 1;
      } else if (declared_m > remaining) {
        throw Error(ErrorCode::kTruncatedInput,
                    "header declares " + std::to_string(declared_m) +
                        " edges but only " + std::to_string(remaining) +
                        " follow");
      }
    }
  }
  if (have_header) {
    check_fits_vertex_id(n64, pairs[0].line);
  } else {
    for (const RawPair& p : pairs) {
      n64 = std::max({n64, p.a + 1, p.b + 1});
    }
    if (!pairs.empty()) check_fits_vertex_id(n64, pairs.back().line);
  }
  if (n64 > kMaxTextVertices) {
    throw Error(ErrorCode::kVertexIdOverflow,
                "edge list declares n = " + std::to_string(n64) +
                    " vertices, above the text-input cap of " +
                    std::to_string(kMaxTextVertices));
  }

  std::vector<Edge> edges;
  edges.reserve(pairs.size() - first_edge);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(pairs.size());
  for (std::size_t i = first_edge; i < pairs.size(); ++i) {
    const RawPair& p = pairs[i];
    check_fits_vertex_id(p.a, p.line);
    check_fits_vertex_id(p.b, p.line);
    if (have_header && (p.a >= n64 || p.b >= n64)) {
      throw Error(ErrorCode::kVertexIdOverflow,
                  "line " + std::to_string(p.line) + ": id " +
                      std::to_string(std::max(p.a, p.b)) +
                      " >= declared n = " + std::to_string(n64));
    }
    if (p.a == p.b) {
      throw Error(ErrorCode::kSelfLoop,
                  "line " + std::to_string(p.line) + ": self-loop at vertex " +
                      std::to_string(p.a));
    }
    const std::uint64_t key =
        (std::min(p.a, p.b) << 32) | std::max(p.a, p.b);
    if (!seen.insert(key).second) {
      throw Error(ErrorCode::kDuplicateEdge,
                  "line " + std::to_string(p.line) + ": edge " +
                      std::to_string(p.a) + " " + std::to_string(p.b) +
                      " listed twice");
    }
    edges.push_back(
        {static_cast<VertexId>(p.a), static_cast<VertexId>(p.b)});
  }
  return Graph::from_edges(static_cast<VertexId>(n64), edges);
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error(ErrorCode::kIoFailure,
                "read_edge_list_file: cannot open " + path);
  }
  return read_edge_list(in);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

bool write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_edge_list(g, out);
  return static_cast<bool>(out);
}

}  // namespace rsets

// Edge-list I/O.
//
// Format: optional comment lines starting with '#' or '%', then an optional
// header line "n m", then one "u v" pair per line. Vertices are 0-based.
// If no header is present, n is inferred as max id + 1.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace rsets {

// Largest vertex count a text edge list may declare (header n) or imply
// (max id + 1): 2^24 = 16 777 216, whose CSR offsets alone take 128 MiB. A
// header line is a dozen bytes but costs O(n) memory to build, so a larger
// n is rejected with Error(kVertexIdOverflow) before anything is allocated.
// Larger graphs come from the sharded generators (graph/shard/), which
// never materialize a text file.
inline constexpr std::uint64_t kMaxTextVertices = std::uint64_t{1} << 24;

// Throws rsets::Error (kMalformedLine, kTruncatedInput, kVertexIdOverflow,
// kSelfLoop, kDuplicateEdge) on malformed input.
Graph read_edge_list(std::istream& in);
Graph read_edge_list_file(const std::string& path);

void write_edge_list(const Graph& g, std::ostream& out);
bool write_edge_list_file(const Graph& g, const std::string& path);

}  // namespace rsets

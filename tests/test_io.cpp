#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "util/error.hpp"

namespace rsets {
namespace {

// Runs the parser on `text` and returns the structured error code it threw.
ErrorCode code_of(const std::string& text) {
  std::istringstream in(text);
  try {
    read_edge_list(in);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "no rsets::Error thrown for: " << text;
  return ErrorCode::kIoFailure;
}

TEST(Io, RoundTrip) {
  const Graph g = gen::gnp(200, 0.05, 9);
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph h = read_edge_list(buffer);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.edges(), g.edges());
}

TEST(Io, ReadsHeaderlessList) {
  std::istringstream in("0 1\n1 2\n2 3\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Io, SkipsComments) {
  std::istringstream in("# comment\n% other comment\n0 1\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Io, HeaderPreservesIsolatedTailVertices) {
  // 10 vertices but edges touch only 0..2; header keeps n = 10.
  std::istringstream in("10 2\n0 1\n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Io, MalformedLineThrows) {
  std::istringstream in("0 1\nbogus\n");
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

TEST(Io, ErrorTaxonomy) {
  // One token, three tokens, non-numeric, or signed fields: malformed.
  EXPECT_EQ(code_of("0 1\nbogus\n"), ErrorCode::kMalformedLine);
  EXPECT_EQ(code_of("0 1 2\n"), ErrorCode::kMalformedLine);
  EXPECT_EQ(code_of("0 x\n"), ErrorCode::kMalformedLine);
  EXPECT_EQ(code_of("-1 2\n"), ErrorCode::kMalformedLine);
  // Header declares more edges than the file contains.
  EXPECT_EQ(code_of("10 5\n0 1\n1 2\n"), ErrorCode::kTruncatedInput);
  // Vertex ids must fit uint32 and, under a header, stay below n.
  EXPECT_EQ(code_of("0 99999999999\n"), ErrorCode::kVertexIdOverflow);
  EXPECT_EQ(code_of("5 2\n0 1\n1 5\n"), ErrorCode::kVertexIdOverflow);
  EXPECT_EQ(code_of("3 3\n"), ErrorCode::kSelfLoop);
  EXPECT_EQ(code_of("0 1\n1 0\n"), ErrorCode::kDuplicateEdge);
}

TEST(Io, VertexCountAboveTextCapIsRejectedBeforeAllocating) {
  // A single line is an edge, so "4294967295 0" implies n = 2^32, which no
  // vertex id holds. The others fit a vertex id; without the cap they reach
  // Graph::from_edges, whose O(n) allocation escapes as std::bad_alloc.
  EXPECT_EQ(code_of("4294967295 0"), ErrorCode::kVertexIdOverflow);
  EXPECT_EQ(code_of("4294967294 0\n"), ErrorCode::kVertexIdOverflow);
  EXPECT_EQ(code_of("4294967295 1\n0 1\n"), ErrorCode::kVertexIdOverflow);
  const std::string over = std::to_string(kMaxTextVertices + 1);
  EXPECT_EQ(code_of(over + " 1\n0 1\n"), ErrorCode::kVertexIdOverflow);
  EXPECT_EQ(code_of("0 " + std::to_string(kMaxTextVertices) + "\n"),
            ErrorCode::kVertexIdOverflow);
  std::istringstream in("1000 1\n0 1\n");
  EXPECT_EQ(read_edge_list(in).num_vertices(), 1000u);
}

TEST(Io, CrlfLineEndingsAreAccepted) {
  std::istringstream in("# dos file\r\n4 2\r\n0 1\r\n2 3\r\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Io, BlankLinesAreSkipped) {
  std::istringstream in("0 1\n\n \n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Io, SingleLineIsAnEdgeNotAHeader) {
  // "7 1" alone cannot be a header (it would declare one edge and none
  // follow); it is the edge {1, 7}.
  std::istringstream in("7 1\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Io, MissingFileErrorCode) {
  try {
    read_edge_list_file("/nonexistent/path/graph.txt");
    FAIL() << "expected rsets::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoFailure);
  }
}

TEST(Io, EmptyInput) {
  std::istringstream in("");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 0u);
}

TEST(Io, FileRoundTrip) {
  const Graph g = gen::cycle(50);
  const std::string path = testing::TempDir() + "/rsets_io_test.txt";
  ASSERT_TRUE(write_edge_list_file(g, path));
  const Graph h = read_edge_list_file(path);
  EXPECT_EQ(h.edges(), g.edges());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace rsets

#include "graph/shard/shard_csr.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "graph/csr_build.hpp"
#include "util/error.hpp"

namespace rsets::shard {
namespace {

// Adapts a build_csr consumer to the shard stream's virtual sink.
template <typename Consume>
struct ConsumeSink final : EdgeSink {
  explicit ConsumeSink(const Consume& c) : consume_batch(c) {}
  void consume(std::span<const Edge> batch) override { consume_batch(batch); }
  const Consume& consume_batch;
};

// Evicts the spill mapping's dirty pages every `stride` processed edges
// (scatter) or arcs (compaction), bounding the build's page footprint.
struct SpillEvict {
  ShardSpill* spill;
  std::uint64_t stride;
  std::uint64_t since_evict = 0;

  void scattered(std::uint64_t edges) {
    since_evict += edges;
    if (since_evict >= stride) {
      spill->evict_all();
      since_evict = 0;
    }
  }
  void compacted(std::uint64_t arcs, std::uint64_t final_words) {
    since_evict += arcs;
    if (since_evict >= stride) {
      // Everything below the write head is final; evict it.
      spill->evict(0, final_words * sizeof(VertexId));
      since_evict = 0;
    }
  }
};

}  // namespace

void validate_spill_dir(const std::string& dir) {
  if (dir.empty()) {
    throw Error(ErrorCode::kBadFlag, "--spill-dir: empty path");
  }
  std::string probe = dir + "/rsets-spill-probe-XXXXXX";
  std::vector<char> buf(probe.begin(), probe.end());
  buf.push_back('\0');
  const int fd = mkstemp(buf.data());
  if (fd < 0) {
    throw Error(ErrorCode::kBadFlag,
                "--spill-dir: '" + dir +
                    "' is not a writable directory (cannot create files "
                    "there)");
  }
  close(fd);
  unlink(buf.data());
}

ShardCsr build_shard_csr(const ShardedSource& src,
                         const IngestOptions& options) {
  const VertexId n = src.num_vertices();
  const std::uint32_t shards = src.num_shards();

  ShardCsr csr;
  csr.n_ = n;
  csr.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  if (n == 0) {
    csr.adj_ = csr.adj_ram_.data();
    return csr;
  }

  const auto stream = [&](const auto& consume) {
    ConsumeSink sink(consume);
    for (std::uint32_t s = 0; s < shards; ++s) src.stream_shard(s, sink);
  };
  const auto keep = [n](const Edge& e) {
    if (e.u >= n || e.v >= n) {
      throw Error(ErrorCode::kVertexIdOverflow,
                  "sharded stream emitted endpoint " +
                      std::to_string(std::max(e.u, e.v)) + " >= n=" +
                      std::to_string(n));
    }
    return e.u != e.v;  // self-loops dropped, like Graph::from_edges
  };
  // Adjacency storage: RAM vector or memory-mapped spill.
  const bool spilled = !options.spill_dir.empty();
  const auto allocate = [&](std::uint64_t raw_words) {
    if (spilled) {
      csr.spill_ = ShardSpill::create(options.spill_dir,
                                      raw_words * sizeof(VertexId));
      csr.adj_ = static_cast<VertexId*>(csr.spill_.data());
    } else {
      csr.adj_ram_.resize(raw_words);
      csr.adj_ = csr.adj_ram_.data();
    }
    return csr.adj_;
  };
  const std::uint64_t stride =
      std::max<std::uint64_t>(options.evict_stride_edges, 1);
  const std::uint64_t w =
      spilled ? detail::build_csr(n, stream, keep, csr.offsets_, allocate,
                                  SpillEvict{&csr.spill_, stride})
              : detail::build_csr(n, stream, keep, csr.offsets_, allocate);
  csr.half_edges_ = w / 2;

  // Shrink to the deduped size and drop build-time pages from RSS.
  if (spilled) {
    csr.spill_.resize(w * sizeof(VertexId));
    csr.adj_ = static_cast<VertexId*>(csr.spill_.data());
    csr.spill_.evict_all();
  } else {
    csr.adj_ram_.resize(w);
    csr.adj_ram_.shrink_to_fit();
    csr.adj_ = csr.adj_ram_.data();
  }
  return csr;
}

}  // namespace rsets::shard

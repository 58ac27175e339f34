#include "graph/graph_builder.h"

#include <algorithm>

#include "engine/thread_pool.h"
#include "util/timer.h"

namespace pathest {

LabelId GraphBuilder::AddLabel(const std::string& name) {
  return labels_.Intern(name);
}

void GraphBuilder::AddEdge(VertexId src, LabelId label, VertexId dst) {
  PATHEST_CHECK(label < labels_.size(), "AddEdge with un-interned label");
  edges_.push_back(Edge{src, label, dst});
  size_t needed = static_cast<size_t>(std::max(src, dst)) + 1;
  if (needed > num_vertices_) num_vertices_ = needed;
}

void GraphBuilder::AddEdge(VertexId src, const std::string& label,
                           VertexId dst) {
  AddEdge(src, labels_.Intern(label), dst);
}

void GraphBuilder::SetNumVertices(size_t n) {
  if (n > num_vertices_) num_vertices_ = n;
}

void GraphBuilder::Adopt(LabelDictionary labels, std::vector<Edge> edges,
                         size_t num_vertices) {
  for (const Edge& e : edges) {
    PATHEST_CHECK(e.label < labels.size(), "Adopt with invalid label id");
    PATHEST_CHECK(e.src < num_vertices && e.dst < num_vertices,
                  "Adopt with endpoint outside the vertex range");
  }
  labels_ = std::move(labels);
  edges_ = std::move(edges);
  num_vertices_ = num_vertices;
}

namespace {

// Prefix-sum degree table per label; `get_src` selects the endpoint that
// indexes the CSR, so the same code builds forward and reverse structures.
// (BuildReference only — the counting-sort path computes per-label tables
// inside each label's task instead of |L| tables at once.)
template <typename GetSrc>
std::vector<std::vector<uint64_t>> CountDegrees(const std::vector<Edge>& edges,
                                                size_t num_labels,
                                                size_t num_vertices,
                                                GetSrc get_src) {
  std::vector<std::vector<uint64_t>> offsets(
      num_labels, std::vector<uint64_t>(num_vertices + 1, 0));
  for (const Edge& e : edges) {
    ++offsets[e.label][get_src(e) + 1];
  }
  for (auto& row : offsets) {
    for (size_t v = 1; v <= num_vertices; ++v) row[v] += row[v - 1];
  }
  return offsets;
}

// One label's slice of the label-partitioned edge list.
struct SrcDst {
  VertexId src;
  VertexId dst;
};

// Counting sort by src, then sort + dedup each (src) bucket in place and
// compact into the final CSR. The result equals the corresponding slice of
// a globally (label, src, dst)-sorted, deduplicated edge list — which is
// how the counting-sort build stays bit-identical to BuildReference.
void BuildLabelCsr(const SrcDst* edges, size_t n, size_t num_vertices,
                   std::vector<uint64_t>* offsets,
                   std::vector<VertexId>* targets) {
  std::vector<uint64_t> bucket(num_vertices + 1, 0);
  for (size_t i = 0; i < n; ++i) ++bucket[edges[i].src + 1];
  for (size_t v = 0; v < num_vertices; ++v) bucket[v + 1] += bucket[v];
  std::vector<VertexId> tmp(n);
  {
    std::vector<uint64_t> cursor(bucket.begin(), bucket.end() - 1);
    for (size_t i = 0; i < n; ++i) tmp[cursor[edges[i].src]++] = edges[i].dst;
  }
  offsets->assign(num_vertices + 1, 0);
  size_t w = 0;  // write cursor; w <= read position always, so compaction
                 // never clobbers unread bucket entries
  for (size_t v = 0; v < num_vertices; ++v) {
    const size_t b = bucket[v];
    const size_t e = bucket[v + 1];
    std::sort(tmp.begin() + b, tmp.begin() + e);
    VertexId prev = 0;
    bool first = true;
    for (size_t j = b; j < e; ++j) {
      const VertexId x = tmp[j];
      if (first || x != prev) {
        tmp[w++] = x;
        prev = x;
        first = false;
      }
    }
    (*offsets)[v + 1] = w;
  }
  targets->assign(tmp.begin(), tmp.begin() + w);
}

}  // namespace

Result<Graph> GraphBuilder::Build(const GraphBuildOptions& options,
                                  GraphBuildStats* stats_out) {
  if (labels_.size() == 0 && !edges_.empty()) {
    return Status::InvalidArgument("edges present but no labels interned");
  }
  Timer total_timer;
  Timer phase;
  GraphBuildStats stats;
  const size_t num_labels = labels_.size();
  const size_t num_vertices = num_vertices_;

  size_t threads = options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                            : options.num_threads;
  if (edges_.size() < kParallelBuildMinEdges) threads = 1;
  ThreadPool pool(threads);
  stats.num_threads = threads;

  Graph g;
  g.num_vertices_ = num_vertices;
  g.labels_ = labels_;
  g.forward_.resize(num_labels);

  // Phase 1 — counting-sort partition by label (pass one of the (label,
  // src) key): one O(|L|) count + prefix, one O(E) scatter. Scatter order
  // within a label is irrelevant: each (src) bucket is sorted and
  // deduplicated below, so the partition needs no stability.
  std::vector<uint64_t> label_base(num_labels + 1, 0);
  for (const Edge& e : edges_) ++label_base[e.label + 1];
  for (size_t l = 0; l < num_labels; ++l) label_base[l + 1] += label_base[l];
  std::vector<SrcDst> part(edges_.size());
  {
    std::vector<uint64_t> cursor(label_base.begin(), label_base.end() - 1);
    for (const Edge& e : edges_) part[cursor[e.label]++] = {e.src, e.dst};
  }
  stats.partition_ms = phase.ElapsedMillis();

  // Phase 2 — per-label forward CSRs, one independent task per label:
  // counting sort by src, sort + dedup only within each (label, src)
  // bucket. Disjoint writes per label, so the fan-out is deterministic by
  // construction.
  phase.Reset();
  pool.ParallelFor(num_labels, [&](size_t l, size_t) {
    BuildLabelCsr(part.data() + label_base[l],
                  label_base[l + 1] - label_base[l], num_vertices,
                  &g.forward_[l].offsets, &g.forward_[l].targets);
  });
  uint64_t total_edges = 0;
  for (const Graph::Csr& csr : g.forward_) total_edges += csr.targets.size();
  g.num_edges_ = total_edges;
  stats.csr_ms = phase.ElapsedMillis();

  // Phase 3 — vertex-major, label-segmented adjacency: count segments and
  // out-degree per vertex (parallel over vertex ranges), prefix-sum both,
  // then fill each vertex's disjoint directory/target slice in parallel.
  phase.Reset();
  constexpr size_t kVertexChunk = 4096;
  const size_t num_chunks = (num_vertices + kVertexChunk - 1) / kVertexChunk;
  g.vm_seg_offsets_.assign(num_vertices + 1, 0);
  std::vector<uint64_t> vtx_tgt_base(num_vertices + 1, 0);
  pool.ParallelFor(num_chunks, [&](size_t c, size_t) {
    const size_t begin = c * kVertexChunk;
    const size_t end = std::min(num_vertices, begin + kVertexChunk);
    for (size_t v = begin; v < end; ++v) {
      uint64_t segs = 0;
      uint64_t deg = 0;
      for (size_t l = 0; l < num_labels; ++l) {
        const uint64_t len =
            g.forward_[l].offsets[v + 1] - g.forward_[l].offsets[v];
        segs += len != 0;
        deg += len;
      }
      g.vm_seg_offsets_[v + 1] = segs;
      vtx_tgt_base[v + 1] = deg;
    }
  });
  for (size_t v = 0; v < num_vertices; ++v) {
    g.vm_seg_offsets_[v + 1] += g.vm_seg_offsets_[v];
    vtx_tgt_base[v + 1] += vtx_tgt_base[v];
  }
  const size_t num_segments = g.vm_seg_offsets_[num_vertices];
  g.vm_seg_labels_.resize(num_segments);
  g.vm_tgt_offsets_.resize(num_segments + 1);
  g.vm_tgt_offsets_[0] = 0;
  g.vm_targets_.resize(total_edges);
  pool.ParallelFor(num_chunks, [&](size_t c, size_t) {
    const size_t begin = c * kVertexChunk;
    const size_t end = std::min(num_vertices, begin + kVertexChunk);
    for (size_t v = begin; v < end; ++v) {
      uint64_t s = g.vm_seg_offsets_[v];
      uint64_t t = vtx_tgt_base[v];
      for (size_t l = 0; l < num_labels; ++l) {
        const Graph::Csr& csr = g.forward_[l];
        const uint64_t b = csr.offsets[v];
        const uint64_t e = csr.offsets[v + 1];
        if (b == e) continue;
        g.vm_seg_labels_[s] = static_cast<LabelId>(l);
        std::copy(csr.targets.begin() + b, csr.targets.begin() + e,
                  g.vm_targets_.begin() + t);
        t += e - b;
        g.vm_tgt_offsets_[s + 1] = t;
        ++s;
      }
    }
  });
  stats.vm_ms = phase.ElapsedMillis();

  // Phase 4 — reverse CSRs by per-label inversion of the forward CSR.
  // Scattering sources in ascending v order leaves every (dst) bucket
  // already sorted, so no per-bucket sort pass is needed at all.
  if (options.with_reverse) {
    phase.Reset();
    g.reverse_.resize(num_labels);
    pool.ParallelFor(num_labels, [&](size_t l, size_t) {
      const Graph::Csr& fwd = g.forward_[l];
      Graph::Csr& rev = g.reverse_[l];
      rev.offsets.assign(num_vertices + 1, 0);
      for (const VertexId u : fwd.targets) ++rev.offsets[u + 1];
      for (size_t v = 0; v < num_vertices; ++v) {
        rev.offsets[v + 1] += rev.offsets[v];
      }
      rev.targets.resize(fwd.targets.size());
      std::vector<uint64_t> cursor(rev.offsets.begin(), rev.offsets.end() - 1);
      for (size_t v = 0; v < num_vertices; ++v) {
        for (uint64_t e = fwd.offsets[v]; e < fwd.offsets[v + 1]; ++e) {
          rev.targets[cursor[fwd.targets[e]]++] = static_cast<VertexId>(v);
        }
      }
    });
    stats.reverse_ms = phase.ElapsedMillis();
  }

  stats.total_ms = total_timer.ElapsedMillis();
  if (stats_out != nullptr) *stats_out = stats;
  return g;
}

Result<Graph> GraphBuilder::Build(bool with_reverse) {
  GraphBuildOptions options;
  options.with_reverse = with_reverse;
  return Build(options);
}

Result<Graph> GraphBuilder::BuildReference(bool with_reverse) {
  if (labels_.size() == 0 && !edges_.empty()) {
    return Status::InvalidArgument("edges present but no labels interned");
  }
  // Dedup in (label, src, dst) order; this is also CSR insertion order.
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    if (a.label != b.label) return a.label < b.label;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.num_vertices_ = num_vertices_;
  g.num_edges_ = edges_.size();
  g.labels_ = labels_;

  const size_t num_labels = labels_.size();
  g.forward_.resize(num_labels);
  {
    auto offsets = CountDegrees(edges_, num_labels, num_vertices_,
                                [](const Edge& e) { return e.src; });
    for (size_t l = 0; l < num_labels; ++l) {
      g.forward_[l].offsets = offsets[l];
      g.forward_[l].targets.resize(offsets[l][num_vertices_]);
    }
    std::vector<std::vector<uint64_t>> cursor = offsets;
    for (const Edge& e : edges_) {
      g.forward_[e.label].targets[cursor[e.label][e.src]++] = e.dst;
    }
  }

  // Vertex-major, label-segmented adjacency: concatenate each vertex's
  // per-label CSR rows (labels ascending — the rows are already distinct
  // and sorted). A segment is one non-empty (vertex, label) cell; count
  // them first so every directory vector is sized exactly once.
  size_t num_segments = 0;
  for (size_t l = 0; l < num_labels; ++l) {
    const std::vector<uint64_t>& offsets = g.forward_[l].offsets;
    for (VertexId v = 0; v < num_vertices_; ++v) {
      num_segments += offsets[v] != offsets[v + 1];
    }
  }
  g.vm_seg_offsets_.assign(num_vertices_ + 1, 0);
  g.vm_seg_labels_.reserve(num_segments);
  g.vm_tgt_offsets_.reserve(num_segments + 1);
  g.vm_tgt_offsets_.push_back(0);
  g.vm_targets_.reserve(edges_.size());
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (size_t l = 0; l < num_labels; ++l) {
      const Graph::Csr& csr = g.forward_[l];
      const uint64_t begin = csr.offsets[v];
      const uint64_t end = csr.offsets[v + 1];
      if (begin == end) continue;
      g.vm_seg_labels_.push_back(static_cast<LabelId>(l));
      g.vm_targets_.insert(g.vm_targets_.end(), csr.targets.begin() + begin,
                           csr.targets.begin() + end);
      g.vm_tgt_offsets_.push_back(g.vm_targets_.size());
    }
    g.vm_seg_offsets_[v + 1] = g.vm_seg_labels_.size();
  }

  if (with_reverse) {
    auto offsets = CountDegrees(edges_, num_labels, num_vertices_,
                                [](const Edge& e) { return e.dst; });
    g.reverse_.resize(num_labels);
    for (size_t l = 0; l < num_labels; ++l) {
      g.reverse_[l].offsets = offsets[l];
      g.reverse_[l].targets.resize(offsets[l][num_vertices_]);
    }
    std::vector<std::vector<uint64_t>> cursor = offsets;
    for (const Edge& e : edges_) {
      g.reverse_[e.label].targets[cursor[e.label][e.dst]++] = e.src;
    }
    // Reverse targets must be sorted per source for binary-search use.
    for (size_t l = 0; l < num_labels; ++l) {
      auto& csr = g.reverse_[l];
      for (size_t v = 0; v < num_vertices_; ++v) {
        std::sort(csr.targets.begin() + csr.offsets[v],
                  csr.targets.begin() + csr.offsets[v + 1]);
      }
    }
  }
  return g;
}

}  // namespace pathest

#include "path/pair_set.h"

#include <algorithm>
#include <bit>

namespace pathest {

const char* PairKernelName(PairKernel kernel) {
  switch (kernel) {
    case PairKernel::kSparse:
      return "sparse";
    case PairKernel::kDense:
      return "dense";
    case PairKernel::kAuto:
    default:
      return "auto";
  }
}

Result<PairKernel> ParsePairKernel(const std::string& name) {
  if (name == "auto") return PairKernel::kAuto;
  if (name == "sparse") return PairKernel::kSparse;
  if (name == "dense") return PairKernel::kDense;
  return Status::InvalidArgument("unknown kernel '" + name +
                                 "' (expected auto|sparse|dense)");
}

namespace {

// Effective per-label group-size threshold for one evaluation: forced
// kernels degenerate to the all/none sentinels, kAuto to the graph-derived
// density bound. Every kernel decision is then one integer compare.
inline uint64_t EffectiveThreshold(PairKernel kernel, uint64_t label_cardinality,
                                   size_t num_vertices, size_t num_words) {
  switch (kernel) {
    case PairKernel::kSparse:
      return UINT64_MAX;
    case PairKernel::kDense:
      return 0;
    case PairKernel::kAuto:
    default:
      return DenseGroupThreshold(label_cardinality, num_vertices, num_words);
  }
}

}  // namespace

FusedExtender::FusedExtender(size_t num_vertices, size_t num_labels)
    : cap_vertices_(num_vertices),
      cap_labels_(num_labels),
      marker_(num_vertices),
      bits_(num_labels, DynamicBitset(num_vertices)),
      emit_(num_labels),
      dense_threshold_(num_labels, 0),
      count_threshold_(num_labels, 0),
      sparse_counts_(num_labels, 0),
      group_before_(num_labels, 0) {
  if (num_labels > 0 && num_vertices <= kMaxMarkerEntries / num_labels) {
    markers_.reserve(num_labels);
    for (size_t l = 0; l < num_labels; ++l) markers_.emplace_back(num_vertices);
  }
}

void FusedExtender::Bind(const Graph& graph, PairKernel kernel) {
  const size_t num_vertices = graph.num_vertices();
  const size_t num_labels = graph.num_labels();
  PATHEST_CHECK(num_labels <= cap_labels_ && num_vertices <= cap_vertices_,
                "graph exceeds FusedExtender capacity");
  vm_ = graph.VertexMajor();
  plane_ = graph.AdjacencyBitmaps();
  num_labels_ = num_labels;
  slab_threshold_ = UINT64_MAX;
  uint64_t slab_bound = 0;
  bool any_edges = false;
  for (LabelId l = 0; l < num_labels; ++l) {
    // Scan cost is what each per-label bitset actually walks — its full
    // capacity, which may exceed this graph's vertex count under reuse.
    const uint64_t cardinality = graph.LabelCardinality(l);
    const uint64_t base = EffectiveThreshold(kernel, cardinality,
                                             num_vertices,
                                             bits_[l].num_words());
    dense_threshold_[l] = base;
    // Counting drains by bare popcount, and with the adjacency plane a
    // dense cell accumulates by vectorized row unions (~kRowWinFactor
    // words per bit-RMW equivalent) — so CountAll's bitset-vs-marker
    // crossover moves far left of DenseGroupThreshold: rows win once the
    // group's OR work, stride/kRowWinFactor words per member, undercuts
    // its ~group · mean-degree marker probes, i.e. from group sizes near
    // stride · |V| / cardinality. Still a pure function of the graph, so
    // kernel choice stays schedule-independent. ExtendAll keeps the plain
    // threshold: its drain extracts positions, which is what the sparse
    // path avoids. Dense planes only — a hub plane guarantees rows for
    // hub cells alone, and a lowered threshold would push rowless cells
    // onto per-edge bit-RMWs that lose to the marker.
    uint64_t count_threshold = base;
    if (kernel == PairKernel::kAuto && plane_.kind == PlaneKind::kDense &&
        cardinality > 0) {
      const uint64_t row_threshold = std::max<uint64_t>(
          2, plane_.stride_words * num_vertices / cardinality);
      count_threshold = std::min(base, row_threshold);
    }
    count_threshold_[l] = count_threshold;
    if (cardinality > 0) {
      any_edges = true;
      slab_bound = std::max(slab_bound, count_threshold);
    }
  }
  // Slab fast path: once a group is dense for EVERY label that has edges,
  // CountAll can union each member's whole plane slab (zero rows of
  // edgeless labels are no-ops) and skip the segment directory entirely.
  // Dense planes only: the slab union assumes the contiguous |L|·stride
  // per-vertex layout, which hub planes do not have.
  if (plane_.kind == PlaneKind::kDense && any_edges &&
      slab_bound != UINT64_MAX) {
    slab_threshold_ = slab_bound;
    slab_.assign(plane_.stride_words * num_labels, 0);
  } else {
    slab_.clear();
  }
}

void FusedExtender::CountAll(const PairSet& parent, uint64_t* counts) {
  const VertexId* targets = parent.targets.data();
  const bool inline_sparse = !markers_.empty();
  const uint64_t row_edge_min =
      plane_.rows != nullptr
          ? (plane_.stride_words + kRowWinFactor - 1) / kRowWinFactor
          : UINT64_MAX;
  const size_t slab_words = plane_.stride_words * num_labels_;
  for (size_t i = 0; i < parent.srcs.size(); ++i) {
    const uint64_t begin = parent.offsets[i];
    const uint64_t end = parent.offsets[i + 1];
    const uint64_t group_size = end - begin;
    if (group_size >= slab_threshold_) {
      // Slab fast path: every label is dense for this group, so each
      // member contributes its whole contiguous |L|·stride plane slab in
      // one vectorized union — no segment directory, no per-label branch.
      uint64_t* slab = slab_.data();
      for (uint64_t j = begin; j < end; ++j) {
        const uint64_t* row =
            plane_.rows +
            static_cast<size_t>(targets[j]) * num_labels_ *
                plane_.stride_words;
        for (size_t w = 0; w < slab_words; ++w) slab[w] |= row[w];
      }
      for (LabelId l = 0; l < num_labels_; ++l) {
        uint64_t distinct = 0;
        uint64_t* section = slab + l * plane_.stride_words;
        for (size_t w = 0; w < plane_.stride_words; ++w) {
          distinct += static_cast<uint64_t>(std::popcount(section[w]));
          section[w] = 0;
        }
        counts[l] += distinct;
      }
      continue;
    }
    if (inline_sparse) {
      for (LabelId l = 0; l < num_labels_; ++l) markers_[l].NextEpoch();
    }
    for (uint64_t j = begin; j < end; ++j) {
      const VertexId t = targets[j];
      const uint64_t seg_end = vm_.seg_offsets[t + 1];
      for (uint64_t s = vm_.seg_offsets[t]; s < seg_end; ++s) {
        const LabelId l = vm_.seg_labels[s];
        const uint64_t tgt_begin = vm_.tgt_offsets[s];
        const uint64_t tgt_end = vm_.tgt_offsets[s + 1];
        if (group_size >= count_threshold_[l]) {
          const uint64_t* row = tgt_end - tgt_begin >= row_edge_min
                                    ? RowFor(t, l, s)
                                    : nullptr;
          if (row != nullptr) {
            bits_[l].OrWords(row, plane_.stride_words);
          } else {
            DynamicBitset& bits = bits_[l];
            for (uint64_t e = tgt_begin; e < tgt_end; ++e) {
              bits.SetBitBlind(vm_.targets[e]);
            }
          }
        } else if (inline_sparse) {
          Marker& marker = markers_[l];
          uint64_t distinct = 0;
          for (uint64_t e = tgt_begin; e < tgt_end; ++e) {
            distinct += marker.Mark(vm_.targets[e]);
          }
          sparse_counts_[l] += distinct;
        } else {
          emit_[l].insert(emit_[l].end(), vm_.targets + tgt_begin,
                          vm_.targets + tgt_end);
        }
      }
    }
    for (LabelId l = 0; l < num_labels_; ++l) {
      if (group_size >= count_threshold_[l]) {
        counts[l] += bits_[l].CountAndClear();
      } else if (inline_sparse) {
        counts[l] += sparse_counts_[l];
        sparse_counts_[l] = 0;
      } else if (!emit_[l].empty()) {
        marker_.NextEpoch();
        uint64_t distinct = 0;
        for (VertexId u : emit_[l]) distinct += marker_.Mark(u);
        counts[l] += distinct;
        emit_[l].clear();
      }
    }
  }
}

void FusedExtender::ExtendAll(const PairSet& parent, PairSet* children) {
  for (LabelId l = 0; l < num_labels_; ++l) {
    children[l].Clear();
    children[l].offsets.push_back(0);
  }
  const VertexId* targets = parent.targets.data();
  const bool inline_sparse = !markers_.empty();
  const uint64_t row_edge_min =
      plane_.rows != nullptr
          ? (plane_.stride_words + kRowWinFactor - 1) / kRowWinFactor
          : UINT64_MAX;
  for (size_t i = 0; i < parent.srcs.size(); ++i) {
    const uint64_t begin = parent.offsets[i];
    const uint64_t end = parent.offsets[i + 1];
    const uint64_t group_size = end - begin;
    for (LabelId l = 0; l < num_labels_; ++l) {
      group_before_[l] = children[l].targets.size();
      if (inline_sparse) markers_[l].NextEpoch();
    }
    for (uint64_t j = begin; j < end; ++j) {
      const VertexId t = targets[j];
      const uint64_t seg_end = vm_.seg_offsets[t + 1];
      for (uint64_t s = vm_.seg_offsets[t]; s < seg_end; ++s) {
        const LabelId l = vm_.seg_labels[s];
        const uint64_t tgt_begin = vm_.tgt_offsets[s];
        const uint64_t tgt_end = vm_.tgt_offsets[s + 1];
        if (group_size >= dense_threshold_[l]) {
          const uint64_t* row = tgt_end - tgt_begin >= row_edge_min
                                    ? RowFor(t, l, s)
                                    : nullptr;
          if (row != nullptr) {
            bits_[l].OrWords(row, plane_.stride_words);
          } else {
            DynamicBitset& bits = bits_[l];
            for (uint64_t e = tgt_begin; e < tgt_end; ++e) {
              bits.SetBitBlind(vm_.targets[e]);
            }
          }
        } else if (inline_sparse) {
          // Inline dedup: first-seen targets go straight into the child
          // builder, in discovery order.
          Marker& marker = markers_[l];
          std::vector<VertexId>& out = children[l].targets;
          for (uint64_t e = tgt_begin; e < tgt_end; ++e) {
            const VertexId u = vm_.targets[e];
            if (marker.Mark(u)) out.push_back(u);
          }
        } else {
          emit_[l].insert(emit_[l].end(), vm_.targets + tgt_begin,
                          vm_.targets + tgt_end);
        }
      }
    }
    for (LabelId l = 0; l < num_labels_; ++l) {
      PairSet& child = children[l];
      if (group_size >= dense_threshold_[l]) {
        bits_[l].ExtractAndClear([&child](size_t u) {
          child.targets.push_back(static_cast<VertexId>(u));
        });
      } else if (!inline_sparse && !emit_[l].empty()) {
        marker_.NextEpoch();
        for (VertexId u : emit_[l]) {
          if (marker_.Mark(u)) child.targets.push_back(u);
        }
        emit_[l].clear();
      }
      if (child.targets.size() > group_before_[l]) {
        child.srcs.push_back(parent.srcs[i]);
        child.offsets.push_back(child.targets.size());
      }
    }
  }
}

void InitialPairSet(const Graph& graph, LabelId l, PairSet* out) {
  out->Clear();
  out->offsets.push_back(0);
  const Graph::CsrView adj = graph.ForwardView(l);
  const size_t num_vertices = graph.num_vertices();
  for (VertexId v = 0; v < num_vertices; ++v) {
    const uint64_t begin = adj.offsets[v];
    const uint64_t end = adj.offsets[v + 1];
    if (begin == end) continue;
    out->srcs.push_back(v);
    // CSR targets can contain no duplicates (edge set semantics), so the
    // row is already a distinct target list.
    out->targets.insert(out->targets.end(), adj.targets + begin,
                        adj.targets + end);
    out->offsets.push_back(out->targets.size());
  }
}

}  // namespace pathest

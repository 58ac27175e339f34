#include "path/pair_set.h"

namespace pathest {

FusedExtender::FusedExtender(size_t num_vertices, size_t num_labels)
    : cap_vertices_(num_vertices),
      cap_labels_(num_labels),
      marker_(num_vertices),
      emit_(num_labels),
      group_before_(num_labels, 0) {
  if (num_labels > 0 && num_vertices <= kMaxMarkerEntries / num_labels) {
    markers_.reserve(num_labels);
    for (size_t l = 0; l < num_labels; ++l) markers_.emplace_back(num_vertices);
  }
}

void FusedExtender::Bind(const Graph& graph) {
  PATHEST_CHECK(graph.num_labels() <= cap_labels_ &&
                    graph.num_vertices() <= cap_vertices_,
                "graph exceeds FusedExtender capacity");
  vm_ = graph.VertexMajor();
  num_labels_ = graph.num_labels();
}

void FusedExtender::CountAll(const PairSet& parent, uint64_t* counts) {
  const VertexId* targets = parent.targets.data();
  const bool inline_dedup = !markers_.empty();
  for (size_t i = 0; i < parent.srcs.size(); ++i) {
    if (inline_dedup) {
      for (LabelId l = 0; l < num_labels_; ++l) markers_[l].NextEpoch();
    }
    for (uint64_t j = parent.offsets[i]; j < parent.offsets[i + 1]; ++j) {
      const VertexId t = targets[j];
      const uint64_t seg_end = vm_.seg_offsets[t + 1];
      for (uint64_t s = vm_.seg_offsets[t]; s < seg_end; ++s) {
        const LabelId l = vm_.seg_labels[s];
        const uint64_t tgt_begin = vm_.tgt_offsets[s];
        const uint64_t tgt_end = vm_.tgt_offsets[s + 1];
        if (inline_dedup) {
          Marker& marker = markers_[l];
          uint64_t distinct = 0;
          for (uint64_t e = tgt_begin; e < tgt_end; ++e) {
            distinct += marker.Mark(vm_.targets[e]);
          }
          counts[l] += distinct;
        } else {
          emit_[l].insert(emit_[l].end(), vm_.targets + tgt_begin,
                          vm_.targets + tgt_end);
        }
      }
    }
    if (inline_dedup) continue;
    for (LabelId l = 0; l < num_labels_; ++l) {
      if (emit_[l].empty()) continue;
      marker_.NextEpoch();
      uint64_t distinct = 0;
      for (VertexId u : emit_[l]) distinct += marker_.Mark(u);
      counts[l] += distinct;
      emit_[l].clear();
    }
  }
}

void FusedExtender::ExtendAll(const PairSet& parent, PairSet* children) {
  for (LabelId l = 0; l < num_labels_; ++l) {
    children[l].Clear();
    children[l].offsets.push_back(0);
  }
  const VertexId* targets = parent.targets.data();
  const bool inline_dedup = !markers_.empty();
  for (size_t i = 0; i < parent.srcs.size(); ++i) {
    for (LabelId l = 0; l < num_labels_; ++l) {
      group_before_[l] = children[l].targets.size();
      if (inline_dedup) markers_[l].NextEpoch();
    }
    for (uint64_t j = parent.offsets[i]; j < parent.offsets[i + 1]; ++j) {
      const VertexId t = targets[j];
      const uint64_t seg_end = vm_.seg_offsets[t + 1];
      for (uint64_t s = vm_.seg_offsets[t]; s < seg_end; ++s) {
        const LabelId l = vm_.seg_labels[s];
        const uint64_t tgt_begin = vm_.tgt_offsets[s];
        const uint64_t tgt_end = vm_.tgt_offsets[s + 1];
        if (inline_dedup) {
          // First-seen targets go straight into the child builder, in
          // discovery order.
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
      if (!inline_dedup && !emit_[l].empty()) {
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

#include "graph/graph.h"

namespace pathest {

LabelId LabelDictionary::Intern(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  LabelId id = static_cast<LabelId>(names_.size());
  names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

Result<LabelId> LabelDictionary::Find(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("unknown edge label: " + std::string(name));
  }
  return it->second;
}

const std::string& LabelDictionary::Name(LabelId id) const {
  PATHEST_CHECK(id < names_.size(), "label id out of range");
  return names_[id];
}

std::span<const VertexId> Graph::OutNeighbors(VertexId v, LabelId l) const {
  PATHEST_CHECK(l < forward_.size(), "label id out of range");
  PATHEST_CHECK(v < num_vertices_, "vertex id out of range");
  const Csr& csr = forward_[l];
  return {csr.targets.data() + csr.offsets[v],
          csr.targets.data() + csr.offsets[v + 1]};
}

std::span<const VertexId> Graph::InNeighbors(VertexId v, LabelId l) const {
  PATHEST_CHECK(has_reverse(), "graph built without reverse adjacency");
  PATHEST_CHECK(l < reverse_.size(), "label id out of range");
  PATHEST_CHECK(v < num_vertices_, "vertex id out of range");
  const Csr& csr = reverse_[l];
  return {csr.targets.data() + csr.offsets[v],
          csr.targets.data() + csr.offsets[v + 1]};
}

Graph::CsrView Graph::ForwardView(LabelId l) const {
  PATHEST_CHECK(l < forward_.size(), "label id out of range");
  return CsrView{forward_[l].offsets.data(), forward_[l].targets.data()};
}

Graph::VertexMajorView Graph::VertexMajor() const {
  PATHEST_CHECK(vm_seg_offsets_.size() == num_vertices_ + 1,
                "vertex-major adjacency not built");
  return VertexMajorView{vm_seg_offsets_.data(), vm_seg_labels_.data(),
                         vm_tgt_offsets_.data(), vm_targets_.data()};
}

bool Graph::IdenticalTo(const Graph& other) const {
  auto csr_equal = [](const std::vector<Csr>& a, const std::vector<Csr>& b) {
    if (a.size() != b.size()) return false;
    for (size_t l = 0; l < a.size(); ++l) {
      if (a[l].offsets != b[l].offsets || a[l].targets != b[l].targets) {
        return false;
      }
    }
    return true;
  };
  return num_vertices_ == other.num_vertices_ &&
         num_edges_ == other.num_edges_ &&
         labels_.names() == other.labels_.names() &&
         csr_equal(forward_, other.forward_) &&
         csr_equal(reverse_, other.reverse_) &&
         vm_seg_offsets_ == other.vm_seg_offsets_ &&
         vm_seg_labels_ == other.vm_seg_labels_ &&
         vm_tgt_offsets_ == other.vm_tgt_offsets_ &&
         vm_targets_ == other.vm_targets_;
}

uint64_t Graph::LabelCardinality(LabelId l) const {
  PATHEST_CHECK(l < forward_.size(), "label id out of range");
  return forward_[l].targets.size();
}

std::vector<Edge> Graph::CollectEdges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (LabelId l = 0; l < forward_.size(); ++l) {
    const Csr& csr = forward_[l];
    for (VertexId v = 0; v < num_vertices_; ++v) {
      for (uint64_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
        edges.push_back(Edge{v, l, csr.targets[i]});
      }
    }
  }
  return edges;
}

}  // namespace pathest

// pathest: the path space L_k — all label paths of length 1..k over a label
// set — and its canonical dense indexing.
//
// The canonical index is length-major, then radix-by-label-id. It is the
// num-alph ordering applied to raw label ids and serves as the storage key
// for selectivity maps and distributions; every user-facing ordering is a
// bijection between [0, |L_k|) and canonical indexes.

#ifndef PATHEST_PATH_PATH_SPACE_H_
#define PATHEST_PATH_PATH_SPACE_H_

#include <cstdint>
#include <functional>

#include "path/label_path.h"
#include "util/status.h"

namespace pathest {

/// \brief |L_k| = sum_{i=1..k} |L|^i for `num_labels` labels, without
/// aborting: InvalidArgument naming |L| and k when the count overflows
/// u64 (or when num_labels == 0 or k is outside [1, kMaxPathLength]).
/// Every entry point that sizes a PathSpace from untrusted or user input
/// (ComputeSelectivities, the ordering factories, the catalog readers)
/// checks this first; the PathSpace constructor itself treats a bad shape
/// as a programming error and aborts.
Result<uint64_t> PathSpaceSize(size_t num_labels, size_t k);

/// \brief The set L_k of label paths with length in [1, k] over `num_labels`
/// labels, with O(k) canonical (un)ranking.
class PathSpace {
 public:
  /// \param num_labels |L| >= 1.
  /// \param k maximum path length, 1 <= k <= kMaxPathLength.
  PathSpace(size_t num_labels, size_t k);

  size_t num_labels() const { return num_labels_; }
  size_t k() const { return k_; }

  /// \brief |L_k| = sum_{i=1..k} |L|^i.
  uint64_t size() const { return size_; }

  /// \brief Number of paths of exactly `len` labels: |L|^len.
  uint64_t CountWithLength(size_t len) const;

  /// \brief Canonical index of first path with `len` labels. Inline: on the
  /// Rank fast path of every length-major ordering.
  uint64_t LengthOffset(size_t len) const {
    PATHEST_CHECK(len >= 1 && len <= k_, "length out of range");
    return offsets_[len];
  }

  /// \brief Canonical index of `path`. Path labels must be < num_labels and
  /// length within [1, k].
  uint64_t CanonicalIndex(const LabelPath& path) const;

  /// \brief Inverse of CanonicalIndex. `index` must be < size().
  LabelPath CanonicalPath(uint64_t index) const;

  /// \brief True when `path` belongs to this space. Inline: every Rank
  /// implementation checks it per query.
  bool Contains(const LabelPath& path) const {
    if (path.empty() || path.length() > k_) return false;
    for (size_t i = 0; i < path.length(); ++i) {
      if (path.label(i) >= num_labels_) return false;
    }
    return true;
  }

  /// \brief Invokes `fn` for every path in canonical order.
  void ForEach(const std::function<void(const LabelPath&)>& fn) const;

 private:
  size_t num_labels_;
  size_t k_;
  uint64_t size_;
  // offsets_[len] = canonical index of the first length-(len) path;
  // offsets_[k_ + 1] = size().
  std::array<uint64_t, kMaxPathLength + 2> offsets_{};
};

}  // namespace pathest

#endif  // PATHEST_PATH_PATH_SPACE_H_

// pathest: the LabelPath value type — a k-label path l1/l2/.../lk
// (paper Section 2).
//
// Paths are small, fixed-capacity, copyable values: at most kMaxPathLength
// labels stored inline. Everything in the ordering framework traffics in
// LabelPath by value.

#ifndef PATHEST_PATH_LABEL_PATH_H_
#define PATHEST_PATH_LABEL_PATH_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "graph/graph.h"
#include "util/status.h"

namespace pathest {

/// Maximum supported path length k.
inline constexpr size_t kMaxPathLength = 16;

/// \brief A sequence of 1..kMaxPathLength edge labels.
class LabelPath {
 public:
  /// Empty path (length 0). Valid only as a building intermediate; the path
  /// spaces L_k contain paths of length >= 1.
  LabelPath() = default;

  /// From an explicit label list; aborts if longer than kMaxPathLength.
  LabelPath(std::initializer_list<LabelId> labels);

  /// \brief Number of labels |ℓ|.
  size_t length() const { return length_; }
  bool empty() const { return length_ == 0; }

  /// \brief Label at position i (0-based). i must be < length(). Inline:
  /// every Rank fast path reads all labels per query.
  LabelId label(size_t i) const {
    PATHEST_CHECK(i < length_, "label index out of range");
    return labels_[i];
  }

  /// \brief Returns a copy extended by one label. Aborts at capacity.
  LabelPath Extend(LabelId next) const;

  /// \brief Returns the prefix of the first `n` labels (n <= length()).
  LabelPath Prefix(size_t n) const;

  /// \brief Returns the suffix dropping the first `n` labels.
  LabelPath Suffix(size_t n) const;

  /// \brief In-place append. Aborts at capacity.
  void PushBack(LabelId next);

  /// \brief In-place removal of the last label. Path must be non-empty.
  void PopBack();

  bool operator==(const LabelPath& other) const;
  /// Length-major, then pairwise label-id comparison (the canonical order).
  bool operator<(const LabelPath& other) const;

  /// \brief Renders as "a/b/c" using the dictionary's label names.
  std::string ToString(const LabelDictionary& dict) const;

  /// \brief Renders label ids as "0/1/2" (debugging).
  std::string ToIdString() const;

  /// \brief Parses "a/b/c" against a dictionary. Every '/' must separate
  /// two non-empty labels ("a/", "/a" and "a//b" are InvalidArgument); an
  /// unknown label is NotFound; more than kMaxPathLength labels is
  /// OutOfRange. Splits the view in place: no per-label copies.
  static Result<LabelPath> Parse(std::string_view text,
                                 const LabelDictionary& dict);

  /// \brief FNV-style hash for unordered containers.
  size_t Hash() const;

 private:
  uint8_t length_ = 0;
  std::array<uint16_t, kMaxPathLength> labels_{};
};

/// Hash functor for unordered containers keyed by LabelPath.
struct LabelPathHash {
  size_t operator()(const LabelPath& p) const { return p.Hash(); }
};

}  // namespace pathest

#endif  // PATHEST_PATH_LABEL_PATH_H_

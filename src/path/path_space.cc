#include "path/path_space.h"

#include <string>

namespace pathest {

Result<uint64_t> PathSpaceSize(size_t num_labels, size_t k) {
  const std::string shape =
      "|L|=" + std::to_string(num_labels) + ", k=" + std::to_string(k);
  if (num_labels == 0) {
    return Status::InvalidArgument("path space needs >= 1 label (" + shape +
                                   ")");
  }
  if (k < 1 || k > kMaxPathLength) {
    return Status::InvalidArgument("path space k out of range [1, " +
                                   std::to_string(kMaxPathLength) + "] (" +
                                   shape + ")");
  }
  uint64_t total = 0;
  uint64_t pow = 1;
  for (size_t len = 1; len <= k; ++len) {
    if (__builtin_mul_overflow(pow, static_cast<uint64_t>(num_labels),
                               &pow) ||
        __builtin_add_overflow(total, pow, &total)) {
      return Status::InvalidArgument("path space |L_k| overflows u64 (" +
                                     shape + ")");
    }
  }
  return total;
}

PathSpace::PathSpace(size_t num_labels, size_t k)
    : num_labels_(num_labels), k_(k) {
  const Result<uint64_t> size = PathSpaceSize(num_labels, k);
  PATHEST_CHECK(size.ok(), "PathSpace shape invalid (check PathSpaceSize)");
  // In range by the check above: no partial sum can overflow.
  uint64_t pow = 1;
  offsets_[1] = 0;
  for (size_t len = 1; len <= k; ++len) {
    pow *= num_labels;
    offsets_[len + 1] = offsets_[len] + pow;
  }
  size_ = *size;
}

uint64_t PathSpace::CountWithLength(size_t len) const {
  PATHEST_CHECK(len >= 1 && len <= k_, "length out of range");
  return offsets_[len + 1] - offsets_[len];
}

uint64_t PathSpace::CanonicalIndex(const LabelPath& path) const {
  PATHEST_CHECK(Contains(path), "path outside this space");
  const size_t len = path.length();
  uint64_t radix = 0;
  for (size_t i = 0; i < len; ++i) {
    radix = radix * num_labels_ + path.label(i);
  }
  return offsets_[len] + radix;
}

LabelPath PathSpace::CanonicalPath(uint64_t index) const {
  PATHEST_CHECK(index < size_, "canonical index out of range");
  size_t len = 1;
  while (index >= offsets_[len + 1]) ++len;
  uint64_t radix = index - offsets_[len];
  LabelPath path;
  // Decode most-significant digit first.
  uint64_t pow = 1;
  for (size_t i = 1; i < len; ++i) pow *= num_labels_;
  for (size_t i = 0; i < len; ++i) {
    path.PushBack(static_cast<LabelId>(radix / pow));
    radix %= pow;
    pow /= num_labels_;
  }
  return path;
}

void PathSpace::ForEach(const std::function<void(const LabelPath&)>& fn) const {
  // Canonical order is length-major, radix-by-id within a length: run an
  // odometer over `len` base-|L| digits for each length.
  std::array<LabelId, kMaxPathLength> digits{};
  for (size_t len = 1; len <= k_; ++len) {
    digits.fill(0);
    bool done = false;
    while (!done) {
      LabelPath path;
      for (size_t i = 0; i < len; ++i) path.PushBack(digits[i]);
      fn(path);
      // Increment least-significant digit with carry.
      size_t pos = len;
      done = true;
      while (pos > 0) {
        --pos;
        if (++digits[pos] < num_labels_) {
          done = false;
          break;
        }
        digits[pos] = 0;
      }
    }
  }
}

}  // namespace pathest

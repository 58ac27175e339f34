#include "path/label_path.h"

#include <sstream>

namespace pathest {

LabelPath::LabelPath(std::initializer_list<LabelId> labels) {
  PATHEST_CHECK(labels.size() <= kMaxPathLength, "path exceeds kMaxPathLength");
  for (LabelId l : labels) PushBack(l);
}

LabelPath LabelPath::Extend(LabelId next) const {
  LabelPath out = *this;
  out.PushBack(next);
  return out;
}

LabelPath LabelPath::Prefix(size_t n) const {
  PATHEST_CHECK(n <= length_, "prefix longer than path");
  LabelPath out = *this;
  out.length_ = static_cast<uint8_t>(n);
  return out;
}

LabelPath LabelPath::Suffix(size_t n) const {
  PATHEST_CHECK(n <= length_, "suffix drop count longer than path");
  LabelPath out;
  for (size_t i = n; i < length_; ++i) out.PushBack(labels_[i]);
  return out;
}

void LabelPath::PushBack(LabelId next) {
  PATHEST_CHECK(length_ < kMaxPathLength, "path exceeds kMaxPathLength");
  PATHEST_CHECK(next <= UINT16_MAX, "label id exceeds 16 bits");
  labels_[length_++] = static_cast<uint16_t>(next);
}

void LabelPath::PopBack() {
  PATHEST_CHECK(length_ > 0, "PopBack on empty path");
  --length_;
}

bool LabelPath::operator==(const LabelPath& other) const {
  if (length_ != other.length_) return false;
  for (size_t i = 0; i < length_; ++i) {
    if (labels_[i] != other.labels_[i]) return false;
  }
  return true;
}

bool LabelPath::operator<(const LabelPath& other) const {
  if (length_ != other.length_) return length_ < other.length_;
  for (size_t i = 0; i < length_; ++i) {
    if (labels_[i] != other.labels_[i]) return labels_[i] < other.labels_[i];
  }
  return false;
}

std::string LabelPath::ToString(const LabelDictionary& dict) const {
  std::ostringstream out;
  for (size_t i = 0; i < length_; ++i) {
    if (i > 0) out << '/';
    out << dict.Name(labels_[i]);
  }
  return out.str();
}

std::string LabelPath::ToIdString() const {
  std::ostringstream out;
  for (size_t i = 0; i < length_; ++i) {
    if (i > 0) out << '/';
    out << labels_[i];
  }
  return out.str();
}

Result<LabelPath> LabelPath::Parse(std::string_view text,
                                   const LabelDictionary& dict) {
  if (text.empty()) {
    return Status::InvalidArgument("empty label path: ''");
  }
  LabelPath path;
  size_t start = 0;
  for (;;) {
    // With no '/' left, slash - start still exceeds what remains, and
    // substr clamps it: the token runs to the end.
    const size_t slash = text.find('/', start);
    const std::string_view token = text.substr(start, slash - start);
    if (token.empty()) {
      return Status::InvalidArgument("empty label in path: '" +
                                     std::string(text) + "'");
    }
    auto id = dict.Find(token);
    if (!id.ok()) return id.status();
    if (path.length() == kMaxPathLength) {
      return Status::OutOfRange("path longer than kMaxPathLength: " +
                                std::string(text));
    }
    path.PushBack(*id);
    if (slash == std::string_view::npos) return path;
    start = slash + 1;
  }
}

size_t LabelPath::Hash() const {
  uint64_t h = 0xCBF29CE484222325ULL;
  h = (h ^ length_) * 0x100000001B3ULL;
  for (size_t i = 0; i < length_; ++i) {
    h = (h ^ labels_[i]) * 0x100000001B3ULL;
  }
  return static_cast<size_t>(h);
}

}  // namespace pathest

// pathest: zero-copy estimator construction over a binary catalog v2 byte
// image (core/serialize.h) — the ONE serving representation of a catalog
// entry.
//
// A MappedCatalogEntry owns exactly one byte image — a file mapping
// (util/mmap_file.h, Open) or an owned heap buffer (FromBuffer: how text
// entries are served, after encoding them to v2) — plus the small OWNED
// metadata parsed out of it (label dictionary, cardinalities, ordering
// identity). Both factories run the same ParseCatalogV2 and the same
// pointer fixup; every bulk row the serving fast paths read — the
// histogram serving rows, the stage-2 composition rows, the stage-3 index —
// stays IN the image, borrowed through spans:
//
//   FlatHistogram::FromBorrowedRows   over the histogram section,
//   CompositionTable::Borrowed        over the composition section,
//   SumBasedOrdering's borrowed form  over the sum-index section.
//
// Construction is therefore header authentication + (per the chosen
// CatalogVerify tier) checksums/scans + O(k) pointer fixup — microseconds
// and O(1) allocations where the copying loader spends milliseconds
// rebuilding tables, with the row bytes themselves faulted lazily by the
// kernel on first use.
//
// Lifetime: the entry is handed out as shared_ptr<const>; the image, the
// ordering, and the estimator all live and die together, so any estimate
// served from a copy of the pointer is safe for as long as that copy is
// held — CatalogCache (core/catalog_cache.h) relies on exactly this to
// evict entries that are still in flight elsewhere.

#ifndef PATHEST_CORE_MAPPED_CATALOG_H_
#define PATHEST_CORE_MAPPED_CATALOG_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.h"
#include "core/serialize.h"
#include "graph/graph.h"
#include "ordering/ordering.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace pathest {

/// \brief One catalog v2 image, served zero-copy. Immutable after
/// construction; safe to share across any number of concurrent readers.
class MappedCatalogEntry {
 public:
  /// \brief Maps `path` and builds the borrowed estimator over it at
  /// verification tier `verify` (core/serialize.h — kChecksums is the
  /// cache's admission default; kTrusted is for bytes this process already
  /// verified this file generation and is UNSAFE on anything else).
  /// Fails (never aborts) on any malformed, truncated, corrupt, or
  /// non-v2 input.
  static Result<std::shared_ptr<const MappedCatalogEntry>> Open(
      const std::string& path, CatalogVerify verify);

  /// \brief Takes ownership of an in-memory v2 image (e.g. the output of
  /// WritePathHistogramBinaryV2) and builds the same borrowed estimator
  /// over it at tier `verify` (the image's data must be 8-byte aligned,
  /// as every heap-allocated std::string's is). The entry is not mapped:
  /// path() is empty, file_id() is default, mapped_bytes() is 0, and
  /// resident_bytes() counts the buffer.
  static Result<std::shared_ptr<const MappedCatalogEntry>> FromBuffer(
      std::string bytes, CatalogVerify verify);

  const Estimator& estimator() const { return *estimator_; }
  const LabelDictionary& labels() const { return labels_; }
  const std::vector<uint64_t>& label_cardinalities() const { return cards_; }
  const std::string& ordering_name() const { return ordering_name_; }
  HistogramType histogram_type() const { return histogram_type_; }

  /// \brief True when the image is a file mapping (Open), false for an
  /// owned buffer (FromBuffer).
  bool is_mapped() const { return buffer_.empty(); }
  const std::string& path() const { return file_.path(); }
  /// \brief Identity of the mapped generation (device, inode, size,
  /// mtime) — under the atomic-rename publish discipline a changed file is
  /// a changed id, which is how CatalogCache detects staleness.
  const FileId& file_id() const { return file_.id(); }

  /// \brief Bytes of the file mapping (budget currency of CatalogCache;
  /// 0 for a buffer entry).
  size_t mapped_bytes() const { return file_.size(); }
  /// \brief Heap bytes OWNED by this entry: parsed metadata plus the
  /// ordering's small owned tables, plus the whole image for a buffer
  /// entry. For a mapped entry the gap between this and mapped_bytes() is
  /// the zero-copy win, reported per entry by serve `stats`.
  size_t resident_bytes() const { return resident_bytes_; }

  MappedCatalogEntry(const MappedCatalogEntry&) = delete;
  MappedCatalogEntry& operator=(const MappedCatalogEntry&) = delete;

 private:
  MappedCatalogEntry() = default;

  // The shared parse + pointer fixup over `bytes` (a member of `entry`).
  static Result<std::shared_ptr<const MappedCatalogEntry>> Build(
      std::shared_ptr<MappedCatalogEntry> entry, std::string_view bytes,
      CatalogVerify verify);

  // Exactly one of file_/buffer_ holds the image.
  MappedFile file_;
  std::string buffer_;
  std::string ordering_name_;
  HistogramType histogram_type_ = HistogramType::kEquiWidth;
  LabelDictionary labels_;
  std::vector<uint64_t> cards_;
  // The estimator holds a pointer into ordering_ and spans into the image —
  // neither moves once built (the entry lives behind shared_ptr).
  std::unique_ptr<Ordering> ordering_;
  std::optional<Estimator> estimator_;
  size_t resident_bytes_ = 0;
};

}  // namespace pathest

#endif  // PATHEST_CORE_MAPPED_CATALOG_H_

// pathest: persistence for path statistics.
//
// A production optimizer keeps its statistics in the catalog and reloads
// them at startup rather than rescanning the data. This module serializes a
// PathHistogram (ordering identity + ranking state + buckets) in two
// formats and reconstructs a working estimator WITHOUT access to the
// original selectivities:
//
//   - a versioned, human-auditable TEXT format (the interchange/debug
//     path), and
//   - a versioned, checksummed, page-aligned BINARY catalog ("binary-v2",
//     below) — the serving format, laid out so a mapped file IS the set of
//     serving rows (core/mapped_catalog.h fixes pointers up instead of
//     parsing).
//
// SniffCatalogFormat / LoadPathHistogram read the leading magic and
// dispatch, so every caller (CLI, catalog, benches) reads both formats
// transparently. The retired binary catalog v1 ("PESTB1") is recognized
// by its magic only to refuse it with a typed IOError that names the
// upgrade path; it is never parsed, and never mistaken for text.
//
// ---------------------------------------------------------------------------
// Text format ("pathest-histogram v1"), line-oriented:
//   pathest-histogram v1
//   ordering <name>
//   type <histogram-type>
//   k <k>
//   labels <n> <name_1> ... <name_n>         # label id order
//   cardinalities <f_1> ... <f_n>            # for reconstructing rankings
//   buckets <beta>
//   <begin> <end> <sum> <sumsq>              # beta lines, sums in hexfloat
//
// ---------------------------------------------------------------------------
// Binary catalog v2 ("PESTB2"). All fields little-endian, fixed-width;
// doubles travel as their IEEE-754 bit pattern in a u64 (bit-exact round
// trips, no locale, no hexfloat parsing).
//
// Header (32 bytes):
//   offset  size  field
//   0       8     magic: 89 'P' 'E' 'S' 'T' 'B' '2' 0A
//                 (high-bit lead byte + trailing \n, PNG-style: a text
//                 transfer that mangles either is caught at the magic)
//   8       4     u32 format version (= 2)
//   12      4     u32 section count (1..kMaxSections)
//   16      8     u64 total file size (must equal the actual byte count —
//                 truncation and padding are caught before any section CRC)
//   24      4     u32 CRC32C over header bytes [0, 24)
//   28      4     u32 CRC32C over the section table bytes
//
// Section table (24 bytes per entry, immediately after the header):
//   u32 section id      u32 CRC32C of the payload
//   u64 absolute offset u64 payload length (exact, unpadded)
// Entries are sorted by strictly ascending id; ids must be known. Readers
// MUST navigate via the table (offset/length), never by accumulation —
// that is what makes each section independently verifiable.
//
// Layout rules, for zero-copy consumption:
//   * Every section OFFSET is a multiple of kPageBytes (4096). The gap
//     between a section's end (and the table's end) and the next section's
//     page-aligned start is zero padding that belongs to NO section: it is
//     outside every CRC and provably ignored by readers. The last section
//     ends the file exactly.
//   * Every interior ARRAY starts at a multiple of kArrayAlignBytes (64)
//     relative to its payload start. Since page >> 64, the arrays are also
//     64-aligned in absolute file (and therefore mapping) addresses.
//     Padding between a payload's prolog and its arrays is INSIDE the
//     payload, hence covered by the section CRC — a flip there is detected.
//   * Bulk data travels as full little-endian u64 / IEEE-754-bit rows that
//     a mapped reader can point spans at with zero parsing.
//
// Section payloads (every count is bounds-checked before it sizes anything
// — see util/safe_io.h BoundedReader; lpstr = u32 length + bytes):
//   1 ordering       lpstr ordering-name, lpstr histogram-type, u32 k,
//                    u32 reserved(0)
//   2 labels         u32 n, then n lpstr names in label-id order
//   3 cardinalities  u32 n (== labels n), u32 reserved(0), n × u64 f(l)
//   4 histogram      u64 beta, u64 domain_size, then 64-aligned rows
//                    begin u64[beta], end u64[beta], sum-bits u64[beta],
//                    sumsq-bits u64[beta]  (the primary bucket rows), plus
//                    the PRECOMPUTED serving rows of
//                    histogram/flat_histogram.h: mean f64[beta],
//                    prefix f64[beta+1], eytz-begin u64[beta+1],
//                    eytz-rank u32[beta+1]
//   5 composition    u32 |L|, u32 k, u64 value-count, then 64-aligned rows
//                    counts u64[value-count] (for each m in [1, k] the row
//                    Count(sum, m), sum in [m, m·|L|] — the sum-based
//                    ordering's stage-2 CompositionTable) and prefix
//                    u64[value-count + k] (the stage-2 prefix rows the
//                    sum-based Rank fast path reads)
//   6 sum-index      u32 key-scheme (ordering/sum_based.h SumKeyScheme),
//                    u32 key-bits, u64 num-cells, u64 total-blocks, then
//                    64-aligned rows cell-starts u64[num-cells + 1],
//                    keys / offsets / nops u64[total-blocks] each — the flat
//                    stage-3 index exactly as SumBasedOrdering consumes it.
//                    Under scheme kNone: num-cells = total-blocks = 0 and the
//                    payload is the 24-byte prolog alone.
// Sections 5 and 6 are present iff the ordering is of the sum family.
//
// Because the serving rows are persisted rather than derived, constructing
// an Estimator over v2 bytes is pure pointer fixup (core/mapped_catalog.h)
// — microseconds and O(1) allocations, with mapped row bytes faulted
// lazily by the kernel. The copying loader (ReadPathHistogramBinaryV2)
// instead verifies the derived rows against a fresh rebuild (full-tier
// semantics) and returns an owned estimator. Both go through the ONE
// parser, internal::ParseCatalogV2 (core/serialize_internal.h).
//
// Versioning/compat rules: the major version in the header is bumped on
// ANY layout change to existing sections; readers reject versions they do
// not know, and unknown section ids are an error. The committed golden
// catalog (tests/golden/catalog_v2.stats) pins this layout byte-for-byte
// against accidental drift.
//
// Corruption contract (enforced by tests/fault_injection_test.cc): any
// truncation, bit flip, or forged length/count in a catalog file yields a
// typed Status from the loader — never a crash, hang, unbounded
// allocation, or silently wrong estimator.
//
// Only closed-form orderings (num-*, lex-*, sum-*, gray-*) round-trip:
// ideal/random/sum-L2 materialize O(|L_k|) state whose persistence would
// defeat the purpose of the histogram (the paper's argument for why ideal
// ordering is impractical, now visible as an API boundary).
//
// Timing note (β = 27993 catalog, 1-core container): the text reader —
// slurp + from_chars cursor — costs ~8 ms end to end; mapping a v2 file
// costs microseconds (see BENCH_catalog_io.json), which is why serving
// prefers it.

#ifndef PATHEST_CORE_SERIALIZE_H_
#define PATHEST_CORE_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/path_histogram.h"
#include "util/status.h"

namespace pathest {

/// \brief On-disk representation of a persisted estimator.
enum class CatalogFormat {
  kText,      // line-oriented, human-auditable (interchange/debug)
  kBinaryV2,  // page-aligned, checksummed binary (mmap zero-copy serving)
};

const char* CatalogFormatName(CatalogFormat format);
Result<CatalogFormat> ParseCatalogFormat(const std::string& name);

/// \brief How much of a binary catalog v2 to verify before serving it.
///
/// Every tier ALWAYS verifies the header, the section table, page
/// alignment, and the metadata sections (ordering/labels/cardinalities,
/// CRC + full parse) plus the shape prologs of the bulk sections. The
/// tiers differ in how the BULK bytes are treated:
///
///   kTrusted   no bulk CRC, no scans — O(metadata) work, the fast-restart
///              mode. Safe ONLY for files this process (or its cache) has
///              already admitted at kChecksums or better: a flipped bulk
///              byte would serve wrong estimates undetected.
///   kChecksums CRC32C over every bulk section plus structural scans
///              (monotone begins, Eytzinger consistency, prefix-row
///              consistency, ascending index keys). The CatalogCache
///              admission tier — every byte generation is checked once.
///   kFull      kChecksums plus semantic rebuild comparisons: serving rows
///              vs a fresh FlatHistogram, composition rows vs a fresh
///              CompositionTable, stage-3 index vs BuildSumStage3Index.
///              What `catalog verify` and the copying loader use.
enum class CatalogVerify {
  kTrusted,
  kChecksums,
  kFull,
};

const char* CatalogVerifyName(CatalogVerify verify);

/// Binary-format layout constants, exported so the fault-injection harness
/// (util/fault_injection.h) and the format tests can compute section
/// boundaries without a parallel definition of the layout.
namespace binfmt {

inline constexpr size_t kMagicBytes = 8;
inline constexpr unsigned char kMagicV2[kMagicBytes] = {0x89, 'P',  'E', 'S',
                                                        'T',  'B',  '2', 0x0A};
inline constexpr uint32_t kVersionV2 = 2;
inline constexpr size_t kHeaderBytes = 32;
inline constexpr size_t kSectionEntryBytes = 24;
/// Hard ceiling on the section count a reader will consider (writers emit
/// at most 6); anything larger is a forged header.
inline constexpr uint32_t kMaxSections = 64;

/// v2 alignment rules: section offsets are page multiples; interior arrays
/// are 64-byte multiples relative to their payload start (and, page being
/// a multiple of 64, in absolute mapped addresses too).
inline constexpr uint64_t kPageBytes = 4096;
inline constexpr uint64_t kArrayAlignBytes = 64;

enum SectionId : uint32_t {
  kSectionOrdering = 1,
  kSectionLabels = 2,
  kSectionCardinalities = 3,
  kSectionHistogram = 4,
  kSectionComposition = 5,
  kSectionSumIndex = 6,
};

/// \brief Stable name of a section id ("ordering", ...; "?" if unknown).
const char* SectionName(uint32_t id);

inline constexpr uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

/// v2 payload geometry, computed from the shape prologs alone — the ONE
/// definition of every interior-array offset, shared by the writer, the
/// parser, and the layout tests. All offsets
/// are relative to the payload start; payload_bytes is the exact (unpadded)
/// payload length the section-table entry must carry.
struct HistogramLayoutV2 {
  uint64_t begin_off, end_off, sum_off, sumsq_off;       // u64[beta] each
  uint64_t mean_off, prefix_off;                         // f64[beta], [beta+1]
  uint64_t eytz_begin_off;                               // u64[beta+1]
  uint64_t eytz_rank_off;                                // u32[beta+1]
  uint64_t payload_bytes;
};
HistogramLayoutV2 HistogramLayout(uint64_t beta);

struct CompositionLayoutV2 {
  uint64_t counts_off;  // u64[num_values]
  uint64_t prefix_off;  // u64[num_values + max_len]
  uint64_t payload_bytes;
};
CompositionLayoutV2 CompositionLayout(uint64_t num_values, uint64_t max_len);

struct SumIndexLayoutV2 {
  uint64_t cell_starts_off;  // u64[num_cells + 1]
  uint64_t keys_off, offsets_off, nops_off;  // u64[total_blocks] each
  uint64_t payload_bytes;
};
/// Under scheme kNone pass (0, 0): the payload is the 24-byte prolog.
SumIndexLayoutV2 SumIndexLayout(uint64_t num_cells, uint64_t total_blocks);

}  // namespace binfmt

/// \brief True when `ordering_name` can be reconstructed from label
/// cardinalities alone (no O(|L_k|) state).
bool IsSerializableOrdering(const std::string& ordering_name);

/// \brief Writes the estimator to a stream in the text format.
Status WritePathHistogram(const PathHistogram& estimator,
                          const LabelDictionary& labels,
                          const std::vector<uint64_t>& label_cardinalities,
                          std::ostream* out);

/// \brief Serializes the estimator into `*out` in page-aligned binary
/// catalog v2 (precomputed serving rows + stage-2/3 tables — see the
/// format spec above).
Status WritePathHistogramBinaryV2(const PathHistogram& estimator,
                                  const LabelDictionary& labels,
                                  const std::vector<uint64_t>& cardinalities,
                                  std::string* out);

/// \brief Saves the estimator to a file via an atomic write (temp + fsync +
/// rename; util/safe_io.h): a crashed or failed save leaves any previous
/// file at `path` byte-identical.
Status SavePathHistogram(const PathHistogram& estimator, const Graph& graph,
                         const std::string& path,
                         CatalogFormat format = CatalogFormat::kText);

/// \brief A deserialized estimator plus the label dictionary it carries.
struct LoadedPathHistogram {
  LabelDictionary labels;
  std::vector<uint64_t> label_cardinalities;
  PathHistogram estimator;
};

/// \brief Classifies `path` by its leading magic (no slurp): binary v2, or
/// — for anything without a binary magic, including files shorter than
/// one — text. A file carrying the retired v1 magic is an IOError naming
/// the upgrade path. Behind the serving loader's mmap dispatch, `catalog
/// verify`'s per-entry format report, and `catalog convert`'s
/// skip-if-already-target check. NotFound/IOError propagate.
Result<CatalogFormat> SniffCatalogFormat(const std::string& path);

/// \brief Parses a binary catalog v2 from an in-memory byte buffer at
/// CatalogVerify::kFull (every CRC, every structural scan, every semantic
/// rebuild comparison) and returns an OWNED estimator. `bytes.data()` must
/// be at least 8-byte aligned (heap buffers always are).
Result<LoadedPathHistogram> ReadPathHistogramBinaryV2(std::string_view bytes);

/// \brief Re-serializes an already-loaded estimator to `path` in `format`
/// through an atomic write — the engine of `pathest_cli catalog convert`.
/// The loaded entry carries everything the writers need (labels,
/// cardinalities, estimator), so no graph is required.
Status SaveLoadedPathHistogram(const LoadedPathHistogram& loaded,
                               const std::string& path, CatalogFormat format);

/// \brief Reads an estimator from a stream, sniffing the format.
///
/// The reader slurps the stream to EOF before parsing (that is what makes
/// both the from_chars text cursor and the checksum walk fast), so the
/// histogram must be the stream's only content: any bytes after the end
/// are consumed, and a second ReadPathHistogram on the same stream sees an
/// empty stream. Streams carrying a binary catalog must have been opened
/// in binary mode.
Result<LoadedPathHistogram> ReadPathHistogram(std::istream* in);

/// \brief Loads an estimator from a file (either format, sniffed).
Result<LoadedPathHistogram> LoadPathHistogram(const std::string& path);

}  // namespace pathest

#endif  // PATHEST_CORE_SERIALIZE_H_

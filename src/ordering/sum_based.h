// pathest: sum-based ordering (paper Section 3.3) — the paper's primary
// contribution.
//
// The index of a path approximates its cardinality through the SUM of its
// base-label ranks, via a three-stage partitioning of the domain:
//   stage 1: by path length (shorter first); partition size |L|^m,
//   stage 2: within a length, by summed rank sr (lower first); partition
//            size = CompositionCount(sr, m, |L|)  (Formula 3),
//   stage 3: within a summed rank, by the rank multiset (integer partition
//            of sr into m parts in [1, |L|], Formula 4), enumerated with the
//            multiplicity of the largest part ascending; partition size =
//            MultisetPermutationCount (Formula 5); finally by the concrete
//            permutation in the order of the paper's Algorithm 1.
//
// Rank() is the forward bijection (the inverse of the paper's Algorithm 2);
// Unrank() is Algorithm 2 itself, delegating to Algorithm 1 for the
// in-partition permutation.
//
// The query fast path runs entirely over FLAT stage-2/stage-3 tables
// (CompositionTable prefix rows + the SumStage3Index below). Both tables
// are pure functions of (|L|, k), built once here — or, on the mmap
// serving path, BORROWED straight out of a binary catalog v2 file
// (core/mapped_catalog.h), which is what makes zero-copy Estimator
// construction possible: the index is persisted in exactly the layout the
// search consumes. The legacy partition-block cache (Unrank's enumeration
// and the kNone fallback) is built lazily on first use in either form.

#ifndef PATHEST_ORDERING_SUM_BASED_H_
#define PATHEST_ORDERING_SUM_BASED_H_

#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ordering/ordering.h"
#include "ordering/ranking.h"
#include "util/combinatorics.h"
#include "util/status.h"

namespace pathest {

/// \brief Allocation-free core of Algorithm 1: writes the index-th distinct
/// permutation of the multiset `combination` into `out`.
///
/// Runs on multiset COUNTS instead of rebuilding a `rest` vector per
/// position: with c_v the remaining multiplicity of value v and
/// D = prod_w c_w!, the number of permutations starting with v is
/// (n-1)! * c_v / D (an exact integer), so each position is resolved by one
/// sweep over the distinct values of `combination` — zero heap allocations.
///
/// \param index position in [0, MultisetPermutationCount(combination)).
/// \param m combination size (and output length).
/// \param combination the multiset, sorted ascending, size m.
/// \param counts caller-owned buffer indexed by VALUE; must have capacity
///   > combination's max value, be all-zero on entry, and is restored to
///   all-zero on return (the RankScratch invariant, ordering/ordering.h).
/// \param fact factorial cache covering at least m.
/// \param out receives the permutation, size m.
void UnrankPermutationCounts(uint64_t index, size_t m,
                             const uint32_t* combination, uint32_t* counts,
                             const FactorialCache& fact, uint32_t* out);

/// \brief Allocation-free core of the inverse of Algorithm 1: the position
/// of `permutation` among the distinct permutations of `combination`.
///
/// Same counts-based scheme and the same buffer contract as
/// UnrankPermutationCounts; `counts` must additionally have capacity > the
/// max value of `permutation` (so a foreign permutation is diagnosed, not
/// read out of bounds).
uint64_t RankPermutationCounts(const uint32_t* permutation, size_t m,
                               const uint32_t* combination, uint32_t* counts,
                               const FactorialCache& fact);

/// \brief Unranking a permutation of a multiset (paper Algorithm 1).
/// Allocating convenience wrapper over UnrankPermutationCounts; results are
/// bit-identical.
///
/// \param index position in [0, MultisetPermutationCount(combination)).
/// \param combination multiset of values, sorted ascending.
/// \return the index-th distinct permutation, where permutations are ordered
///   by their first element (ascending over distinct values), then
///   recursively.
std::vector<uint32_t> UnrankPermutationOfCombination(
    uint64_t index, const std::vector<uint32_t>& combination);

/// \brief Inverse of UnrankPermutationOfCombination. Allocating convenience
/// wrapper over RankPermutationCounts; results are bit-identical.
///
/// \param permutation a permutation of `combination`.
/// \param combination multiset sorted ascending.
uint64_t RankPermutationInCombination(const std::vector<uint32_t>& permutation,
                                      std::vector<uint32_t> combination);

/// \brief Key encoding of the stage-three index. The numeric values are the
/// on-disk encoding of binary catalog v2's sum-index section — do not
/// renumber.
enum class SumKeyScheme : uint32_t {
  /// Combinations too wide for any 64-bit key; no index (block-scan
  /// fallback). Rare: needs |L| and k both large.
  kNone = 0,
  /// The multiplicity vector as a packed number: value v occupies key_bits
  /// bits at position (v - 1) * key_bits, and a query key is built by
  /// ADDING 1 << shift per path rank — order-free, so the fast path needs
  /// no sort at all. Feasible when |L| * ceil(log2(k + 1)) <= 64.
  kCounts = 1,
  /// The sorted combination packed value-by-value. Feasible when
  /// k * ceil(log2(|L| + 1)) <= 64; costs an insertion sort per query.
  kSorted = 2,
};

/// \brief The scheme (and per-field bit width) a (|L|, k) space uses —
/// a pure function of the shape, shared by the ordering, the catalog v2
/// writer, and the mapped reader's shape validation.
void ChooseSumKeyScheme(uint64_t num_labels, uint64_t k,
                        SumKeyScheme* scheme, uint32_t* key_bits);

/// \brief Encodes a rank multiset (any order under kCounts; sorted
/// ascending under kSorted) of size m into its lookup key.
inline uint64_t SumEncodeKey(SumKeyScheme scheme, uint32_t key_bits,
                             const uint32_t* values, size_t m) {
  uint64_t key = 0;
  if (scheme == SumKeyScheme::kCounts) {
    for (size_t i = 0; i < m; ++i) {
      key += 1ULL << (static_cast<size_t>(values[i] - 1) * key_bits);
    }
  } else {
    for (size_t i = 0; i < m; ++i) {
      key |= static_cast<uint64_t>(values[i]) << (i * key_bits);
    }
  }
  return key;
}

/// \brief The flat stage-three index: every (m, sr) cell's partition blocks
/// as key-sorted parallel arrays, all cells concatenated m-major (cell id =
/// SumStage3CellBase(m) + (sr - m)). cell_starts has one entry per cell
/// plus a final total, so cell c's blocks live at
/// [cell_starts[c], cell_starts[c+1]) in keys/offsets/nops.
///
/// This is both the in-memory fast-path structure AND the on-disk layout of
/// catalog v2's sum-index section; BuildSumStage3Index is its single
/// definition, used by the ordering, the writer, and the full verifier.
/// Under kNone every array is empty.
struct SumStage3Index {
  SumKeyScheme scheme = SumKeyScheme::kNone;
  uint32_t key_bits = 0;
  std::vector<uint64_t> cell_starts;
  std::vector<uint64_t> keys;     // ascending within each cell
  std::vector<uint64_t> offsets;  // offsets[i] belongs to keys[i]
  std::vector<uint64_t> nops;     // permutation count of keys[i]'s multiset
};

/// \brief Builds the stage-three index for (num_labels, k) by enumerating
/// every (m, sr) cell's partitions (Formula 4) in block order.
SumStage3Index BuildSumStage3Index(uint64_t num_labels, uint64_t k);

/// \brief Number of (m, sr) cells: sum over m of (m*|L| - m + 1).
uint64_t SumStage3CellCount(uint64_t num_labels, uint64_t k);

/// \brief Largest stage-three entry count a sum-family ordering may have.
/// Each entry costs 24 bytes of index rows (key, offset, permutation
/// count), so the index stays near 100 MB at most. 2^22 admits 2048
/// labels at k = 2, 8 labels at k = 16, and every shape the paper and the
/// benchmark use (8 labels at k <= 6 need 3002 entries).
inline constexpr uint64_t kMaxSumIndexEntries = uint64_t{1} << 22;

/// \brief The stage-three entry count of (|L|, k): one block per multiset
/// of m <= k ranks in [1, |L|], i.e. sum over m of C(|L|+m-1, m) =
/// C(|L|+k, k) - 1 — also the number of partition blocks the kNone
/// fallback scans. Computed in O(k) from the closed form, so an absurd
/// shape is refused before any index is built. ResourceExhausted when the
/// count overflows u64 or exceeds kMaxSumIndexEntries; the message names
/// |L| and k.
Result<uint64_t> SumStage3EntryCount(uint64_t num_labels, uint64_t k);

/// \brief Borrowed view of a SumStage3Index (spans into a mapped catalog).
struct SumStage3View {
  SumKeyScheme scheme = SumKeyScheme::kNone;
  uint32_t key_bits = 0;
  std::span<const uint64_t> cell_starts;
  std::span<const uint64_t> keys;
  std::span<const uint64_t> offsets;
  std::span<const uint64_t> nops;
};

/// \brief Sum-based ordering. The paper pairs it with cardinality ranking
/// (method name "sum-based"); any LabelRanking is accepted, enabling the
/// sum-alph ablation.
class SumBasedOrdering : public Ordering {
 public:
  SumBasedOrdering(PathSpace space, LabelRanking ranking);

  /// \brief Borrowed/mmap form: the stage-2 composition table and stage-3
  /// index come from persisted (typically memory-mapped) rows instead of
  /// being recomputed — construction is O(k) pointer fixup. `comps` is a
  /// CompositionTable::Borrowed over the same backing memory as `index`;
  /// both must match what the owned constructor would build for
  /// (space.num_labels(), space.k()) — callers on untrusted bytes verify
  /// first (core/mapped_catalog.h). The backing memory must outlive this
  /// ordering.
  SumBasedOrdering(PathSpace space, LabelRanking ranking,
                   CompositionTable comps, const SumStage3View& index);

  const std::string& name() const override { return name_; }
  uint64_t Rank(const LabelPath& path) const override;
  LabelPath Unrank(uint64_t index) const override;
  const PathSpace& space() const override { return space_; }
  OrderingKind kind() const override { return OrderingKind::kSumBased; }

  /// \brief The allocation-free fast path (the scratch contract in
  /// ordering/ordering.h): three table lookups (length offset, O(1)
  /// stage-two prefix, stage-three binary search) plus the counts-based
  /// Algorithm-1 core, all on caller-owned buffers. The plain Rank() is a
  /// thin wrapper over this with a local scratch.
  uint64_t Rank(const LabelPath& path, RankScratch& scratch) const override;

  /// \brief Scratch-based Unrank twin (non-virtual; Unrank(index) wraps it).
  LabelPath Unrank(uint64_t index, RankScratch& scratch) const;

  const LabelRanking& ranking() const { return ranking_; }
  /// \brief The stage-2 table (persisted verbatim by the catalog writer).
  const CompositionTable& compositions() const { return comps_; }
  /// \brief The flat stage-3 index as spans (owned or borrowed — the
  /// catalog v2 writer persists exactly these arrays).
  SumStage3View stage3_view() const {
    return SumStage3View{key_scheme_, static_cast<uint32_t>(key_bits_),
                         cell_starts_, keys_, offsets_, nops_};
  }

 private:
  // One stage-three partition block: a combination (ascending rank multiset),
  // its permutation count, and its starting offset within the (length, sum)
  // stage-two partition.
  struct ComboBlock {
    Partition parts;
    uint64_t nop;
    uint64_t offset;
  };

  // Stage-three blocks for (m, sr), materialized LAZILY (call_once) on the
  // first Unrank / legacy Rank / kNone fallback: the enumeration is tiny
  // (O(k^2 |L|) distinct (m, sr) pairs, a handful of partitions each) but
  // costs ~1 ms for real spaces — which would swamp the microsecond mmap
  // construction path if it ran eagerly, and the serving fast path never
  // touches it.
  const std::vector<ComboBlock>& BlocksFor(size_t m, uint64_t sr) const;
  void EnsureBlocks() const;

  // Stage-three offset of the sorted rank multiset `combo` (size m) within
  // its (m, sr) partition, by linear block scan — shared by the legacy
  // Rank and the fast path's kNone fallback. Aborts if absent.
  uint64_t StageThreeOffsetByScan(size_t m, uint64_t sr,
                                  const uint32_t* combo) const;

  // Points the span members at owned_index_ / computes cell_base_.
  void InitIndexViews(const SumStage3View& view);

  PathSpace space_;
  LabelRanking ranking_;
  std::string name_;
  CompositionTable comps_;
  // Factorials 0!..k! for the counts-based Algorithm-1 core; built
  // (overflow-checked) once at construction.
  FactorialCache fact_;
  SumKeyScheme key_scheme_ = SumKeyScheme::kNone;
  size_t key_bits_ = 0;  // bits per key field under the chosen scheme
  // Backing storage for the owned form; empty when borrowed.
  SumStage3Index owned_index_;
  // The fast path reads ONLY these spans (into owned_index_ or the mapping).
  std::span<const uint64_t> cell_starts_;
  std::span<const uint64_t> keys_;
  std::span<const uint64_t> offsets_;
  std::span<const uint64_t> nops_;
  // cell_base_[m - 1] = id of cell (m, sr=m); cell id grows with sr.
  std::vector<uint64_t> cell_base_;
  // Lazy legacy blocks (see BlocksFor). once_flag makes this class
  // immovable — it is only ever constructed in place (factory / tests).
  mutable std::once_flag blocks_once_;
  // blocks_[m - 1][sr - m] for sr in [m, m * |L|].
  mutable std::vector<std::vector<std::vector<ComboBlock>>> blocks_;
};

}  // namespace pathest

#endif  // PATHEST_ORDERING_SUM_BASED_H_

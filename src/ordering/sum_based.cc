#include "ordering/sum_based.h"

#include <algorithm>
#include <array>
#include <string>
#include <tuple>
#include <utility>

#include "util/status.h"

namespace pathest {

namespace {

// Magic-reciprocal division by the remaining permutation length. The
// hardware 64-bit divide these cores would otherwise issue per position is
// the single largest cost of a sum-based query; with the divisor n in
// [2, kMaxPathLength] and every dividend bounded by 16! * 16 < 2^49, the
// multiply-high by ceil(2^64 / n) is exact (error term < x / 2^64 << the
// 1/n quantum), so this is floor division, just without the divider unit.
constexpr auto kDivMagic = [] {
  std::array<uint64_t, kMaxPathLength + 1> magic{};
  for (size_t n = 2; n <= kMaxPathLength; ++n) magic[n] = ~0ULL / n + 1;
  return magic;
}();

inline uint64_t DivSmall(uint64_t x, size_t n) {
  if (n == 1) return x;
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(x) * kDivMagic[n]) >> 64);
}

// Multiplicities of `combination` into `counts`, returning the number of
// distinct permutations W = m! / prod c_w! of the whole multiset.
inline uint64_t FillCountsAndNop(const uint32_t* combination, size_t m,
                                 uint32_t* counts, const FactorialCache& fact) {
  uint64_t denom = 1;
  for (size_t i = 0; i < m; ++i) {
    ++counts[combination[i]];
    denom *= counts[combination[i]];  // running product builds prod c_w!
  }
  return fact.Fact(m) / denom;
}

}  // namespace

void UnrankPermutationCounts(uint64_t index, size_t m,
                             const uint32_t* combination, uint32_t* counts,
                             const FactorialCache& fact, uint32_t* out) {
  PATHEST_CHECK(m <= kMaxPathLength, "combination longer than kMaxPathLength");
  // Invariant: w = number of distinct permutations of the REMAINING
  // multiset. Those starting with value v number w * c_v / n_rem (an exact
  // integer), which is also the next w when v is chosen — so the whole
  // unranking needs no denominator bookkeeping at all.
  uint64_t w = FillCountsAndNop(combination, m, counts, fact);
  for (size_t pos = 0; pos < m; ++pos) {
    const size_t n_rem = m - pos;
    bool placed = false;
    for (size_t j = 0; j < m; ++j) {
      if (j > 0 && combination[j] == combination[j - 1]) continue;  // dup run
      const uint32_t v = combination[j];
      if (counts[v] == 0) continue;  // exhausted by earlier positions
      const uint64_t block = DivSmall(w * counts[v], n_rem);
      if (index >= block) {
        index -= block;
        continue;
      }
      out[pos] = v;
      w = block;
      --counts[v];
      placed = true;
      break;
    }
    PATHEST_CHECK(placed, "permutation index out of range");
  }
  // Each of the m insertions above was matched by exactly one decrement, so
  // `counts` is all-zero again (the RankScratch invariant).
}

uint64_t RankPermutationCounts(const uint32_t* permutation, size_t m,
                               const uint32_t* combination, uint32_t* counts,
                               const FactorialCache& fact) {
  PATHEST_CHECK(m <= kMaxPathLength, "combination longer than kMaxPathLength");
  uint64_t w = FillCountsAndNop(combination, m, counts, fact);
  uint64_t rank = 0;
  for (size_t pos = 0; pos < m; ++pos) {
    const uint32_t head = permutation[pos];
    const size_t n_rem = m - pos;
    // All permutations starting with a smaller distinct value come first.
    // Each such block is w * c_v / n_rem; since every block is an exact
    // integer, the SUM telescopes to w * (sum of smaller counts) / n_rem —
    // one multiply and one small division for the whole position.
    uint64_t below = 0;
    for (size_t j = 0; j < m && combination[j] < head; ++j) {
      if (j > 0 && combination[j] == combination[j - 1]) continue;
      below += counts[combination[j]];
    }
    rank += DivSmall(w * below, n_rem);
    PATHEST_CHECK(counts[head] > 0,
                  "permutation is not a permutation of the combination");
    w = DivSmall(w * counts[head], n_rem);
    --counts[head];
  }
  return rank;
}

std::vector<uint32_t> UnrankPermutationOfCombination(
    uint64_t index, const std::vector<uint32_t>& combination) {
  PATHEST_CHECK(!combination.empty(), "empty combination");
  PATHEST_CHECK(std::is_sorted(combination.begin(), combination.end()),
                "combination must be sorted ascending");
  PATHEST_CHECK(index < MultisetPermutationCount(combination),
                "permutation index out of range");
  const FactorialCache fact(combination.size());
  std::vector<uint32_t> counts(combination.back() + 1, 0);
  std::vector<uint32_t> out(combination.size());
  UnrankPermutationCounts(index, combination.size(), combination.data(),
                          counts.data(), fact, out.data());
  return out;
}

uint64_t RankPermutationInCombination(const std::vector<uint32_t>& permutation,
                                      std::vector<uint32_t> combination) {
  PATHEST_CHECK(permutation.size() == combination.size(),
                "permutation/combination size mismatch");
  if (permutation.empty()) return 0;
  const FactorialCache fact(combination.size());
  const uint32_t max_value =
      std::max(*std::max_element(permutation.begin(), permutation.end()),
               combination.back());
  std::vector<uint32_t> counts(max_value + 1, 0);
  return RankPermutationCounts(permutation.data(), permutation.size(),
                               combination.data(), counts.data(), fact);
}

void ChooseSumKeyScheme(uint64_t num_labels, uint64_t k,
                        SumKeyScheme* scheme, uint32_t* key_bits) {
  // Prefer the order-free counts encoding (no sort on the query path),
  // fall back to the sorted pack, else no index.
  uint32_t count_bits = 1;  // bits to hold multiplicities in [0, k]
  while ((1ULL << count_bits) <= k) ++count_bits;
  uint32_t value_bits = 1;  // bits to hold ranks in [1, |L|]
  while ((1ULL << value_bits) <= num_labels) ++value_bits;
  if (count_bits * num_labels <= 64) {
    *scheme = SumKeyScheme::kCounts;
    *key_bits = count_bits;
  } else if (value_bits * k <= 64) {
    *scheme = SumKeyScheme::kSorted;
    *key_bits = value_bits;
  } else {
    *scheme = SumKeyScheme::kNone;
    *key_bits = 0;
  }
}

uint64_t SumStage3CellCount(uint64_t num_labels, uint64_t k) {
  uint64_t cells = 0;
  for (uint64_t m = 1; m <= k; ++m) cells += m * num_labels - m + 1;
  return cells;
}

Result<uint64_t> SumStage3EntryCount(uint64_t num_labels, uint64_t k) {
  const std::string shape =
      "|L|=" + std::to_string(num_labels) + ", k=" + std::to_string(k);
  // C(n, i+1) = C(n, i) * (n - i) / (i + 1) with n = |L| + k, exact at
  // every step; the product is formed in 128 bits.
  const unsigned __int128 n = static_cast<unsigned __int128>(num_labels) + k;
  unsigned __int128 binom = 1;
  for (uint64_t i = 0; i < k; ++i) {
    if (__builtin_mul_overflow(binom, n - i, &binom) ||
        (binom /= i + 1) > UINT64_MAX) {
      return Status::ResourceExhausted(
          "sum-based index entry count overflows u64 (" + shape + ")");
    }
  }
  const uint64_t entries = static_cast<uint64_t>(binom) - 1;
  if (entries > kMaxSumIndexEntries) {
    return Status::ResourceExhausted(
        "sum-based index needs " + std::to_string(entries) +
        " entries, over the limit of " + std::to_string(kMaxSumIndexEntries) +
        " (" + shape + ")");
  }
  return entries;
}

SumStage3Index BuildSumStage3Index(uint64_t num_labels, uint64_t k) {
  SumStage3Index index;
  ChooseSumKeyScheme(num_labels, k, &index.scheme, &index.key_bits);
  if (index.scheme == SumKeyScheme::kNone) return index;

  index.cell_starts.reserve(SumStage3CellCount(num_labels, k) + 1);
  index.cell_starts.push_back(0);
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> entries;
  for (uint64_t m = 1; m <= k; ++m) {
    for (uint64_t sr = m; sr <= m * num_labels; ++sr) {
      entries.clear();
      uint64_t offset = 0;
      for (const Partition& p : EnumeratePartitions(sr, m, num_labels)) {
        const uint64_t nop = MultisetPermutationCount(p);
        entries.push_back({SumEncodeKey(index.scheme, index.key_bits,
                                        p.data(), m),
                           offset, nop});
        offset += nop;
      }
      std::sort(entries.begin(), entries.end());
      for (const auto& [key, block_offset, nop] : entries) {
        index.keys.push_back(key);
        index.offsets.push_back(block_offset);
        index.nops.push_back(nop);
      }
      index.cell_starts.push_back(index.keys.size());
    }
  }
  return index;
}

void SumBasedOrdering::InitIndexViews(const SumStage3View& view) {
  key_scheme_ = view.scheme;
  key_bits_ = view.key_bits;
  cell_starts_ = view.cell_starts;
  keys_ = view.keys;
  offsets_ = view.offsets;
  nops_ = view.nops;
  cell_base_.resize(space_.k());
  uint64_t base = 0;
  for (uint64_t m = 1; m <= space_.k(); ++m) {
    cell_base_[m - 1] = base;
    base += m * space_.num_labels() - m + 1;
  }
  if (key_scheme_ != SumKeyScheme::kNone) {
    PATHEST_CHECK(cell_starts_.size() == base + 1,
                  "stage-three cell directory shape mismatch");
    PATHEST_CHECK(keys_.size() == cell_starts_.back() &&
                      offsets_.size() == keys_.size() &&
                      nops_.size() == keys_.size(),
                  "stage-three block array shape mismatch");
  }
}

SumBasedOrdering::SumBasedOrdering(PathSpace space, LabelRanking ranking)
    : space_(space),
      ranking_(std::move(ranking)),
      comps_(space.num_labels(), space.k()),
      fact_(space.k()) {
  PATHEST_CHECK(space_.num_labels() == ranking_.size(),
                "ranking size mismatch with path space");
  // The paper's "sum-based" method is sum ordering + cardinality ranking;
  // keep the short name for that standard combination.
  name_ = ranking_.rule() == RankingRule::kCardinality
              ? "sum-based"
              : std::string("sum-") + RankingRuleName(ranking_.rule());

  owned_index_ = BuildSumStage3Index(space_.num_labels(), space_.k());
  InitIndexViews(SumStage3View{owned_index_.scheme, owned_index_.key_bits,
                               owned_index_.cell_starts, owned_index_.keys,
                               owned_index_.offsets, owned_index_.nops});
}

SumBasedOrdering::SumBasedOrdering(PathSpace space, LabelRanking ranking,
                                   CompositionTable comps,
                                   const SumStage3View& index)
    : space_(space),
      ranking_(std::move(ranking)),
      comps_(std::move(comps)),
      fact_(space.k()) {
  PATHEST_CHECK(space_.num_labels() == ranking_.size(),
                "ranking size mismatch with path space");
  PATHEST_CHECK(comps_.num_labels() == space_.num_labels() &&
                    comps_.max_len() == space_.k(),
                "composition table shape mismatch with path space");
  SumKeyScheme expected_scheme;
  uint32_t expected_bits;
  ChooseSumKeyScheme(space_.num_labels(), space_.k(), &expected_scheme,
                     &expected_bits);
  PATHEST_CHECK(index.scheme == expected_scheme &&
                    index.key_bits == expected_bits,
                "stage-three key scheme mismatch for this space");
  name_ = ranking_.rule() == RankingRule::kCardinality
              ? "sum-based"
              : std::string("sum-") + RankingRuleName(ranking_.rule());
  InitIndexViews(index);
}

void SumBasedOrdering::EnsureBlocks() const {
  std::call_once(blocks_once_, [this] {
    const uint64_t num_labels = space_.num_labels();
    blocks_.resize(space_.k());
    for (size_t m = 1; m <= space_.k(); ++m) {
      auto& row = blocks_[m - 1];
      row.resize(m * num_labels - m + 1);
      for (uint64_t sr = m; sr <= m * num_labels; ++sr) {
        auto& blocks = row[sr - m];
        uint64_t offset = 0;
        for (Partition& p : EnumeratePartitions(sr, m, num_labels)) {
          uint64_t nop = MultisetPermutationCount(p);
          blocks.push_back(ComboBlock{std::move(p), nop, offset});
          offset += nop;
        }
      }
    }
  });
}

const std::vector<SumBasedOrdering::ComboBlock>& SumBasedOrdering::BlocksFor(
    size_t m, uint64_t sr) const {
  PATHEST_CHECK(m >= 1 && m <= space_.k(), "length out of range");
  PATHEST_CHECK(sr >= m && sr <= m * space_.num_labels(),
                "summed rank out of range");
  EnsureBlocks();
  return blocks_[m - 1][sr - m];
}

uint64_t SumBasedOrdering::StageThreeOffsetByScan(size_t m, uint64_t sr,
                                                  const uint32_t* combo) const {
  for (const ComboBlock& block : BlocksFor(m, sr)) {
    if (block.parts.size() == m &&
        std::equal(block.parts.begin(), block.parts.end(), combo)) {
      return block.offset;
    }
  }
  PATHEST_CHECK(false, "rank multiset missing from stage-three blocks");
  __builtin_unreachable();
}

uint64_t SumBasedOrdering::Rank(const LabelPath& path) const {
  // The LEGACY path: first-principles three-stage enumeration with per-call
  // buffers. Deliberately NOT a wrapper over the scratch fast path — its
  // stage-two linear accumulation and per-value scans derive every offset
  // from CompositionCount/factorial arithmetic directly, so the property
  // tests cross-validate the fast path's precomputed prefix tables against
  // an independent derivation rather than against themselves. This is also
  // the baseline bench_micro_estimation measures the fast path against.
  PATHEST_CHECK(space_.Contains(path), "path outside space");
  const size_t m = path.length();
  const uint32_t num_labels = static_cast<uint32_t>(space_.num_labels());

  uint32_t ranks[kMaxPathLength];
  uint32_t combo[kMaxPathLength];
  uint64_t sr = 0;
  for (size_t i = 0; i < m; ++i) {
    ranks[i] = ranking_.RankOf(path.label(i));
    combo[i] = ranks[i];
    sr += ranks[i];
  }
  // Insertion sort; m <= 16.
  for (size_t i = 1; i < m; ++i) {
    uint32_t v = combo[i];
    size_t j = i;
    while (j > 0 && combo[j - 1] > v) {
      combo[j] = combo[j - 1];
      --j;
    }
    combo[j] = v;
  }

  // Stage 1: all shorter lengths precede.
  uint64_t index = space_.LengthOffset(m);
  // Stage 2: all lower summed ranks precede.
  for (uint64_t s = m; s < sr; ++s) index += comps_.Count(s, m);
  // Stage 3: the block of our rank multiset.
  index += StageThreeOffsetByScan(m, sr, combo);

  // Permutation position within the block (inverse of Algorithm 1), via
  // multiplicity counts: with counts c over remaining values and
  // D = prod c_w!, the number of permutations starting with value v is
  // (n-1)! * c_v / D. The counts buffer is heap-allocated per call (sized
  // by the label set — the fixed 64-entry stack array this used to use was
  // an out-of-bounds write waiting for |L| > 64); the scratch overload
  // exists precisely so serving paths never pay this allocation.
  std::vector<uint32_t> counts(num_labels + 1, 0);
  uint64_t denom = 1;
  for (size_t i = 0; i < m; ++i) {
    ++counts[ranks[i]];
    denom *= counts[ranks[i]];  // running product builds prod c_w!
  }
  for (size_t i = 0; i < m; ++i) {
    const uint32_t head = ranks[i];
    const uint64_t rest_fact = fact_.Fact(m - i - 1);
    for (uint32_t v = 1; v < head && v <= num_labels; ++v) {
      if (counts[v] > 0) {
        index += rest_fact * counts[v] / denom;
      }
    }
    denom /= counts[head];
    --counts[head];
  }
  return index;
}

uint64_t SumBasedOrdering::Rank(const LabelPath& path,
                                RankScratch& scratch) const {
  PATHEST_CHECK(space_.Contains(path), "path outside space");
  const size_t m = path.length();

  uint32_t* ranks = scratch.ranks;
  uint64_t sr = 0;
  for (size_t i = 0; i < m; ++i) {
    ranks[i] = ranking_.RankOf(path.label(i));
    sr += ranks[i];
  }

  // Stage 1: all shorter lengths precede.
  uint64_t index = space_.LengthOffset(m);
  // Stage 2: all lower summed ranks precede — one prefix-table lookup.
  index += comps_.CumulativeBelow(sr, m);

  // Stage 3 key: order-free addition under kCounts; sorted pack (one
  // insertion sort) under kSorted; block scan fallback under kNone.
  uint64_t key = 0;
  if (key_scheme_ == SumKeyScheme::kCounts) {
    key = SumEncodeKey(key_scheme_, static_cast<uint32_t>(key_bits_), ranks,
                       m);
  } else {
    uint32_t* combo = scratch.combo;
    for (size_t i = 0; i < m; ++i) combo[i] = ranks[i];
    // Insertion sort; m <= 16.
    for (size_t i = 1; i < m; ++i) {
      uint32_t v = combo[i];
      size_t j = i;
      while (j > 0 && combo[j - 1] > v) {
        combo[j] = combo[j - 1];
        --j;
      }
      combo[j] = v;
    }
    if (key_scheme_ == SumKeyScheme::kNone) {
      // Generality fallback (combinations too wide for any key): legacy
      // block scan plus the allocation-free counts core.
      scratch.Reserve(space_.num_labels());
      index += StageThreeOffsetByScan(m, sr, combo);
      index +=
          RankPermutationCounts(ranks, m, combo, scratch.counts.data(), fact_);
      return index;
    }
    key = SumEncodeKey(key_scheme_, static_cast<uint32_t>(key_bits_), combo,
                       m);
  }

  // One branchless binary search (first key >= ours) over the cell's packed
  // keys, which also hands us the block's permutation count (w). The cell's
  // blocks live at [cell_starts_[c], cell_starts_[c+1]) in the flat arrays,
  // with c derived from (m, sr) — the same arrays catalog v2 persists.
  const uint64_t cell = cell_base_[m - 1] + (sr - m);
  const uint64_t cell_begin = cell_starts_[cell];
  const uint64_t* keys = keys_.data() + cell_begin;
  size_t len = static_cast<size_t>(cell_starts_[cell + 1] - cell_begin);
  size_t lo = 0;
  while (len > 1) {
    const size_t half = len / 2;
    lo += keys[lo + half - 1] < key ? half : 0;
    len -= half;
  }
  PATHEST_CHECK(keys[lo] == key, "rank multiset missing from stage-three index");
  index += offsets_[cell_begin + lo];

  // Permutation position within the block (inverse of Algorithm 1),
  // branchless: with w the permutation count of the REMAINING multiset,
  // the block of permutations starting below head h is w * below / n_rem
  // and choosing h leaves w * eq / n_rem (both exact integers — see
  // RankPermutationCounts). Since the remaining multiset at position pos is
  // exactly the rank suffix ranks[pos..m), below/eq are plain compare-sums
  // over that suffix. No counts buffer, no data-dependent branches, no
  // divider unit (DivSmall).
  uint64_t w = nops_[cell_begin + lo];
  for (size_t pos = 0; pos < m; ++pos) {
    const uint32_t head = ranks[pos];
    const size_t n_rem = m - pos;
    uint64_t below = 0;
    uint64_t eq = 0;
    for (size_t j = pos; j < m; ++j) {
      below += ranks[j] < head;
      eq += ranks[j] == head;
    }
    index += DivSmall(w * below, n_rem);
    w = DivSmall(w * eq, n_rem);
  }
  return index;
}

LabelPath SumBasedOrdering::Unrank(uint64_t index) const {
  RankScratch scratch;
  return Unrank(index, scratch);
}

LabelPath SumBasedOrdering::Unrank(uint64_t index,
                                   RankScratch& scratch) const {
  PATHEST_CHECK(index < space_.size(), "index out of range");
  scratch.Reserve(space_.num_labels());
  // Stage 1: find the length partition (paper Algorithm 2, lines 5-9).
  for (size_t len = 1; len <= space_.k(); ++len) {
    uint64_t len_count = space_.CountWithLength(len);
    if (index >= len_count) {
      index -= len_count;
      continue;
    }
    // Stage 2: find the summed-rank partition (lines 10-14) — binary search
    // over the composition prefix row instead of the paper's linear scan.
    const uint64_t sum = comps_.SumForOffset(index, len);
    index -= comps_.CumulativeBelow(sum, len);
    // Stage 3: find the combination, then the permutation (lines 15-24).
    for (const ComboBlock& block : BlocksFor(len, sum)) {
      if (index >= block.nop) {
        index -= block.nop;
        continue;
      }
      UnrankPermutationCounts(index, len, block.parts.data(),
                              scratch.counts.data(), fact_, scratch.ranks);
      LabelPath path;
      for (size_t i = 0; i < len; ++i) {
        path.PushBack(ranking_.LabelAt(scratch.ranks[i]));
      }
      return path;
    }
    PATHEST_CHECK(false, "index within sum partition but no combination");
  }
  PATHEST_CHECK(false, "unreachable: index checked against space size");
  __builtin_unreachable();
}

}  // namespace pathest

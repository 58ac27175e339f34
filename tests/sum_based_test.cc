// Unit tests for the sum-based ordering internals: Algorithm 1
// (permutation unranking within a combination), its inverse, and the
// three-stage structure of Algorithm 2.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "ordering/sum_based.h"
#include "test_util.h"

namespace pathest {
namespace {

TEST(UnrankPermutationTest, SingleElement) {
  EXPECT_EQ(UnrankPermutationOfCombination(0, {7}),
            (std::vector<uint32_t>{7}));
}

TEST(UnrankPermutationTest, DistinctPair) {
  EXPECT_EQ(UnrankPermutationOfCombination(0, {1, 3}),
            (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(UnrankPermutationOfCombination(1, {1, 3}),
            (std::vector<uint32_t>{3, 1}));
}

TEST(UnrankPermutationTest, DuplicatePairHasOnePermutation) {
  EXPECT_EQ(UnrankPermutationOfCombination(0, {2, 2}),
            (std::vector<uint32_t>{2, 2}));
}

TEST(UnrankPermutationTest, ThreeElementsWithDuplicate) {
  // C = {1,1,2}: permutations in Algorithm-1 order:
  //   (1,1,2), (1,2,1), (2,1,1).
  EXPECT_EQ(UnrankPermutationOfCombination(0, {1, 1, 2}),
            (std::vector<uint32_t>{1, 1, 2}));
  EXPECT_EQ(UnrankPermutationOfCombination(1, {1, 1, 2}),
            (std::vector<uint32_t>{1, 2, 1}));
  EXPECT_EQ(UnrankPermutationOfCombination(2, {1, 1, 2}),
            (std::vector<uint32_t>{2, 1, 1}));
}

TEST(UnrankPermutationTest, EnumeratesAllDistinctPermutations) {
  for (const std::vector<uint32_t>& combo :
       {std::vector<uint32_t>{1, 2, 3}, {1, 1, 2, 2}, {1, 2, 2, 3, 3},
        {4, 4, 4, 4}}) {
    uint64_t n = MultisetPermutationCount(combo);
    std::set<std::vector<uint32_t>> seen;
    for (uint64_t i = 0; i < n; ++i) {
      auto perm = UnrankPermutationOfCombination(i, combo);
      // Same multiset.
      auto sorted = perm;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, combo);
      EXPECT_TRUE(seen.insert(perm).second) << "duplicate at " << i;
    }
    EXPECT_EQ(seen.size(), n);
  }
}

TEST(UnrankPermutationTest, OutOfRangeIndexAborts) {
  EXPECT_DEATH(UnrankPermutationOfCombination(2, {2, 2}), "out of range");
}

TEST(RankPermutationTest, InverseOfUnrank) {
  for (const std::vector<uint32_t>& combo :
       {std::vector<uint32_t>{1, 2}, {1, 1, 3}, {1, 2, 2, 4}, {2, 2, 2}}) {
    uint64_t n = MultisetPermutationCount(combo);
    for (uint64_t i = 0; i < n; ++i) {
      auto perm = UnrankPermutationOfCombination(i, combo);
      EXPECT_EQ(RankPermutationInCombination(perm, combo), i);
    }
  }
}

TEST(RankPermutationTest, RejectsForeignPermutation) {
  EXPECT_DEATH(RankPermutationInCombination({9, 1}, {1, 2}),
               "not a permutation");
}

class SumBasedStructureTest : public ::testing::Test {
 protected:
  SumBasedStructureTest()
      : graph_(testing_util::GraphWithCardinalities(
            {{"1", 50}, {"2", 10}, {"3", 30}, {"4", 20}})),
        space_(4, 3),
        ordering_(space_,
                  LabelRanking::Cardinality(
                      graph_.labels(), {50, 10, 30, 20})) {}

  Graph graph_;
  PathSpace space_;
  SumBasedOrdering ordering_;
};

TEST_F(SumBasedStructureTest, NameIsSumBased) {
  EXPECT_EQ(ordering_.name(), "sum-based");
}

TEST_F(SumBasedStructureTest, Stage1LengthBlocksAreContiguous) {
  // Indexes [0, 4) are length 1, [4, 20) length 2, [20, 84) length 3.
  for (uint64_t i = 0; i < ordering_.size(); ++i) {
    size_t len = ordering_.Unrank(i).length();
    if (i < 4) {
      EXPECT_EQ(len, 1u);
    } else if (i < 20) {
      EXPECT_EQ(len, 2u);
    } else {
      EXPECT_EQ(len, 3u);
    }
  }
}

TEST_F(SumBasedStructureTest, Stage2SumsAreNonDecreasingWithinLength) {
  const LabelRanking& ranking = ordering_.ranking();
  for (size_t len = 1; len <= 3; ++len) {
    uint64_t prev_sum = 0;
    for (uint64_t i = space_.LengthOffset(len);
         i < space_.LengthOffset(len) + space_.CountWithLength(len); ++i) {
      LabelPath p = ordering_.Unrank(i);
      uint64_t sr = 0;
      for (size_t j = 0; j < p.length(); ++j) {
        sr += ranking.RankOf(p.label(j));
      }
      EXPECT_GE(sr, prev_sum) << "index " << i;
      prev_sum = sr;
    }
  }
}

TEST_F(SumBasedStructureTest, Stage3CombinationBlocksAreContiguous) {
  // Within one length, paths with the same rank-multiset form one contiguous
  // block.
  std::set<std::vector<uint32_t>> closed;
  std::vector<uint32_t> current;
  const LabelRanking& ranking = ordering_.ranking();
  for (uint64_t i = space_.LengthOffset(3); i < ordering_.size(); ++i) {
    LabelPath p = ordering_.Unrank(i);
    std::vector<uint32_t> combo;
    for (size_t j = 0; j < p.length(); ++j) {
      combo.push_back(ranking.RankOf(p.label(j)));
    }
    std::sort(combo.begin(), combo.end());
    if (combo != current) {
      EXPECT_TRUE(closed.insert(combo).second)
          << "combination block re-opened at index " << i;
      current = combo;
    }
  }
}

TEST_F(SumBasedStructureTest, RankRejectsForeignPath) {
  EXPECT_DEATH(ordering_.Rank(LabelPath{9}), "outside space");
  EXPECT_DEATH(ordering_.Unrank(ordering_.size()), "out of range");
}

TEST(SumStage3EntryCountTest, ClosedFormMatchesTheBuiltIndex) {
  // C(|L|+k, k) - 1 against the blocks BuildSumStage3Index enumerates, on
  // shapes under both key schemes.
  for (uint64_t num_labels : {1u, 2u, 3u, 6u, 8u, 70u}) {
    for (uint64_t k : {1u, 2u, 3u, 4u}) {
      const SumStage3Index index = BuildSumStage3Index(num_labels, k);
      ASSERT_NE(index.scheme, SumKeyScheme::kNone);
      auto entries = SumStage3EntryCount(num_labels, k);
      ASSERT_TRUE(entries.ok()) << entries.status().ToString();
      EXPECT_EQ(*entries, index.keys.size())
          << "|L|=" << num_labels << " k=" << k;
    }
  }
  // The benchmark's graphs (8 labels) at k = 6, and 2048 labels at k = 2.
  EXPECT_EQ(*SumStage3EntryCount(8, 6), 3002u);
  EXPECT_EQ(*SumStage3EntryCount(2048, 2), 2100224u);
}

TEST(SumStage3EntryCountTest, RefusesOversizedAndOverflowingShapes) {
  auto at_limit = SumStage3EntryCount(2048, 5);
  ASSERT_FALSE(at_limit.ok());
  EXPECT_EQ(at_limit.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(at_limit.status().message().find("over the limit"),
            std::string::npos)
      << at_limit.status().ToString();
  EXPECT_NE(at_limit.status().message().find("|L|=2048, k=5"),
            std::string::npos);
  // C(2^40 + 16, 16) is far past u64: refused, never wrapped.
  auto overflow = SumStage3EntryCount(uint64_t{1} << 40, 16);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(overflow.status().message().find("overflows u64"),
            std::string::npos)
      << overflow.status().ToString();
  EXPECT_FALSE(SumStage3EntryCount(UINT64_MAX, 16).ok());
  // At 2048 labels, k = 2 is within the limit and k = 3 past it.
  EXPECT_TRUE(SumStage3EntryCount(2048, 2).ok());
  EXPECT_FALSE(SumStage3EntryCount(2048, 3).ok());
}

}  // namespace
}  // namespace pathest

// Unit tests for LabelPath, PathSpace, and the greedy splitter.

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "path/label_path.h"
#include "path/path_space.h"
#include "path/splitter.h"
#include "test_util.h"

namespace pathest {
namespace {

TEST(LabelPathTest, BasicAccessors) {
  LabelPath p{2, 0, 1};
  EXPECT_EQ(p.length(), 3u);
  EXPECT_EQ(p.label(0), 2u);
  EXPECT_EQ(p.label(2), 1u);
  EXPECT_FALSE(p.empty());
  EXPECT_TRUE(LabelPath{}.empty());
}

TEST(LabelPathTest, ExtendAndPrefixSuffix) {
  LabelPath p{1, 2};
  LabelPath q = p.Extend(3);
  EXPECT_EQ(q.length(), 3u);
  EXPECT_EQ(p.length(), 2u);  // Extend does not mutate
  EXPECT_EQ(q.Prefix(2), p);
  EXPECT_EQ(q.Suffix(1), (LabelPath{2, 3}));
  EXPECT_EQ(q.Suffix(3), LabelPath{});
}

TEST(LabelPathTest, PushPopRoundTrip) {
  LabelPath p;
  p.PushBack(5);
  p.PushBack(6);
  EXPECT_EQ(p, (LabelPath{5, 6}));
  p.PopBack();
  EXPECT_EQ(p, LabelPath{5});
}

TEST(LabelPathTest, CanonicalComparisonIsLengthMajor) {
  EXPECT_LT(LabelPath{9}, (LabelPath{0, 0}));
  EXPECT_LT((LabelPath{0, 1}), (LabelPath{0, 2}));
  EXPECT_LT((LabelPath{0, 9}), (LabelPath{1, 0}));
  EXPECT_FALSE(LabelPath{1} < LabelPath{1});
}

TEST(LabelPathTest, HashDistinguishesLengthAndContent) {
  EXPECT_NE(LabelPath{1}.Hash(), (LabelPath{1, 0}).Hash());
  EXPECT_NE((LabelPath{1, 2}).Hash(), (LabelPath{2, 1}).Hash());
  EXPECT_EQ((LabelPath{1, 2}).Hash(), (LabelPath{1, 2}).Hash());
}

TEST(LabelPathTest, ParseAndToString) {
  Graph g = testing_util::SmallGraph();
  auto p = LabelPath::Parse("a/b/c", g.labels());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->length(), 3u);
  EXPECT_EQ(p->ToString(g.labels()), "a/b/c");
}

TEST(LabelPathTest, ParseRejectsMalformedPathsWithStableMessages) {
  Graph g = testing_util::SmallGraph();
  const auto expect_error = [&](std::string_view text, StatusCode code,
                                const std::string& message) {
    const Status status = LabelPath::Parse(text, g.labels()).status();
    EXPECT_EQ(status.code(), code) << text;
    EXPECT_EQ(status.message(), message) << text;
  };
  expect_error("a/zz", StatusCode::kNotFound, "unknown edge label: zz");
  expect_error("", StatusCode::kInvalidArgument, "empty label path: ''");
  expect_error("a//b", StatusCode::kInvalidArgument,
               "empty label in path: 'a//b'");
  expect_error("/a", StatusCode::kInvalidArgument,
               "empty label in path: '/a'");
  expect_error("/", StatusCode::kInvalidArgument, "empty label in path: '/'");
  // A trailing '/' leaves an empty last label, like any other.
  expect_error("a/", StatusCode::kInvalidArgument,
               "empty label in path: 'a/'");
  expect_error("a/b/", StatusCode::kInvalidArgument,
               "empty label in path: 'a/b/'");
}

TEST(LabelPathTest, ParseAcceptsExactlyKMaxPathLengthLabels) {
  Graph g = testing_util::SmallGraph();
  std::string text = "a";
  for (size_t i = 1; i < kMaxPathLength; ++i) text += "/b";
  auto full = LabelPath::Parse(text, g.labels());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->length(), kMaxPathLength);
  EXPECT_EQ(full->ToString(g.labels()), text);

  text += "/c";
  const Status over = LabelPath::Parse(text, g.labels()).status();
  EXPECT_EQ(over.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(over.message(), "path longer than kMaxPathLength: " + text);
}

TEST(LabelPathTest, ParseAndFindReadOnlyTheView) {
  // Views cut from the middle of a larger buffer, with no NUL after them:
  // a parser that reads past the view's end would see "bc" or "cx".
  Graph g = testing_util::SmallGraph();
  const std::string buffer = "xa/bc/cx";
  const std::string_view whole(buffer);
  auto path = LabelPath::Parse(whole.substr(1, 3), g.labels());  // "a/b"
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path->ToString(g.labels()), "a/b");
  path = LabelPath::Parse(whole.substr(4, 3), g.labels());  // "c/c"
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path->ToString(g.labels()), "c/c");
  // The same bytes one past the view's end are an unknown label.
  EXPECT_EQ(LabelPath::Parse(whole.substr(1, 4), g.labels()).status().code(),
            StatusCode::kNotFound);

  auto a = g.labels().Find(whole.substr(1, 1));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(g.labels().Name(*a), "a");
  auto b = g.labels().Find(whole.substr(3, 1));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(g.labels().Name(*b), "b");
}

TEST(LabelDictionaryTest, FindMatchesWholeNamesOnly) {
  LabelDictionary dict;
  const LabelId ab = dict.Intern("ab");
  auto found = dict.Find("ab");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, ab);
  // A prefix or an extension of a known name is a different, unknown name.
  for (std::string_view name : {"a", "abc", "b", ""}) {
    const Status status = dict.Find(name).status();
    EXPECT_EQ(status.code(), StatusCode::kNotFound) << name;
    EXPECT_EQ(status.message(), "unknown edge label: " + std::string(name));
  }
  EXPECT_EQ(LabelPath::Parse("a", dict).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LabelPath::Parse("ab/a", dict).status().code(),
            StatusCode::kNotFound);
}

TEST(LabelPathTest, CapacityIsEnforced) {
  LabelPath p;
  for (size_t i = 0; i < kMaxPathLength; ++i) p.PushBack(0);
  EXPECT_DEATH(p.PushBack(0), "kMaxPathLength");
}

TEST(PathSpaceTest, SizesMatchGeometricSeries) {
  PathSpace space(3, 2);
  EXPECT_EQ(space.size(), 12u);  // 3 + 9
  EXPECT_EQ(space.CountWithLength(1), 3u);
  EXPECT_EQ(space.CountWithLength(2), 9u);
  EXPECT_EQ(space.LengthOffset(1), 0u);
  EXPECT_EQ(space.LengthOffset(2), 3u);

  PathSpace big(8, 6);
  EXPECT_EQ(big.size(), 8u + 64 + 512 + 4096 + 32768 + 262144);
}

TEST(PathSpaceTest, CanonicalRoundTrip) {
  PathSpace space(4, 3);
  for (uint64_t i = 0; i < space.size(); ++i) {
    LabelPath p = space.CanonicalPath(i);
    EXPECT_EQ(space.CanonicalIndex(p), i);
    EXPECT_TRUE(space.Contains(p));
  }
}

TEST(PathSpaceTest, ForEachVisitsCanonicalOrderExactlyOnce) {
  PathSpace space(3, 3);
  uint64_t expected = 0;
  space.ForEach([&](const LabelPath& p) {
    EXPECT_EQ(space.CanonicalIndex(p), expected);
    ++expected;
  });
  EXPECT_EQ(expected, space.size());
}

TEST(PathSpaceTest, ContainsRejectsForeignPaths) {
  PathSpace space(3, 2);
  EXPECT_FALSE(space.Contains(LabelPath{}));            // empty
  EXPECT_FALSE(space.Contains(LabelPath{3}));           // label out of range
  EXPECT_FALSE(space.Contains((LabelPath{0, 0, 0})));   // too long
  EXPECT_TRUE(space.Contains((LabelPath{2, 2})));
}

TEST(BaseLabelSetTest, SingleLabels) {
  BaseLabelSet base = BaseLabelSet::SingleLabels(4);
  EXPECT_EQ(base.size(), 4u);
  EXPECT_EQ(base.max_piece_length(), 1u);
  EXPECT_TRUE(base.Contains(LabelPath{3}));
  EXPECT_FALSE(base.Contains((LabelPath{0, 1})));
}

TEST(BaseLabelSetTest, UpToLengthIsL2) {
  BaseLabelSet base = BaseLabelSet::UpToLength(3, 2);
  EXPECT_EQ(base.size(), 12u);  // |L_2| over 3 labels
  EXPECT_TRUE(base.Contains((LabelPath{2, 1})));
  EXPECT_EQ(base.max_piece_length(), 2u);
}

TEST(BaseLabelSetTest, CustomRequiresSingles) {
  auto missing =
      BaseLabelSet::Custom(2, {LabelPath{0}, LabelPath{0, 1}});
  EXPECT_FALSE(missing.ok());  // single label 1 absent
  auto ok = BaseLabelSet::Custom(2, {LabelPath{0}, LabelPath{1},
                                     LabelPath{0, 1}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 3u);
}

TEST(GreedySplitTest, PaperExample) {
  // Paper §3.1: with B = L_2, "4/4/3/3/6" splits into "4/4", "3/3", "6".
  // Using ids: labels 0..5 stand for "1".."6".
  BaseLabelSet base = BaseLabelSet::UpToLength(6, 2);
  LabelPath path{3, 3, 2, 2, 5};
  auto pieces = GreedySplit(path, base);
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], (LabelPath{3, 3}));
  EXPECT_EQ(pieces[1], (LabelPath{2, 2}));
  EXPECT_EQ(pieces[2], (LabelPath{5}));
}

TEST(GreedySplitTest, SingleLabelBaseSplitsFully) {
  BaseLabelSet base = BaseLabelSet::SingleLabels(4);
  LabelPath path{1, 2, 3};
  auto pieces = GreedySplit(path, base);
  ASSERT_EQ(pieces.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(pieces[i].length(), 1u);
}

TEST(GreedySplitTest, PiecesConcatenateToOriginal) {
  BaseLabelSet base = BaseLabelSet::UpToLength(3, 2);
  PathSpace space(3, 5);
  space.ForEach([&](const LabelPath& p) {
    LabelPath rebuilt;
    for (const LabelPath& piece : GreedySplit(p, base)) {
      for (size_t i = 0; i < piece.length(); ++i) {
        rebuilt.PushBack(piece.label(i));
      }
    }
    EXPECT_EQ(rebuilt, p);
  });
}

TEST(GreedySplitTest, GreedyPrefersLongestPiece) {
  // Custom base {0, 1, 0/1}: path 0/1 must split as one piece, not two.
  auto base = BaseLabelSet::Custom(2, {LabelPath{0}, LabelPath{1},
                                       LabelPath{0, 1}});
  ASSERT_TRUE(base.ok());
  auto pieces = GreedySplit((LabelPath{0, 1}), *base);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], (LabelPath{0, 1}));
}

}  // namespace
}  // namespace pathest

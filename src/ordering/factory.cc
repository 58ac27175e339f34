#include "ordering/factory.h"

#include <memory>

#include "graph/graph_stats.h"
#include "ordering/composite.h"
#include "ordering/gray.h"
#include "ordering/ideal.h"
#include "ordering/lexicographic.h"
#include "ordering/numerical.h"
#include "ordering/random_order.h"
#include "ordering/ranking.h"
#include "ordering/sum_based.h"
#include "path/splitter.h"

namespace pathest {

const std::vector<std::string>& PaperOrderingNames() {
  static const std::vector<std::string> kNames = {
      "num-alph", "num-card", "lex-alph", "lex-card", "sum-based"};
  return kNames;
}

namespace {

std::vector<uint64_t> LabelCardinalities(const Graph& graph) {
  std::vector<uint64_t> f(graph.num_labels());
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    f[l] = graph.LabelCardinality(l);
  }
  return f;
}

}  // namespace

Result<OrderingPtr> MakeOrdering(const std::string& name, const Graph& graph,
                                 size_t k) {
  return MakeOrderingFromStats(name, graph.labels(),
                               LabelCardinalities(graph), k);
}

Result<OrderingPtr> MakeOrderingFromStats(
    const std::string& name, const LabelDictionary& dict,
    const std::vector<uint64_t>& cardinalities, size_t k) {
  if (dict.size() == 0) {
    return Status::InvalidArgument("empty label set");
  }
  if (cardinalities.size() != dict.size()) {
    return Status::InvalidArgument("cardinalities size mismatch");
  }
  // Rejects an out-of-range k or an |L_k| past u64 before PathSpace
  // (whose checks abort) is built.
  PATHEST_RETURN_NOT_OK(PathSpaceSize(dict.size(), k).status());
  // The sum family's stage-three index (or, without a key scheme, its
  // block scan) has one entry per label multiset: bound it before any is
  // built.
  if (name == "sum-based" || name == "sum-card" || name == "sum-alph") {
    PATHEST_RETURN_NOT_OK(SumStage3EntryCount(dict.size(), k).status());
  }
  PathSpace space(dict.size(), k);
  auto ranking = [&](RankingRule rule) {
    return LabelRanking::Make(rule, dict, cardinalities);
  };

  if (name == "num-alph") {
    return OrderingPtr(
        new NumericalOrdering(space, ranking(RankingRule::kAlphabetical)));
  }
  if (name == "num-card") {
    return OrderingPtr(
        new NumericalOrdering(space, ranking(RankingRule::kCardinality)));
  }
  if (name == "lex-alph") {
    return OrderingPtr(
        new LexicographicOrdering(space, ranking(RankingRule::kAlphabetical)));
  }
  if (name == "lex-card") {
    return OrderingPtr(
        new LexicographicOrdering(space, ranking(RankingRule::kCardinality)));
  }
  if (name == "sum-based" || name == "sum-card") {
    return OrderingPtr(
        new SumBasedOrdering(space, ranking(RankingRule::kCardinality)));
  }
  if (name == "sum-alph") {
    return OrderingPtr(
        new SumBasedOrdering(space, ranking(RankingRule::kAlphabetical)));
  }
  if (name == "gray-alph") {
    return OrderingPtr(
        new GrayOrdering(space, ranking(RankingRule::kAlphabetical)));
  }
  if (name == "gray-card") {
    return OrderingPtr(
        new GrayOrdering(space, ranking(RankingRule::kCardinality)));
  }
  if (name == "random") {
    return OrderingPtr(new RandomOrdering(space, /*seed=*/0x9A7));
  }
  return Status::NotFound("unknown ordering method: " + name);
}

Result<OrderingPtr> MakeOrderingWithSelectivities(
    const std::string& name, const Graph& graph, size_t k,
    const SelectivityMap& selectivities) {
  if (name == "ideal") {
    if (selectivities.space().k() != k ||
        selectivities.space().num_labels() != graph.num_labels()) {
      return Status::InvalidArgument(
          "selectivity map space does not match requested ordering space");
    }
    return OrderingPtr(new IdealOrdering(selectivities));
  }
  if (name == "sum-L2") {
    if (graph.num_labels() == 0) {
      return Status::InvalidArgument("graph has no labels");
    }
    if (selectivities.space().k() < 2) {
      return Status::InvalidArgument(
          "sum-L2 needs selectivities covering length-2 paths");
    }
    PATHEST_RETURN_NOT_OK(PathSpaceSize(graph.num_labels(), k).status());
    PathSpace space(graph.num_labels(), k);
    BaseLabelSet base = BaseLabelSet::UpToLength(graph.num_labels(), 2);
    return OrderingPtr(new CompositeBaseOrdering(space, base, selectivities));
  }
  return MakeOrdering(name, graph, k);
}

}  // namespace pathest

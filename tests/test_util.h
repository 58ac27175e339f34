// Shared helpers for pathest tests.

#ifndef PATHEST_TESTS_TEST_UTIL_H_
#define PATHEST_TESTS_TEST_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "util/status.h"

namespace pathest {
namespace testing_util {

// Builds a graph whose per-label cardinalities are exactly as requested, by
// laying out disjoint (src, dst) pairs per label. Vertex ids are arbitrary.
inline Graph GraphWithCardinalities(
    const std::vector<std::pair<std::string, uint64_t>>& label_cards) {
  GraphBuilder builder;
  VertexId next = 0;
  for (const auto& [name, card] : label_cards) {
    LabelId l = builder.AddLabel(name);
    for (uint64_t i = 0; i < card; ++i) {
      builder.AddEdge(next, l, next + 1);
      next += 2;
    }
  }
  auto graph = builder.Build();
  PATHEST_CHECK(graph.ok(), "GraphWithCardinalities build failed");
  return std::move(graph).ValueOrDie();
}

// The artificial dataset of the paper's Section 3.4: labels "1", "2", "3"
// with cardinalities 20, 100, 80.
inline Graph PaperExampleGraph() {
  return GraphWithCardinalities({{"1", 20}, {"2", 100}, {"3", 80}});
}

// A small deterministic diamond-ish graph for selectivity tests:
//   0 -a-> 1, 0 -a-> 2, 1 -b-> 3, 2 -b-> 3, 3 -c-> 0, 1 -a-> 3.
inline Graph SmallGraph() {
  GraphBuilder builder;
  builder.AddEdge(0, "a", 1);
  builder.AddEdge(0, "a", 2);
  builder.AddEdge(1, "b", 3);
  builder.AddEdge(2, "b", 3);
  builder.AddEdge(3, "c", 0);
  builder.AddEdge(1, "a", 3);
  auto graph = builder.Build(/*with_reverse=*/true);
  PATHEST_CHECK(graph.ok(), "SmallGraph build failed");
  return std::move(graph).ValueOrDie();
}

// The committed binary catalog v1 image (the format is retired): the
// fixture of every "v1 magic is a typed error" test.
inline std::string RetiredV1FixturePath() {
  return std::string(PATHEST_SOURCE_DIR) + "/tests/golden/catalog_v1.stats";
}

// A crafted 15 KB text catalog entry — sum-based, 2048 labels at k = 5,
// within the reader's label and k caps, with |L_k| ≈ 3.6·10^16 fitting
// u64 — whose stage-three index would need C(2053, 5) - 1 ≈ 3·10^14
// entries: the fixture of every "oversized path space is a typed error"
// test. Readers used to hang building that index.
inline std::string OversizedPathSpaceFixturePath() {
  return std::string(PATHEST_SOURCE_DIR) +
         "/tests/golden/oversized_path_space.stats";
}

// True when `status` is the typed refusal of OversizedPathSpaceFixturePath:
// the text reader's IOError naming the index bound, |L| and k.
inline bool IsOversizedPathSpaceError(const Status& status) {
  return status.code() == StatusCode::kIOError &&
         status.message().find("sum-based index needs") != std::string::npos &&
         status.message().find("|L|=2048, k=5") != std::string::npos;
}

// True when `status` is the typed refusal of a retired v1 catalog: an
// IOError naming the format and the upgrade command (and NOT the text
// parser's complaint, which would mean v1 bytes were parsed as text).
inline bool IsRetiredV1Error(const Status& status) {
  const std::string& m = status.message();
  return status.code() == StatusCode::kIOError &&
         m.find("retired binary catalog v1") != std::string::npos &&
         m.find("catalog convert") != std::string::npos &&
         m.find("--format binary-v2") != std::string::npos;
}

}  // namespace testing_util
}  // namespace pathest

#endif  // PATHEST_TESTS_TEST_UTIL_H_

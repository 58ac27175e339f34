// Tests for the StatisticsCatalog integration layer.

#include <filesystem>

#include <gtest/gtest.h>

#include "core/catalog.h"
#include "core/catalog_cache.h"
#include "core/serialize.h"
#include "serve/snapshot_registry.h"
#include "test_util.h"
#include "util/timer.h"

namespace pathest {
namespace {

using testing_util::SmallGraph;

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : graph_(SmallGraph()) {}

  StatisticsCatalog MakeCatalog(size_t k = 3) {
    auto catalog = StatisticsCatalog::Analyze(graph_, k);
    PATHEST_CHECK(catalog.ok(), "analyze failed");
    return std::move(*catalog);
  }

  Graph graph_;
};

TEST_F(CatalogTest, AnalyzeComputesExactSelectivities) {
  StatisticsCatalog catalog = MakeCatalog();
  LabelId a = *graph_.labels().Find("a");
  EXPECT_EQ(catalog.ExactSelectivity(LabelPath{a}),
            graph_.LabelCardinality(a));
  EXPECT_EQ(catalog.k(), 3u);
}

TEST_F(CatalogTest, BuildAndQueryEstimators) {
  StatisticsCatalog catalog = MakeCatalog();
  CatalogEntryConfig config;
  config.ordering = "sum-based";
  config.num_buckets = 8;
  ASSERT_TRUE(catalog.BuildEstimator("default", config).ok());

  CatalogEntryConfig cheap;
  cheap.ordering = "num-alph";
  cheap.histogram_type = HistogramType::kEquiWidth;
  cheap.num_buckets = 4;
  ASSERT_TRUE(catalog.BuildEstimator("cheap", cheap).ok());

  EXPECT_EQ(catalog.EstimatorNames(),
            (std::vector<std::string>{"cheap", "default"}));

  LabelId a = *graph_.labels().Find("a");
  auto estimate = catalog.Estimate("default", LabelPath{a});
  ASSERT_TRUE(estimate.ok());
  EXPECT_GE(*estimate, 0.0);

  auto missing = catalog.Estimate("nope", LabelPath{a});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, RebuildReplacesEstimator) {
  StatisticsCatalog catalog = MakeCatalog();
  CatalogEntryConfig config;
  config.num_buckets = 4;
  ASSERT_TRUE(catalog.BuildEstimator("e", config).ok());
  config.num_buckets = 16;
  ASSERT_TRUE(catalog.BuildEstimator("e", config).ok());
  auto est = catalog.GetEstimator("e");
  ASSERT_TRUE(est.ok());
  EXPECT_EQ((*est)->histogram().num_buckets(), 16u);
  EXPECT_EQ(catalog.EstimatorNames().size(), 1u);
}

TEST_F(CatalogTest, RejectsPathOutsideSpace) {
  StatisticsCatalog catalog = MakeCatalog(2);
  CatalogEntryConfig config;
  config.num_buckets = 4;
  ASSERT_TRUE(catalog.BuildEstimator("e", config).ok());
  LabelId a = *graph_.labels().Find("a");
  auto too_long = catalog.Estimate("e", LabelPath{a, a, a});
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CatalogTest, SupportsIdealAndCompositeEntries) {
  StatisticsCatalog catalog = MakeCatalog();
  CatalogEntryConfig ideal;
  ideal.ordering = "ideal";
  ideal.num_buckets = 8;
  EXPECT_TRUE(catalog.BuildEstimator("ideal", ideal).ok());
  CatalogEntryConfig composite;
  composite.ordering = "sum-L2";
  composite.num_buckets = 8;
  EXPECT_TRUE(catalog.BuildEstimator("l2", composite).ok());
}

TEST_F(CatalogTest, StalenessTracking) {
  StatisticsCatalog catalog = MakeCatalog();
  EXPECT_DOUBLE_EQ(catalog.Staleness(), 0.0);
  EXPECT_FALSE(catalog.NeedsRefresh());
  // SmallGraph has 6 edges; 1 change = 16.7% staleness.
  catalog.RecordDataChanges(1);
  EXPECT_NEAR(catalog.Staleness(), 1.0 / 6.0, 1e-12);
  EXPECT_TRUE(catalog.NeedsRefresh(0.1));
  EXPECT_FALSE(catalog.NeedsRefresh(0.5));
}

TEST_F(CatalogTest, SaveAllPersistsSerializableEntries) {
  StatisticsCatalog catalog = MakeCatalog();
  CatalogEntryConfig sum;
  sum.ordering = "sum-based";
  sum.num_buckets = 8;
  ASSERT_TRUE(catalog.BuildEstimator("sum", sum).ok());
  CatalogEntryConfig ideal;
  ideal.ordering = "ideal";
  ideal.num_buckets = 8;
  ASSERT_TRUE(catalog.BuildEstimator("ideal", ideal).ok());

  auto dir = std::filesystem::temp_directory_path() / "pathest_catalog_test";
  std::filesystem::create_directories(dir);
  std::vector<std::string> skipped;
  ASSERT_TRUE(catalog.SaveAll(dir.string(), &skipped).ok());
  EXPECT_EQ(skipped, std::vector<std::string>{"ideal"});
  ASSERT_TRUE(std::filesystem::exists(dir / "sum.stats"));

  // The persisted estimator answers identically after reload.
  auto loaded = LoadPathHistogram((dir / "sum.stats").string());
  ASSERT_TRUE(loaded.ok());
  auto original = catalog.GetEstimator("sum");
  ASSERT_TRUE(original.ok());
  PathSpace space(graph_.num_labels(), 3);
  space.ForEach([&](const LabelPath& p) {
    EXPECT_DOUBLE_EQ(loaded->estimator.Estimate(p),
                     (*original)->Estimate(p));
  });
  std::filesystem::remove_all(dir);
}

TEST_F(CatalogTest, SaveAllBinaryV2LoadAllRoundTrip) {
  StatisticsCatalog catalog = MakeCatalog();
  CatalogEntryConfig config;
  config.ordering = "sum-based";
  config.num_buckets = 8;
  ASSERT_TRUE(catalog.BuildEstimator("sum", config).ok());
  config.ordering = "lex-card";
  ASSERT_TRUE(catalog.BuildEstimator("lex", config).ok());

  auto dir =
      std::filesystem::temp_directory_path() / "pathest_catalog_bin_test";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(
      catalog.SaveAll(dir.string(), nullptr, CatalogFormat::kBinaryV2).ok());

  StatisticsCatalog fresh = MakeCatalog();
  CatalogLoadReport report;
  ASSERT_TRUE(fresh.LoadAll(dir.string(), &report).ok());
  EXPECT_TRUE(report.fully_healthy());
  EXPECT_EQ(report.loaded, (std::vector<std::string>{"lex", "sum"}));
  PathSpace space(graph_.num_labels(), 3);
  for (const char* name : {"sum", "lex"}) {
    auto original = catalog.GetEstimator(name);
    auto reloaded = fresh.GetEstimator(name);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(reloaded.ok());
    space.ForEach([&](const LabelPath& p) {
      EXPECT_EQ((*reloaded)->Estimate(p), (*original)->Estimate(p)) << name;
    });
  }
  std::filesystem::remove_all(dir);
}

TEST_F(CatalogTest, LoadAllQuarantinesForeignLabelDictionary) {
  // An entry persisted against a DIFFERENT graph parses cleanly but would
  // serve wrong estimates — LoadAll must quarantine it, not register it.
  auto dir =
      std::filesystem::temp_directory_path() / "pathest_catalog_foreign";
  std::filesystem::create_directories(dir);
  Graph foreign = testing_util::GraphWithCardinalities(
      {{"x", 3}, {"y", 5}, {"z", 2}});
  auto foreign_catalog = StatisticsCatalog::Analyze(foreign, 3);
  ASSERT_TRUE(foreign_catalog.ok());
  CatalogEntryConfig config;
  config.ordering = "sum-based";
  config.num_buckets = 4;
  ASSERT_TRUE(foreign_catalog->BuildEstimator("foreign", config).ok());
  ASSERT_TRUE(foreign_catalog->SaveAll(dir.string()).ok());

  StatisticsCatalog catalog = MakeCatalog();
  CatalogLoadReport report;
  ASSERT_TRUE(catalog.LoadAll(dir.string(), &report).ok());
  EXPECT_TRUE(report.loaded.empty());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].status.message().find("label dictionary"),
            std::string::npos);
  EXPECT_EQ(catalog.EstimatorNames(), std::vector<std::string>{});
  std::filesystem::remove_all(dir);
}

TEST_F(CatalogTest, RetiredV1EntryIsQuarantinedByEveryCatalogLoad) {
  // A v1 entry beside a healthy one: every directory-level loader must
  // quarantine it with the typed retired-format error and keep serving
  // the rest.
  auto dir =
      std::filesystem::temp_directory_path() / "pathest_catalog_retired_v1";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StatisticsCatalog catalog = MakeCatalog();
  CatalogEntryConfig config;
  config.ordering = "sum-based";
  config.num_buckets = 6;
  ASSERT_TRUE(catalog.BuildEstimator("good", config).ok());
  ASSERT_TRUE(catalog.SaveAll(dir.string()).ok());
  std::filesystem::copy_file(testing_util::RetiredV1FixturePath(),
                             dir / "old.stats");

  StatisticsCatalog fresh = MakeCatalog();
  CatalogLoadReport report;
  ASSERT_TRUE(fresh.LoadAll(dir.string(), &report).ok());
  EXPECT_EQ(report.loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_TRUE(testing_util::IsRetiredV1Error(report.failures[0].status))
      << report.failures[0].status.ToString();

  auto verify = VerifyCatalogDir(dir.string());
  ASSERT_TRUE(verify.ok());
  EXPECT_EQ(verify->loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(verify->failures.size(), 1u);
  EXPECT_TRUE(testing_util::IsRetiredV1Error(verify->failures[0].status));

  CatalogCache cache;
  auto served = serve::LoadCatalogSnapshots(dir.string(), 1, &cache);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->report.loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(served->report.failures.size(), 1u);
  EXPECT_TRUE(
      testing_util::IsRetiredV1Error(served->report.failures[0].status));
  EXPECT_EQ(served->snapshots.count("old"), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(CatalogTest, OversizedPathSpaceEntryIsQuarantined) {
  // An entry whose sum-based index is too large to build, beside a
  // healthy one: verify must report it at once and the serving loader
  // must quarantine it while the sibling still serves — both used to run
  // until killed, building the index.
  auto dir =
      std::filesystem::temp_directory_path() / "pathest_catalog_oversized";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StatisticsCatalog catalog = MakeCatalog();
  CatalogEntryConfig config;
  config.ordering = "sum-based";
  config.num_buckets = 6;
  ASSERT_TRUE(catalog.BuildEstimator("good", config).ok());
  ASSERT_TRUE(catalog.SaveAll(dir.string()).ok());
  std::filesystem::copy_file(testing_util::OversizedPathSpaceFixturePath(),
                             dir / "huge.stats");

  Timer timer;
  auto verify = VerifyCatalogDir(dir.string());
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
  ASSERT_TRUE(verify.ok());
  EXPECT_EQ(verify->loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(verify->failures.size(), 1u);
  EXPECT_TRUE(
      testing_util::IsOversizedPathSpaceError(verify->failures[0].status))
      << verify->failures[0].status.ToString();

  CatalogCache cache;
  auto served = serve::LoadCatalogSnapshots(dir.string(), 1, &cache);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->report.loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(served->report.failures.size(), 1u);
  EXPECT_TRUE(testing_util::IsOversizedPathSpaceError(
      served->report.failures[0].status))
      << served->report.failures[0].status.ToString();
  EXPECT_EQ(served->snapshots.count("huge"), 0u);
  EXPECT_EQ(served->snapshots.count("good"), 1u);
  std::filesystem::remove_all(dir);
}

TEST_F(CatalogTest, LoadAllMissingDirIsNotFound) {
  StatisticsCatalog catalog = MakeCatalog();
  CatalogLoadReport report;
  EXPECT_EQ(catalog.LoadAll("/nonexistent/catalog_dir", &report).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace pathest

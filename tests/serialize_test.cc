// Tests for estimator persistence (core/serialize.h): format round-trips,
// estimate preservation, and corruption handling.

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "test_util.h"
#include "util/combinatorics.h"
#include "util/timer.h"

namespace pathest {
namespace {

using testing_util::SmallGraph;

class SerializeTest : public ::testing::Test {
 protected:
  SerializeTest() : graph_(SmallGraph()) {
    auto map = ComputeSelectivities(graph_, 3);
    PATHEST_CHECK(map.ok(), "selectivities failed");
    map_ = std::make_unique<SelectivityMap>(std::move(*map));
  }

  PathHistogram BuildEstimator(const std::string& method, size_t beta) {
    auto ordering = MakeOrdering(method, graph_, 3);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto est = PathHistogram::Build(*map_, std::move(*ordering),
                                    HistogramType::kVOptimal, beta);
    PATHEST_CHECK(est.ok(), "estimator failed");
    return std::move(*est);
  }

  std::string Serialized(const PathHistogram& est) {
    std::vector<uint64_t> cards;
    for (LabelId l = 0; l < graph_.num_labels(); ++l) {
      cards.push_back(graph_.LabelCardinality(l));
    }
    std::ostringstream out;
    PATHEST_CHECK(
        WritePathHistogram(est, graph_.labels(), cards, &out).ok(),
        "write failed");
    return out.str();
  }

  Graph graph_;
  std::unique_ptr<SelectivityMap> map_;
};

TEST_F(SerializeTest, SerializableOrderingPredicate) {
  for (const char* ok :
       {"num-alph", "num-card", "lex-alph", "lex-card", "sum-based",
        "gray-card"}) {
    EXPECT_TRUE(IsSerializableOrdering(ok)) << ok;
  }
  for (const char* bad : {"ideal", "random", "sum-L2", "bogus"}) {
    EXPECT_FALSE(IsSerializableOrdering(bad)) << bad;
  }
}

TEST_F(SerializeTest, RoundTripPreservesEveryEstimate) {
  for (const std::string& method : PaperOrderingNames()) {
    PathHistogram original = BuildEstimator(method, 8);
    std::istringstream in(Serialized(original));
    auto loaded = ReadPathHistogram(&in);
    ASSERT_TRUE(loaded.ok()) << method << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->estimator.ordering().name(), method);
    EXPECT_EQ(loaded->estimator.histogram().num_buckets(), 8u);
    PathSpace space(graph_.num_labels(), 3);
    space.ForEach([&](const LabelPath& p) {
      // Re-parse the path against the loaded dictionary in case label ids
      // were re-assigned (they are written in id order, so they are not).
      EXPECT_DOUBLE_EQ(loaded->estimator.Estimate(p), original.Estimate(p))
          << method << " " << p.ToIdString();
    });
  }
}

TEST_F(SerializeTest, RoundTripPreservesBucketsExactly) {
  PathHistogram original = BuildEstimator("sum-based", 6);
  std::istringstream in(Serialized(original));
  auto loaded = ReadPathHistogram(&in);
  ASSERT_TRUE(loaded.ok());
  const auto& a = original.histogram().buckets();
  const auto& b = loaded->estimator.histogram().buckets();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_DOUBLE_EQ(a[i].sum, b[i].sum);      // hexfloat: bit-exact
    EXPECT_DOUBLE_EQ(a[i].sumsq, b[i].sumsq);
  }
  EXPECT_EQ(loaded->estimator.histogram_type(), HistogramType::kVOptimal);
}

TEST_F(SerializeTest, FileRoundTrip) {
  PathHistogram original = BuildEstimator("lex-card", 4);
  std::string path = (std::filesystem::temp_directory_path() /
                      "pathest_serialize_test.stats")
                         .string();
  ASSERT_TRUE(SavePathHistogram(original, graph_, path).ok());
  auto loaded = LoadPathHistogram(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->estimator.ordering().name(), "lex-card");
  std::filesystem::remove(path);
}

TEST_F(SerializeTest, RefusesMaterializedOrderings) {
  auto ideal = MakeOrderingWithSelectivities("ideal", graph_, 3, *map_);
  ASSERT_TRUE(ideal.ok());
  auto est = PathHistogram::Build(*map_, std::move(*ideal),
                                  HistogramType::kVOptimal, 4);
  ASSERT_TRUE(est.ok());
  std::vector<uint64_t> cards(graph_.num_labels(), 1);
  std::ostringstream out;
  Status st = WritePathHistogram(*est, graph_.labels(), cards, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, RejectsBadMagic) {
  std::istringstream in("not a histogram file\n");
  EXPECT_EQ(ReadPathHistogram(&in).status().code(), StatusCode::kIOError);
}

TEST_F(SerializeTest, RejectsTruncatedFile) {
  std::string full = Serialized(BuildEstimator("num-card", 4));
  // Drop the last two lines.
  std::string truncated = full.substr(0, full.rfind('\n', full.size() - 2));
  truncated = truncated.substr(0, truncated.rfind('\n'));
  std::istringstream in(truncated);
  EXPECT_FALSE(ReadPathHistogram(&in).ok());
}

TEST_F(SerializeTest, RejectsCorruptedBuckets) {
  std::string full = Serialized(BuildEstimator("num-card", 4));
  // Corrupt a bucket boundary to break contiguity.
  size_t pos = full.find("buckets 4\n");
  ASSERT_NE(pos, std::string::npos);
  size_t line_start = pos + std::string("buckets 4\n").size();
  size_t line_end = full.find('\n', line_start);
  full.replace(line_start, line_end - line_start, "5 7 0x1p+3 0x1p+6");
  std::istringstream in(full);
  EXPECT_FALSE(ReadPathHistogram(&in).ok());
}

TEST_F(SerializeTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadPathHistogram("/nonexistent/x.stats").status().code(),
            StatusCode::kIOError);
}

TEST_F(SerializeTest, ForgedHugeCountsInTextHeaderAreErrorsNotAllocations) {
  // Regression for the unbounded reserve: a forged count far beyond what
  // the remaining bytes could hold must fail up front, not allocate.
  const std::string full = Serialized(BuildEstimator("num-card", 4));
  for (const char* key : {"labels", "buckets"}) {
    const std::string needle = std::string(key) + " ";
    const size_t pos = full.find(needle);
    ASSERT_NE(pos, std::string::npos);
    const size_t num_start = pos + needle.size();
    const size_t num_end = full.find_first_of(" \n", num_start);
    std::string forged = full;
    forged.replace(num_start, num_end - num_start, "987654321098765");
    std::istringstream in(forged);
    auto loaded = ReadPathHistogram(&in);
    ASSERT_FALSE(loaded.ok()) << key;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  }
  // An in-cap-range but still impossible count reaches the plausibility
  // gate itself (bucket counts have no fixed cap, only the gate).
  {
    const size_t pos = full.find("buckets ");
    ASSERT_NE(pos, std::string::npos);
    const size_t num_start = pos + 8;
    const size_t num_end = full.find_first_of(" \n", num_start);
    std::string forged = full;
    forged.replace(num_start, num_end - num_start, "123456789");
    std::istringstream in(forged);
    auto loaded = ReadPathHistogram(&in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("implausible"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

// Binary round-trips across the full serializable surface: every factory
// ordering, every analyzed path length. The first chain is the interchange
// story end to end — build, save TEXT, load, encode v2, load by both v2
// consumers (the serving path of a text entry) — and the final estimators
// must be bit-identical to the original over the whole domain.
class BinaryRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(BinaryRoundTripTest, TextThenV2PreservesEveryEstimateBitExact) {
  const auto& [method, k] = GetParam();
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, k);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering(method, graph, k);
  ASSERT_TRUE(ordering.ok());
  auto original = PathHistogram::Build(*map, std::move(*ordering),
                                       HistogramType::kVOptimal, 5);
  ASSERT_TRUE(original.ok());

  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards.push_back(graph.LabelCardinality(l));
  }
  // text → load
  std::ostringstream text;
  ASSERT_TRUE(
      WritePathHistogram(*original, graph.labels(), cards, &text).ok());
  std::istringstream in(text.str());
  auto from_text = ReadPathHistogram(&in);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  // → v2 → load (copying at kFull, and a buffer entry at kChecksums)
  std::string binary;
  ASSERT_TRUE(WritePathHistogramBinaryV2(from_text->estimator,
                                         from_text->labels,
                                         from_text->label_cardinalities,
                                         &binary)
                  .ok());
  auto from_binary = ReadPathHistogramBinaryV2(binary);
  ASSERT_TRUE(from_binary.ok()) << method << " k=" << k << ": "
                                << from_binary.status().ToString();
  auto served =
      MappedCatalogEntry::FromBuffer(binary, CatalogVerify::kChecksums);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE((*served)->is_mapped());
  RankScratch scratch;

  // "sum-card" is an alias: SumBasedOrdering canonicalizes the paper's
  // sum+cardinality combination to "sum-based" at construction, so that
  // is the name that persists.
  const std::string canonical = method == "sum-card" ? "sum-based" : method;
  EXPECT_EQ(from_binary->estimator.ordering().name(), canonical);
  EXPECT_EQ(from_binary->labels.names(), graph.labels().names());
  EXPECT_EQ(from_binary->label_cardinalities, cards);
  PathSpace space(graph.num_labels(), k);
  space.ForEach([&](const LabelPath& p) {
    // Bit-identical, not approximately equal: the binary format stores
    // doubles as IEEE-754 bit patterns.
    EXPECT_EQ(from_binary->estimator.Estimate(p), original->Estimate(p))
        << method << " k=" << k << " " << p.ToIdString();
    EXPECT_EQ((*served)->estimator().Estimate(p, scratch),
              original->Estimate(p))
        << method << " k=" << k << " " << p.ToIdString();
  });
}

TEST_P(BinaryRoundTripTest, V2RoundTripPreservesEveryEstimateBitExact) {
  const auto& [method, k] = GetParam();
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, k);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering(method, graph, k);
  ASSERT_TRUE(ordering.ok());
  auto original = PathHistogram::Build(*map, std::move(*ordering),
                                       HistogramType::kVOptimal, 5);
  ASSERT_TRUE(original.ok());
  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards.push_back(graph.LabelCardinality(l));
  }

  std::string v2;
  ASSERT_TRUE(WritePathHistogramBinaryV2(*original, graph.labels(), cards,
                                         &v2)
                  .ok());
  ASSERT_EQ(std::memcmp(v2.data(), binfmt::kMagicV2, binfmt::kMagicBytes), 0);
  // The full-verify copying reader (also what the format-sniffing
  // dispatchers route v2 bytes to).
  auto loaded = ReadPathHistogramBinaryV2(v2);
  ASSERT_TRUE(loaded.ok()) << method << " k=" << k << ": "
                           << loaded.status().ToString();
  const std::string canonical = method == "sum-card" ? "sum-based" : method;
  EXPECT_EQ(loaded->estimator.ordering().name(), canonical);
  EXPECT_EQ(loaded->labels.names(), graph.labels().names());
  EXPECT_EQ(loaded->label_cardinalities, cards);
  PathSpace space(graph.num_labels(), k);
  space.ForEach([&](const LabelPath& p) {
    EXPECT_EQ(loaded->estimator.Estimate(p), original->Estimate(p))
        << method << " k=" << k << " " << p.ToIdString();
  });

  // Writing the same estimator twice must produce identical bytes — the
  // golden test, the fault suite, and convert idempotence all rest on
  // deterministic serialization.
  std::string again;
  ASSERT_TRUE(WritePathHistogramBinaryV2(*original, graph.labels(), cards,
                                         &again)
                  .ok());
  EXPECT_EQ(v2, again);
}

TEST_P(BinaryRoundTripTest, V2SectionsArePageAlignedWithExactLayouts) {
  const auto& [method, k] = GetParam();
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, k);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering(method, graph, k);
  ASSERT_TRUE(ordering.ok());
  auto est = PathHistogram::Build(*map, std::move(*ordering),
                                  HistogramType::kVOptimal, 5);
  ASSERT_TRUE(est.ok());
  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards.push_back(graph.LabelCardinality(l));
  }
  std::string v2;
  ASSERT_TRUE(
      WritePathHistogramBinaryV2(*est, graph.labels(), cards, &v2).ok());

  // Walk the section table by hand against the layout helpers — the same
  // helpers the readers use, so this pins writer/reader agreement AND the
  // alignment contract `catalog verify` reports as aligned=yes.
  const auto* bytes = reinterpret_cast<const unsigned char*>(v2.data());
  uint32_t section_count;
  std::memcpy(&section_count, bytes + 12, 4);
  const bool sum_family = method.rfind("sum", 0) == 0;
  ASSERT_EQ(section_count, sum_family ? 6u : 4u);
  uint64_t file_size;
  std::memcpy(&file_size, bytes + 16, 8);
  EXPECT_EQ(file_size, v2.size());

  const uint64_t beta = est->histogram().num_buckets();
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t at = binfmt::kHeaderBytes + i * binfmt::kSectionEntryBytes;
    uint32_t id;
    uint64_t offset, length;
    std::memcpy(&id, bytes + at, 4);
    std::memcpy(&offset, bytes + at + 8, 8);
    std::memcpy(&length, bytes + at + 16, 8);
    EXPECT_EQ(offset % binfmt::kPageBytes, 0u) << "section " << id;
    if (id == binfmt::kSectionHistogram) {
      EXPECT_EQ(length, binfmt::HistogramLayout(beta).payload_bytes);
    } else if (id == binfmt::kSectionComposition) {
      EXPECT_EQ(length,
                binfmt::CompositionLayout(
                    CompositionTable::FlatCountValues(graph.num_labels(), k),
                    k)
                    .payload_bytes);
    }
  }
  // Trailing padding never exceeds a page (the writer pads each section
  // start, not the file end — the last section ends the file exactly).
  uint64_t last_offset, last_length;
  const size_t last = binfmt::kHeaderBytes +
                      (section_count - 1) * binfmt::kSectionEntryBytes;
  std::memcpy(&last_offset, bytes + last + 8, 8);
  std::memcpy(&last_length, bytes + last + 16, 8);
  EXPECT_EQ(last_offset + last_length, v2.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderingsAllK, BinaryRoundTripTest,
    ::testing::Combine(
        ::testing::Values("num-alph", "num-card", "lex-alph", "lex-card",
                          "sum-based", "sum-card", "sum-alph", "gray-alph",
                          "gray-card"),
        ::testing::Values(size_t{2}, size_t{3}, size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<std::string, size_t>>&
           info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_k" + std::to_string(std::get<1>(info.param));
    });

// The committed golden file pins binary catalog v2: if an edit to the
// writer changes a single byte of the layout, this test fails — version
// bumps must be deliberate (new kVersionV2), never accidental drift. The
// layout carries the serving rows and the stage-3 index, so drift here
// silently breaks mapped catalogs.
//
// Regenerate deliberately with: PATHEST_REGEN_GOLDEN=1 ./serialize_test
TEST(GoldenBinaryCatalog, V2LayoutIsPinned) {
  const std::string path =
      std::string(PATHEST_SOURCE_DIR) + "/tests/golden/catalog_v2.stats";
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, 3);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering("sum-based", graph, 3);
  ASSERT_TRUE(ordering.ok());
  auto est = PathHistogram::Build(*map, std::move(*ordering),
                                  HistogramType::kVOptimal, 6);
  ASSERT_TRUE(est.ok());
  std::vector<uint64_t> cards;
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    cards.push_back(graph.LabelCardinality(l));
  }
  std::string current;
  ASSERT_TRUE(
      WritePathHistogramBinaryV2(*est, graph.labels(), cards, &current)
          .ok());

  if (std::getenv("PATHEST_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(current.data(), static_cast<std::streamsize>(current.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << path << " missing — run with PATHEST_REGEN_GOLDEN=1 to create";
  std::string golden((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(current, golden) << "binary catalog layout drifted from v2 — "
                                "if intentional, bump binfmt::kVersionV2";
  auto loaded = ReadPathHistogramBinaryV2(golden);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PathSpace space(graph.num_labels(), 3);
  space.ForEach([&](const LabelPath& p) {
    EXPECT_EQ(loaded->estimator.Estimate(p), est->Estimate(p));
  });
}

// The retired v1 format is refused by every reader with one typed error
// that names the upgrade path — never parsed, and never taken for text.
TEST(RetiredV1Catalog, V1MagicIsATypedErrorEverywhere) {
  const std::string path = testing_util::RetiredV1FixturePath();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), binfmt::kHeaderBytes);

  auto sniffed = SniffCatalogFormat(path);
  EXPECT_TRUE(testing_util::IsRetiredV1Error(sniffed.status()))
      << sniffed.status().ToString();
  auto loaded = LoadPathHistogram(path);
  EXPECT_TRUE(testing_util::IsRetiredV1Error(loaded.status()))
      << loaded.status().ToString();
  std::istringstream stream(bytes);
  auto streamed = ReadPathHistogram(&stream);
  EXPECT_TRUE(testing_util::IsRetiredV1Error(streamed.status()))
      << streamed.status().ToString();
  auto as_v2 = ReadPathHistogramBinaryV2(bytes);
  EXPECT_TRUE(testing_util::IsRetiredV1Error(as_v2.status()))
      << as_v2.status().ToString();
  // The format name is retired on the write side too.
  EXPECT_EQ(ParseCatalogFormat("binary").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_NE(ParseCatalogFormat("binary").status().message().find(
                "binary-v2"),
            std::string::npos);
}

// A text entry whose sum-based index would be too large to build, or
// whose (|L|, k) overflows |L_k|, is a corrupt entry, not a hang or a
// crash: every reader refuses it at once with a typed error naming |L|
// and k (the first used to run for hours building the index, the second
// aborted inside PathSpace), and so does the ordering factory.
TEST(OversizedPathSpace, TextEntryIsATypedError) {
  const std::string path = testing_util::OversizedPathSpaceFixturePath();
  Timer timer;
  auto loaded = LoadPathHistogram(path);
  EXPECT_TRUE(testing_util::IsOversizedPathSpaceError(loaded.status()))
      << loaded.status().ToString();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  auto streamed = ReadPathHistogram(&in);
  EXPECT_TRUE(testing_util::IsOversizedPathSpaceError(streamed.status()))
      << streamed.status().ToString();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);

  // The same labels under num-alph at k = 6: |L_k| > 2^66.
  std::ifstream fixture(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(fixture)),
                   std::istreambuf_iterator<char>());
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"ordering sum-based\n",
                                            "ordering num-alph\n"},
        std::pair<std::string, std::string>{"\nk 5\n", "\nk 6\n"}}) {
    const size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
  }
  std::istringstream overflow(text);
  auto overflowed = ReadPathHistogram(&overflow);
  EXPECT_EQ(overflowed.status().code(), StatusCode::kIOError);
  EXPECT_NE(overflowed.status().message().find("overflows u64"),
            std::string::npos)
      << overflowed.status().ToString();
  EXPECT_NE(overflowed.status().message().find("|L|=2048, k=6"),
            std::string::npos)
      << overflowed.status().ToString();

  LabelDictionary labels;
  for (int i = 0; i < 2048; ++i) labels.Intern("l" + std::to_string(i));
  const std::vector<uint64_t> cards(2048, 1);
  auto ordering = MakeOrderingFromStats("num-alph", labels, cards, 6);
  EXPECT_EQ(ordering.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ordering.status().message().find("|L|=2048, k=6"),
            std::string::npos)
      << ordering.status().ToString();
  EXPECT_TRUE(MakeOrderingFromStats("num-alph", labels, cards, 5).ok());
  for (const char* sum : {"sum-based", "sum-card", "sum-alph"}) {
    auto refused = MakeOrderingFromStats(sum, labels, cards, 5);
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted) << sum;
    EXPECT_NE(refused.status().message().find("|L|=2048, k=5"),
              std::string::npos)
        << refused.status().ToString();
  }
}

TEST(SniffCatalogFormat, DistinguishesFormatsWithoutSlurping) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "pathest_sniff_test";
  fs::create_directories(dir);
  Graph graph = SmallGraph();
  auto map = ComputeSelectivities(graph, 2);
  ASSERT_TRUE(map.ok());
  auto ordering = MakeOrdering("sum-based", graph, 2);
  ASSERT_TRUE(ordering.ok());
  auto est = PathHistogram::Build(*map, std::move(*ordering),
                                  HistogramType::kVOptimal, 4);
  ASSERT_TRUE(est.ok());

  const std::string text = (dir / "a.stats").string();
  const std::string v2 = (dir / "c.stats").string();
  ASSERT_TRUE(
      SavePathHistogram(*est, graph, text, CatalogFormat::kText).ok());
  ASSERT_TRUE(
      SavePathHistogram(*est, graph, v2, CatalogFormat::kBinaryV2).ok());
  auto sniff = [](const std::string& p) {
    auto r = SniffCatalogFormat(p);
    PATHEST_CHECK(r.ok(), "sniff failed");
    return *r;
  };
  EXPECT_EQ(sniff(text), CatalogFormat::kText);
  EXPECT_EQ(sniff(v2), CatalogFormat::kBinaryV2);
  // Short file: not an error, just text (whose parser then rejects it).
  const std::string stub = (dir / "short").string();
  { std::ofstream(stub) << "ab"; }
  EXPECT_EQ(sniff(stub), CatalogFormat::kText);
  EXPECT_EQ(SniffCatalogFormat((dir / "missing").string()).status().code(),
            StatusCode::kNotFound);
  // Both formats load through the sniffing dispatcher.
  for (const std::string& p : {text, v2}) {
    auto loaded = LoadPathHistogram(p);
    ASSERT_TRUE(loaded.ok()) << p << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->estimator.ordering().name(), "sum-based");
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pathest

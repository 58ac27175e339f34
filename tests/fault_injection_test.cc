// The robustness proof of the binary catalog (core/serialize.h): take one
// VALID v2 catalog image and replay every corruption class against both of
// its consumers — the copying loader at CatalogVerify::kFull and the
// serving entry (core/mapped_catalog.h) at kChecksums, the cache's
// admission tier — with truncation at every interesting byte, single-bit
// flips in every region, forged count/length/extent fields that survive
// the checksum walk, and crashes at every stage of an atomic save. EVERY
// injected fault must yield a typed Status (no crash, hang, OOM, or
// silently wrong estimator), and a crashed save must leave the previous
// catalog byte-identical.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog.h"
#include "core/catalog_cache.h"
#include "core/mapped_catalog.h"
#include "core/serialize.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "serve/snapshot_registry.h"
#include "test_util.h"
#include "util/combinatorics.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/safe_io.h"

namespace pathest {
namespace {

using testing_util::SmallGraph;

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : graph_(SmallGraph()) {
    auto map = ComputeSelectivities(graph_, 3);
    PATHEST_CHECK(map.ok(), "selectivities failed");
    map_ = std::make_unique<SelectivityMap>(std::move(*map));
    dir_ = std::filesystem::temp_directory_path() /
           ("pathest_fault_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }

  ~FaultInjectionTest() override { std::filesystem::remove_all(dir_); }

  PathHistogram BuildEstimator(const std::string& method, size_t beta) {
    auto ordering = MakeOrdering(method, graph_, 3);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto est = PathHistogram::Build(*map_, std::move(*ordering),
                                    HistogramType::kVOptimal, beta);
    PATHEST_CHECK(est.ok(), "estimator failed");
    return std::move(*est);
  }

  std::vector<uint64_t> Cards() const {
    std::vector<uint64_t> cards;
    for (LabelId l = 0; l < graph_.num_labels(); ++l) {
      cards.push_back(graph_.LabelCardinality(l));
    }
    return cards;
  }

  // A valid v2 image of a sum-based estimator (carries all 6 sections).
  std::string ValidImage(const std::string& method = "sum-based") {
    PathHistogram est = BuildEstimator(method, 6);
    std::string bytes;
    PATHEST_CHECK(
        WritePathHistogramBinaryV2(est, graph_.labels(), Cards(), &bytes)
            .ok(),
        "v2 write failed");
    return bytes;
  }

  // The fault contract, against both consumers of a v2 image: each must
  // return a typed error — and, being in-memory parsing, returning AT ALL
  // rules out the crash/hang failure mode for that input.
  void ExpectTypedFailure(const std::string& image, const std::string& what) {
    auto loaded = ReadPathHistogramBinaryV2(image);
    ASSERT_FALSE(loaded.ok()) << what << ": corrupt image loaded cleanly";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << what << ": " << loaded.status().ToString();
    EXPECT_FALSE(loaded.status().message().empty()) << what;
    auto served =
        MappedCatalogEntry::FromBuffer(image, CatalogVerify::kChecksums);
    ASSERT_FALSE(served.ok()) << what << ": corrupt image served cleanly";
    EXPECT_EQ(served.status().code(), StatusCode::kIOError)
        << what << ": " << served.status().ToString();
  }

  // Full-domain estimates — the bit-level identity anchor.
  std::vector<double> AllEstimates(const Estimator& estimator) {
    std::vector<double> out;
    RankScratch scratch;
    scratch.Reserve(estimator.num_labels());
    PathSpace(graph_.num_labels(), 3).ForEach([&](const LabelPath& p) {
      out.push_back(estimator.Estimate(p, scratch));
    });
    return out;
  }
  std::vector<double> AllEstimates(const LoadedPathHistogram& loaded) {
    return AllEstimates(Estimator(loaded.estimator));
  }

  static BinarySectionInfo Section(const std::string& image, uint32_t id) {
    auto sections = ParseBinarySectionTable(image);
    PATHEST_CHECK(sections.ok(), "section table unreadable");
    for (const BinarySectionInfo& s : *sections) {
      if (s.id == id) return s;
    }
    PATHEST_CHECK(false, "section missing");
    return {};
  }

  // Overwrites the u64 at `field` (8 = offset, 16 = length) of section
  // `id`'s table entry and re-signs the table, so the forged extent gets
  // past the table CRC and reaches the extent checks themselves.
  static std::string ForgeTableEntry(const std::string& image, uint32_t id,
                                     size_t field, uint64_t value) {
    auto sections = ParseBinarySectionTable(image);
    PATHEST_CHECK(sections.ok(), "section table unreadable");
    std::string forged = image;
    for (size_t i = 0; i < sections->size(); ++i) {
      if ((*sections)[i].id != id) continue;
      std::memcpy(forged.data() + binfmt::kHeaderBytes +
                      i * binfmt::kSectionEntryBytes + field,
                  &value, 8);
    }
    const uint32_t crc =
        Crc32c(forged.data() + binfmt::kHeaderBytes,
               sections->size() * binfmt::kSectionEntryBytes);
    std::memcpy(forged.data() + binfmt::kHeaderBytes - 4, &crc, 4);
    return forged;
  }

  Graph graph_;
  std::unique_ptr<SelectivityMap> map_;
  std::filesystem::path dir_;
};

TEST_F(FaultInjectionTest, ValidImageLoadsAndMatchesOriginal) {
  // Sanity anchor for everything below: the uncorrupted image round-trips
  // through both consumers.
  PathHistogram original = BuildEstimator("sum-based", 6);
  const std::string image = ValidImage();
  auto loaded = ReadPathHistogramBinaryV2(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto served =
      MappedCatalogEntry::FromBuffer(image, CatalogVerify::kChecksums);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const std::vector<double> expect = AllEstimates(Estimator(original));
  EXPECT_EQ(AllEstimates(*loaded), expect);
  EXPECT_EQ(AllEstimates((*served)->estimator()), expect);
}

TEST_F(FaultInjectionTest, EveryTruncationPointFailsTyped) {
  const std::string image = ValidImage();
  const std::vector<size_t> points = TruncationPoints(image);
  // The sweep must actually cover the header byte-by-byte and every
  // section boundary: 33 header points + 6 sections.
  ASSERT_GT(points.size(), 40u);
  for (size_t cut : points) {
    ExpectTypedFailure(image.substr(0, cut),
                       "truncate to " + std::to_string(cut));
  }
  // Every p-1 / p / p+1 around every page multiple: the edges where a
  // torn write of an aligned format would land.
  ASSERT_GT(image.size(), 2 * binfmt::kPageBytes);
  for (size_t page = binfmt::kPageBytes; page <= image.size();
       page += binfmt::kPageBytes) {
    for (size_t cut : {page - 1, page, page + 1}) {
      if (cut >= image.size()) continue;
      ExpectTypedFailure(image.substr(0, cut),
                         "truncate to " + std::to_string(cut));
    }
  }
  // And a coarse whole-file sweep (every 7th byte) for points the
  // boundary enumeration might miss.
  for (size_t cut = 0; cut < image.size(); cut += 7) {
    ExpectTypedFailure(image.substr(0, cut),
                       "truncate to " + std::to_string(cut));
  }
  // The mapped open honors the same contract from disk.
  const std::string path = (dir_ / "trunc.stats").string();
  ASSERT_TRUE(WriteFileBytes(path, image.substr(0, image.size() - 1)).ok());
  auto mapped = MappedCatalogEntry::Open(path, CatalogVerify::kChecksums);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
}

TEST_F(FaultInjectionTest, SingleBitFlipInEverySectionFailsTyped) {
  const std::string image = ValidImage();
  auto sections = ParseBinarySectionTable(image);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 6u);  // sum-based carries all six
  for (const BinarySectionInfo& s : *sections) {
    // First, middle, and last byte of every payload, a couple of bits each.
    for (size_t at : {s.offset, s.offset + s.length / 2,
                      s.offset + s.length - 1}) {
      for (int bit : {0, 7}) {
        std::string corrupt = image;
        ASSERT_TRUE(FlipBit(&corrupt, at, bit).ok());
        ExpectTypedFailure(corrupt, std::string("flip in section ") +
                                        binfmt::SectionName(s.id));
      }
    }
  }
}

TEST_F(FaultInjectionTest, BitFlipsInHeaderAndTableFailTyped) {
  const std::string image = ValidImage();
  const size_t guarded =
      binfmt::kHeaderBytes + 6 * binfmt::kSectionEntryBytes;
  for (size_t at = 0; at < guarded; ++at) {
    std::string corrupt = image;
    ASSERT_TRUE(FlipBit(&corrupt, at, at % 8).ok());
    ExpectTypedFailure(corrupt, "flip at header/table byte " +
                                    std::to_string(at));
  }
}

TEST_F(FaultInjectionTest, ForgedHugeBucketCountIsErrorNotOom) {
  // The forged count is written THROUGH PatchSectionPayload, which
  // refreshes the CRC — so the checksum walk passes and the count reaches
  // the allocation-guarding validation (the exact path a flipped count
  // plus a colliding CRC would take).
  const std::string image = ValidImage();
  for (uint64_t forged :
       {uint64_t{1} << 60, uint64_t{0xFFFFFFFFFFFFFFFF},
        uint64_t{1} << 32}) {
    std::string corrupt = image;
    std::string le;
    AppendU64(&le, forged);
    ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionHistogram,
                                    /*offset_in_payload=*/0, le)
                    .ok());
    ExpectTypedFailure(corrupt, "forged bucket count");
    auto loaded = ReadPathHistogramBinaryV2(corrupt);
    EXPECT_NE(loaded.status().message().find("implausible bucket count"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(FaultInjectionTest, OversizedSumIndexShapeFailsTyped) {
  // A well-formed image whose shape is a sum-based index of C(2053, 5) - 1
  // ≈ 3·10^14 entries: 2048 labels at k = 5 written under num-alph, then
  // renamed to the same-length sum-alph (CRC refreshed). The kFull tier
  // used to start rebuilding that index, and a mapped entry would have
  // built it on first use; both must refuse the shape at once.
  LabelDictionary labels;
  for (int i = 0; i < 2048; ++i) labels.Intern("l" + std::to_string(i));
  const std::vector<uint64_t> cards(2048, 1);
  auto ordering = MakeOrderingFromStats("num-alph", labels, cards, 5);
  ASSERT_TRUE(ordering.ok()) << ordering.status().ToString();
  const uint64_t domain = (*ordering)->space().size();
  auto histogram = Histogram::FromBuckets({Bucket{0, domain, 0.0, 0.0}});
  ASSERT_TRUE(histogram.ok()) << histogram.status().ToString();
  auto estimator = PathHistogram::FromParts(
      std::move(*ordering), std::move(*histogram), HistogramType::kVOptimal);
  ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
  std::string image;
  ASSERT_TRUE(
      WritePathHistogramBinaryV2(*estimator, labels, cards, &image).ok());
  const BinarySectionInfo ordering_section =
      Section(image, binfmt::kSectionOrdering);
  const size_t name_at = image.find("num-alph", ordering_section.offset);
  ASSERT_LT(name_at, ordering_section.offset + ordering_section.length);
  ASSERT_TRUE(PatchSectionPayload(&image, binfmt::kSectionOrdering,
                                  name_at - ordering_section.offset,
                                  "sum-alph")
                  .ok());
  ExpectTypedFailure(image, "oversized sum-index shape");
  auto loaded = ReadPathHistogramBinaryV2(image);
  EXPECT_NE(loaded.status().message().find("sum-based index needs"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("|L|=2048, k=5"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(FaultInjectionTest, ForgedLabelCountAndLengthFailTyped) {
  const std::string image = ValidImage();
  {
    // Label count forged huge (CRC refreshed).
    std::string corrupt = image;
    std::string le;
    AppendU32(&le, 0xFFFFFFFFu);
    ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionLabels, 0, le)
                    .ok());
    ExpectTypedFailure(corrupt, "forged label count");
  }
  {
    // First label's length prefix forged past the payload.
    std::string corrupt = image;
    std::string le;
    AppendU32(&le, 0x7FFFFFFFu);
    ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionLabels, 4, le)
                    .ok());
    ExpectTypedFailure(corrupt, "forged label length");
  }
  {
    // Cardinality count that disagrees with the label count.
    std::string corrupt = image;
    std::string le;
    AppendU32(&le, 7);
    ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionCardinalities,
                                    0, le)
                    .ok());
    ExpectTypedFailure(corrupt, "mismatched cardinality count");
  }
  {
    // k forged to 0 and past kMaxPathLength in the ordering section; the
    // field sits after the two length-prefixed strings.
    const BinarySectionInfo ord = Section(image, binfmt::kSectionOrdering);
    BoundedReader r(image.data() + ord.offset, ord.length);
    std::string skip;
    ASSERT_TRUE(r.ReadLengthPrefixedString(&skip, 64, "name").ok());
    ASSERT_TRUE(r.ReadLengthPrefixedString(&skip, 64, "type").ok());
    const size_t k_offset = ord.length - r.remaining();
    for (uint32_t forged_k : {0u, 250u}) {
      std::string corrupt = image;
      std::string le;
      AppendU32(&le, forged_k);
      ASSERT_TRUE(PatchSectionPayload(&corrupt, binfmt::kSectionOrdering,
                                      k_offset, le)
                      .ok());
      ExpectTypedFailure(corrupt, "forged k=" + std::to_string(forged_k));
    }
  }
}

TEST_F(FaultInjectionTest, ForgedSectionExtentsFailTyped) {
  const std::string image = ValidImage();
  // Section count forged huge: the header CRC catches it.
  {
    std::string corrupt = image;
    corrupt[12] = '\x40';  // section count low byte -> 64+
    ExpectTypedFailure(corrupt, "forged section count");
  }
  // A table entry rewritten WITHOUT re-signing: the table CRC catches it.
  {
    std::string corrupt = image;
    std::memset(corrupt.data() + binfmt::kHeaderBytes + 8, 0x7F, 8);
    ExpectTypedFailure(corrupt, "forged section offset");
  }
  // Re-signed forgeries reach the extent checks themselves.
  const BinarySectionInfo hist = Section(image, binfmt::kSectionHistogram);
  struct Forgery {
    size_t field;
    uint64_t value;
    const char* expect;
  };
  for (const Forgery& f :
       {Forgery{8, uint64_t{1} << 40, "outside the file"},
        Forgery{8, hist.offset + 8, "not page-aligned"},
        Forgery{16, uint64_t{0xFFFFFFFFFFFFFFF0}, "outside the file"},
        Forgery{16, hist.length + 8, "layout"}}) {
    const std::string corrupt =
        ForgeTableEntry(image, binfmt::kSectionHistogram, f.field, f.value);
    ExpectTypedFailure(corrupt, f.expect);
    auto loaded = ReadPathHistogramBinaryV2(corrupt);
    EXPECT_NE(loaded.status().message().find("section histogram"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(f.expect), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(FaultInjectionTest, CompositionMismatchIsCaught) {
  const std::string image = ValidImage("sum-based");
  const uint64_t num_values =
      CompositionTable::FlatCountValues(graph_.num_labels(), 3);
  const binfmt::CompositionLayoutV2 cl =
      binfmt::CompositionLayout(num_values, 3);
  const uint64_t comp_off =
      Section(image, binfmt::kSectionComposition).offset;
  auto read_u64 = [&](size_t at) {
    uint64_t v;
    std::memcpy(&v, image.data() + comp_off + at, 8);
    return v;
  };
  auto patch_u64 = [&](std::string* bytes, size_t at, uint64_t v) {
    std::string le;
    AppendU64(&le, v);
    ASSERT_TRUE(
        PatchSectionPayload(bytes, binfmt::kSectionComposition, at, le).ok());
  };
  {
    // A wrong count with a VALID CRC: the prefix rows no longer agree
    // with it, which both consumers' structural scans see.
    std::string corrupt = image;
    patch_u64(&corrupt, cl.counts_off, 424242);
    ExpectTypedFailure(corrupt, "composition count");
  }
  {
    // A wrong-but-self-consistent stage-2 table: count[0] and the whole
    // m=1 prefix row shifted together. Only the full tier's rebuild
    // comparison can tell it from a real table.
    std::string corrupt = image;
    patch_u64(&corrupt, cl.counts_off,
              read_u64(cl.counts_off) + 1);
    for (size_t i = 1; i <= graph_.num_labels(); ++i) {
      const size_t at = cl.prefix_off + 8 * i;
      patch_u64(&corrupt, at, read_u64(at) + 1);
    }
    auto loaded = ReadPathHistogramBinaryV2(corrupt);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("fresh rebuild"),
              std::string::npos)
        << loaded.status().ToString();
    auto served = MappedCatalogEntry::FromBuffer(corrupt, CatalogVerify::kFull);
    ASSERT_FALSE(served.ok());
    EXPECT_EQ(served.status().code(), StatusCode::kIOError);
  }
}

TEST_F(FaultInjectionTest, PaddingFlipsIgnoredOutsideCrcsCaughtInside) {
  const std::string image = ValidImage();
  auto sections = ParseBinarySectionTable(image);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 6u);
  auto baseline = ReadPathHistogramBinaryV2(image);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::vector<double> expect = AllEstimates(*baseline);

  // Inter-section padding — [end of payload i, offset of section i+1) and
  // the gap between the section table and the first section — is outside
  // every CRC and never read: flips there must be PROVABLY ignored (the
  // file still passes the strictest tier and serves bit-identical
  // estimates).
  std::vector<std::pair<size_t, size_t>> gaps;
  gaps.emplace_back(
      binfmt::kHeaderBytes + sections->size() * binfmt::kSectionEntryBytes,
      (*sections)[0].offset);
  for (size_t i = 0; i + 1 < sections->size(); ++i) {
    gaps.emplace_back((*sections)[i].offset + (*sections)[i].length,
                      (*sections)[i + 1].offset);
  }
  size_t padding_flips = 0;
  for (const auto& [lo, hi] : gaps) {
    ASSERT_LE(lo, hi);
    if (lo == hi) continue;  // a payload that ended exactly on a page
    for (size_t at : {lo, (lo + hi) / 2, hi - 1}) {
      for (int bit : {0, 7}) {
        std::string corrupt = image;
        ASSERT_TRUE(FlipBit(&corrupt, at, bit).ok());
        auto loaded = ReadPathHistogramBinaryV2(corrupt);
        ASSERT_TRUE(loaded.ok())
            << "padding flip at " << at << " rejected: "
            << loaded.status().ToString();
        EXPECT_EQ(AllEstimates(*loaded), expect)
            << "padding flip at " << at << " changed an estimate";
        auto served =
            MappedCatalogEntry::FromBuffer(corrupt, CatalogVerify::kChecksums);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        EXPECT_EQ(AllEstimates((*served)->estimator()), expect);
        ++padding_flips;
      }
    }
  }
  ASSERT_GT(padding_flips, 0u) << "no inter-section padding to sweep";

  // Interior alignment padding — the [prolog end, first array) gap inside
  // the histogram and composition payloads — is INSIDE the payload CRC:
  // a flip there must be detected even though no parser ever reads it.
  for (const BinarySectionInfo& s : *sections) {
    if (s.id != binfmt::kSectionHistogram &&
        s.id != binfmt::kSectionComposition) {
      continue;
    }
    ASSERT_GT(s.length, binfmt::kArrayAlignBytes);
    // Prologs are 16 bytes; arrays start at the 64-byte mark.
    for (size_t in_payload : {size_t{16}, size_t{40},
                              size_t{binfmt::kArrayAlignBytes - 1}}) {
      std::string corrupt = image;
      ASSERT_TRUE(FlipBit(&corrupt, s.offset + in_payload, 3).ok());
      ExpectTypedFailure(corrupt, std::string("interior padding flip in ") +
                                      binfmt::SectionName(s.id));
    }
  }
}

TEST_F(FaultInjectionTest, TextForgedCountsFailTyped) {
  // The text reader's forged-count regression (the unbounded-reserve bug):
  // a huge claimed count must be an IOError before any allocation.
  PathHistogram est = BuildEstimator("num-card", 4);
  std::ostringstream out;
  ASSERT_TRUE(WritePathHistogram(est, graph_.labels(), Cards(), &out).ok());
  const std::string text = out.str();

  auto with_forged = [&](const std::string& key, const std::string& count) {
    const size_t pos = text.find(key + " ");
    PATHEST_CHECK(pos != std::string::npos, "key not found");
    const size_t num_start = pos + key.size() + 1;
    const size_t num_end = text.find_first_of(" \n", num_start);
    std::string forged = text;
    forged.replace(num_start, num_end - num_start, count);
    return forged;
  };
  for (const char* count : {"123456789012", "18446744073709551615"}) {
    for (const char* key : {"labels", "buckets"}) {
      std::istringstream in(with_forged(key, count));
      auto loaded = ReadPathHistogram(&in);
      ASSERT_FALSE(loaded.ok()) << key << "=" << count;
      EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    }
  }
}

TEST_F(FaultInjectionTest, CrashedSaveLeavesPreviousCatalogIntact) {
  // Establish a valid catalog file, then crash a re-save at every stage:
  // short write at several offsets (including both sides of a page
  // boundary), failed fsync, failed rename. Each must return a Status,
  // leave the published file byte-identical, and leave no temp debris
  // that a reader could mistake for the catalog.
  const std::string path = (dir_ / "crash.stats").string();
  const std::string original_image = ValidImage("sum-based");
  ASSERT_TRUE(AtomicWriteFile(path, original_image).ok());

  const std::string replacement_image = ValidImage("num-card");
  for (size_t fail_at : {size_t{0}, size_t{1}, size_t{17}, binfmt::kPageBytes,
                         binfmt::kPageBytes + 1, replacement_image.size() / 2,
                         replacement_image.size() - 1}) {
    ScriptedWriteFaults faults;
    faults.fail_write_at_byte = fail_at;
    ScriptedWriteFaults::Install install(&faults);
    Status st = AtomicWriteFile(path, replacement_image);
    ASSERT_FALSE(st.ok()) << "fail_at=" << fail_at;
    EXPECT_EQ(st.code(), StatusCode::kIOError);
  }
  {
    ScriptedWriteFaults faults;
    faults.fail_sync = true;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(AtomicWriteFile(path, replacement_image).ok());
  }
  {
    ScriptedWriteFaults faults;
    faults.fail_rename = true;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(AtomicWriteFile(path, replacement_image).ok());
  }

  // The previous catalog is byte-identical and still loads and maps.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, original_image);
  EXPECT_TRUE(LoadPathHistogram(path).ok());
  EXPECT_TRUE(MappedCatalogEntry::Open(path, CatalogVerify::kChecksums).ok());
  // No temp debris left behind.
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  // And with no injector, the re-save goes through atomically.
  ASSERT_TRUE(AtomicWriteFile(path, replacement_image).ok());
  auto after = ReadFileBytes(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, replacement_image);
}

TEST_F(FaultInjectionTest, CrashedSaveAllLeavesCatalogServingAndIntact) {
  // The same guarantee one level up: StatisticsCatalog::SaveAll dying
  // mid-flight must leave every previously saved entry loadable.
  auto catalog = StatisticsCatalog::Analyze(graph_, 3);
  ASSERT_TRUE(catalog.ok());
  CatalogEntryConfig config;
  config.ordering = "sum-based";
  config.num_buckets = 8;
  ASSERT_TRUE(catalog->BuildEstimator("a", config).ok());
  config.ordering = "num-card";
  ASSERT_TRUE(catalog->BuildEstimator("b", config).ok());
  ASSERT_TRUE(
      catalog->SaveAll(dir_.string(), nullptr, CatalogFormat::kBinaryV2)
          .ok());
  auto before_a = ReadFileBytes((dir_ / "a.stats").string());
  auto before_b = ReadFileBytes((dir_ / "b.stats").string());
  ASSERT_TRUE(before_a.ok());
  ASSERT_TRUE(before_b.ok());

  {
    ScriptedWriteFaults faults;
    faults.fail_write_at_byte = 100;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(
        catalog->SaveAll(dir_.string(), nullptr, CatalogFormat::kBinaryV2)
            .ok());
  }
  auto after_a = ReadFileBytes((dir_ / "a.stats").string());
  auto after_b = ReadFileBytes((dir_ / "b.stats").string());
  ASSERT_TRUE(after_a.ok());
  ASSERT_TRUE(after_b.ok());
  EXPECT_EQ(*after_a, *before_a);
  EXPECT_EQ(*after_b, *before_b);
  CatalogLoadReport report;
  ASSERT_TRUE(catalog->LoadAll(dir_.string(), &report).ok());
  EXPECT_TRUE(report.fully_healthy());
  EXPECT_EQ(report.loaded.size(), 2u);
  CatalogCache cache;
  auto served = serve::LoadCatalogSnapshots(dir_.string(), 1, &cache);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->report.fully_healthy());
  EXPECT_EQ(served->snapshots.size(), 2u);
}

TEST_F(FaultInjectionTest, DegradedCatalogServesHealthyEntries) {
  // One corrupt entry must quarantine, not abort: the healthy entries keep
  // loading and serving, through the copying catalog AND the mapped
  // serving loader.
  auto catalog = StatisticsCatalog::Analyze(graph_, 3);
  ASSERT_TRUE(catalog.ok());
  CatalogEntryConfig config;
  config.ordering = "sum-based";
  config.num_buckets = 8;
  ASSERT_TRUE(catalog->BuildEstimator("good", config).ok());
  config.ordering = "lex-card";
  ASSERT_TRUE(catalog->BuildEstimator("bad", config).ok());
  ASSERT_TRUE(
      catalog->SaveAll(dir_.string(), nullptr, CatalogFormat::kBinaryV2)
          .ok());

  // Corrupt "bad" with a bit flip inside its histogram rows.
  auto bytes = ReadFileBytes((dir_ / "bad.stats").string());
  ASSERT_TRUE(bytes.ok());
  const BinarySectionInfo hist = Section(*bytes, binfmt::kSectionHistogram);
  ASSERT_TRUE(FlipBit(&*bytes, hist.offset + hist.length / 2, 3).ok());
  ASSERT_TRUE(WriteFileBytes((dir_ / "bad.stats").string(), *bytes).ok());

  auto fresh = StatisticsCatalog::Analyze(graph_, 3);
  ASSERT_TRUE(fresh.ok());
  CatalogLoadReport report;
  ASSERT_TRUE(fresh->LoadAll(dir_.string(), &report).ok());
  EXPECT_EQ(report.loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].path.find("bad.stats"), std::string::npos);
  EXPECT_EQ(report.failures[0].section, "histogram");
  EXPECT_EQ(report.failures[0].status.code(), StatusCode::kIOError);

  // The healthy entry answers.
  LabelId a = *graph_.labels().Find("a");
  EXPECT_TRUE(fresh->Estimate("good", LabelPath{a}).ok());
  EXPECT_EQ(fresh->Estimate("bad", LabelPath{a}).status().code(),
            StatusCode::kNotFound);

  // VerifyCatalogDir sees exactly the same picture graph-free.
  auto verify = VerifyCatalogDir(dir_.string());
  ASSERT_TRUE(verify.ok());
  EXPECT_EQ(verify->loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(verify->failures.size(), 1u);
  EXPECT_EQ(verify->failures[0].section, "histogram");

  // And so does the serving loader, admitting at kChecksums.
  CatalogCache cache;
  auto served = serve::LoadCatalogSnapshots(dir_.string(), 1, &cache);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->report.loaded, std::vector<std::string>{"good"});
  ASSERT_EQ(served->report.failures.size(), 1u);
  EXPECT_EQ(served->report.failures[0].section, "histogram");
  EXPECT_TRUE(served->snapshots.at("good")->is_mapped());
}

TEST_F(FaultInjectionTest, CrashedConversionLeavesTextFileByteIdentical) {
  // The upgrade story: converting a text entry to v2 in place crashes at
  // every stage — the published text file must stay byte-identical and
  // loadable, with no temp debris.
  const std::string path = (dir_ / "upgrade.stats").string();
  PathHistogram est = BuildEstimator("sum-based", 6);
  ASSERT_TRUE(SavePathHistogram(est, graph_, path, CatalogFormat::kText).ok());
  auto text_image = ReadFileBytes(path);
  ASSERT_TRUE(text_image.ok());
  auto loaded = LoadPathHistogram(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<double> expect = AllEstimates(*loaded);

  for (size_t fail_at :
       {size_t{0}, size_t{1}, size_t{17}, binfmt::kPageBytes,
        binfmt::kPageBytes + 1}) {
    ScriptedWriteFaults faults;
    faults.fail_write_at_byte = fail_at;
    ScriptedWriteFaults::Install install(&faults);
    Status st =
        SaveLoadedPathHistogram(*loaded, path, CatalogFormat::kBinaryV2);
    ASSERT_FALSE(st.ok()) << "fail_at=" << fail_at;
    EXPECT_EQ(st.code(), StatusCode::kIOError);
  }
  {
    ScriptedWriteFaults faults;
    faults.fail_sync = true;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(
        SaveLoadedPathHistogram(*loaded, path, CatalogFormat::kBinaryV2)
            .ok());
  }
  {
    ScriptedWriteFaults faults;
    faults.fail_rename = true;
    ScriptedWriteFaults::Install install(&faults);
    EXPECT_FALSE(
        SaveLoadedPathHistogram(*loaded, path, CatalogFormat::kBinaryV2)
            .ok());
  }

  // Byte-identical text, still sniffs as text, no debris.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, *text_image);
  auto format = SniffCatalogFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(*format, CatalogFormat::kText);
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  // With the injector gone the conversion lands, and the v2 file serves
  // the exact same estimates.
  ASSERT_TRUE(
      SaveLoadedPathHistogram(*loaded, path, CatalogFormat::kBinaryV2).ok());
  format = SniffCatalogFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(*format, CatalogFormat::kBinaryV2);
  auto v2 = LoadPathHistogram(path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(AllEstimates(*v2), expect);
}

}  // namespace
}  // namespace pathest

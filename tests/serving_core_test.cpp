// Serving-core correctness: the flat serving table must serve exactly
// what a reference B(f, l) table written here from the raw rows serves
// (ordered-map byte sums, ranked by bytes desc then link asc, truncated,
// p = bytes / total), across direct training, export round trips, and
// snapshot warm-starts; the batched PredictShift must equal the per-flow
// loop byte for byte; and the epoch swap must let readers predict
// concurrently with a publisher (the TSan leg of
// tools/run_sanitized_fuzz.sh runs this binary to prove the swap is
// race-free without the hot path taking a lock).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/geo_model.h"
#include "core/historical.h"
#include "core/online.h"
#include "core/tipsy_service.h"
#include "topo/generator.h"

namespace tipsy {
namespace {

using core::FeatureSet;
using core::FlowFeatures;
using core::HistoricalModel;

FlowFeatures MakeFlow(std::uint32_t asn, std::uint32_t prefix_block,
                      std::uint32_t metro, std::uint32_t region = 0,
                      wan::ServiceType service = wan::ServiceType::kWeb) {
  FlowFeatures flow;
  flow.src_asn = util::AsId{asn};
  flow.src_prefix24 =
      util::Ipv4Prefix(util::Ipv4Addr(prefix_block << 8), 24);
  flow.src_metro = util::MetroId{metro};
  flow.dest_region = util::RegionId{region};
  flow.dest_service = service;
  return flow;
}

pipeline::AggRow MakeRow(const FlowFeatures& flow, std::uint32_t link,
                         std::uint64_t bytes) {
  pipeline::AggRow row;
  row.hour = 0;
  row.link = util::LinkId{link};
  row.src_asn = flow.src_asn;
  row.src_prefix24 = flow.src_prefix24;
  row.src_metro = flow.src_metro;
  row.dest_region = flow.dest_region;
  row.dest_service = flow.dest_service;
  row.bytes = bytes;
  return row;
}

// A randomized training window: a few dozen distinct tuples, byte counts
// spread over a handful of links, deterministic per seed.
std::vector<pipeline::AggRow> RandomWindow(std::uint64_t seed,
                                           std::size_t rows = 400) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> asn(1, 12);
  std::uniform_int_distribution<std::uint32_t> prefix(1, 20);
  std::uniform_int_distribution<std::uint32_t> metro(0, 3);
  std::uniform_int_distribution<std::uint32_t> region(0, 2);
  std::uniform_int_distribution<std::uint32_t> link(0, 12);
  std::uniform_int_distribution<std::uint64_t> bytes(1, 1'000'000);
  std::vector<pipeline::AggRow> window;
  window.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto flow =
        MakeFlow(asn(rng), prefix(rng), metro(rng), region(rng),
                 i % 3 == 0 ? wan::ServiceType::kStorage
                            : wan::ServiceType::kWeb);
    window.push_back(MakeRow(flow, link(rng), bytes(rng)));
  }
  return window;
}

HistoricalModel TrainModel(FeatureSet fs,
                           const std::vector<pipeline::AggRow>& window,
                           std::size_t max_links = 16) {
  HistoricalModel model(fs, max_links, /*weight_by_bytes=*/true);
  for (const auto& row : window) model.Add(row);
  model.Finalize();
  return model;
}

// The reference Hist model, written from the raw rows with ordered maps
// and nothing from the count-table code: per tuple, the byte sum of each
// link; links ranked by bytes desc then link asc and truncated; p(l|f) =
// B(f, l) / B(f), renormalized over the non-excluded links under a mask.
class ReferenceModel : public core::Model {
 public:
  ReferenceModel(FeatureSet fs, const std::vector<pipeline::AggRow>& rows,
                 std::size_t max_links = 16)
      : fs_(fs) {
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::map<std::uint32_t, std::uint64_t>>
        sums;
    for (const auto& row : rows) {
      const FlowFeatures flow{row.src_asn, row.src_prefix24, row.src_metro,
                              row.dest_region, row.dest_service};
      if (!core::HasFeatures(fs, flow)) continue;
      const auto key = core::MakeTupleKey(fs, flow);
      sums[{key.hi, key.lo}][row.link.value()] += row.bytes;
    }
    for (const auto& [key, links] : sums) {
      HistoricalModel::TupleExport tuple;
      tuple.key = core::TupleKey{key.first, key.second};
      std::uint64_t total = 0;
      for (const auto& [link, bytes] : links) {
        total += bytes;
        tuple.ranked.emplace_back(util::LinkId{link},
                                  static_cast<double>(bytes));
      }
      tuple.total_bytes = static_cast<double>(total);
      std::sort(tuple.ranked.begin(), tuple.ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      if (tuple.ranked.size() > max_links) tuple.ranked.resize(max_links);
      table_.push_back(std::move(tuple));
    }
  }

  // Sorted by (key.hi, key.lo), the order ExportTable() promises.
  [[nodiscard]] const std::vector<HistoricalModel::TupleExport>& table()
      const {
    return table_;
  }
  [[nodiscard]] std::size_t tuple_count() const { return table_.size(); }

  [[nodiscard]] bool Knows(const FlowFeatures& flow) const {
    return Lookup(flow) != nullptr;
  }

  [[nodiscard]] std::vector<core::Prediction> Predict(
      const FlowFeatures& flow, std::size_t k,
      const core::ExclusionMask* excluded) const override {
    std::vector<core::Prediction> out;
    const auto* tuple = Lookup(flow);
    if (tuple == nullptr || k == 0) return out;
    double denominator = tuple->total_bytes;
    if (excluded != nullptr) {
      denominator = 0.0;
      for (const auto& [link, bytes] : tuple->ranked) {
        if (!core::IsExcluded(excluded, link)) denominator += bytes;
      }
    }
    if (denominator <= 0.0) return out;
    for (const auto& [link, bytes] : tuple->ranked) {
      if (core::IsExcluded(excluded, link)) continue;
      out.push_back(core::Prediction{link, bytes / denominator});
      if (out.size() == k) break;
    }
    return out;
  }
  [[nodiscard]] std::string name() const override { return "reference"; }
  [[nodiscard]] std::size_t MemoryFootprintBytes() const override {
    return 0;
  }

 private:
  [[nodiscard]] const HistoricalModel::TupleExport* Lookup(
      const FlowFeatures& flow) const {
    if (!core::HasFeatures(fs_, flow)) return nullptr;
    const auto key = core::MakeTupleKey(fs_, flow);
    const auto it = std::lower_bound(
        table_.begin(), table_.end(), key, [](const auto& tuple, const auto& k) {
          if (tuple.key.hi != k.hi) return tuple.key.hi < k.hi;
          return tuple.key.lo < k.lo;
        });
    return it != table_.end() && it->key == key ? &*it : nullptr;
  }

  FeatureSet fs_;
  std::vector<HistoricalModel::TupleExport> table_;
};

// Exact (bit-level) equality of two export tables.
void ExpectExportsIdentical(
    const std::vector<HistoricalModel::TupleExport>& a,
    const std::vector<HistoricalModel::TupleExport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].key == b[i].key) << "entry " << i;
    EXPECT_EQ(a[i].total_bytes, b[i].total_bytes) << "entry " << i;
    ASSERT_EQ(a[i].ranked.size(), b[i].ranked.size()) << "entry " << i;
    for (std::size_t j = 0; j < a[i].ranked.size(); ++j) {
      EXPECT_EQ(a[i].ranked[j].first, b[i].ranked[j].first);
      EXPECT_EQ(a[i].ranked[j].second, b[i].ranked[j].second);
    }
  }
}
void ExpectExportsIdentical(const HistoricalModel& flat,
                            const ReferenceModel& reference) {
  ExpectExportsIdentical(flat.ExportTable(), reference.table());
}
void ExpectExportsIdentical(const HistoricalModel& a,
                            const HistoricalModel& b) {
  ExpectExportsIdentical(a.ExportTable(), b.ExportTable());
}

// Exact equality of Predict and PredictInto against the reference for a
// query stream of seen, unseen and unkeyable flows, with and without
// exclusions.
void ExpectPredictionsIdentical(const HistoricalModel& flat,
                                const ReferenceModel& reference,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::uniform_int_distribution<std::uint32_t> asn(1, 16);  // some unseen
  std::uniform_int_distribution<std::uint32_t> prefix(1, 24);
  std::uniform_int_distribution<std::uint32_t> metro(0, 4);
  std::uniform_int_distribution<std::uint32_t> region(0, 2);
  core::ExclusionMask excluded(16, false);
  excluded[2] = excluded[7] = true;
  for (int q = 0; q < 500; ++q) {
    auto flow = MakeFlow(asn(rng), prefix(rng), metro(rng), region(rng));
    if (q % 17 == 0) flow.src_metro = util::MetroId{};  // unkeyable for AL
    const auto* mask = q % 3 == 0 ? &excluded : nullptr;
    const std::size_t k = 1 + q % 5;
    EXPECT_EQ(flat.Knows(flow), reference.Knows(flow));
    const auto a = flat.Predict(flow, k, mask);
    const auto b = reference.Predict(flow, k, mask);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].link, b[i].link);
      EXPECT_EQ(a[i].probability, b[i].probability);  // bit-exact
    }
    std::vector<core::Prediction> into(k);
    const std::size_t n = flat.PredictInto(flow, k, mask, into);
    ASSERT_EQ(n, a.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(into[i].link, a[i].link);
      EXPECT_EQ(into[i].probability, a[i].probability);
    }
  }
}

// ------------------------------------- flat table vs the raw-row reference
//
// "Legacy" in these names is the reference written above from the raw
// rows; it replaced the map-served backend these tests once diffed.

TEST(ServingCore, FlatAndLegacyBitIdenticalOverRandomWindows) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto window = RandomWindow(seed);
    for (const auto fs :
         {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
      const auto flat = TrainModel(fs, window);
      const ReferenceModel reference(fs, window);
      ASSERT_EQ(flat.tuple_count(), reference.tuple_count());
      EXPECT_NE(flat.flat_table(), nullptr);
      ExpectExportsIdentical(flat, reference);
      ExpectPredictionsIdentical(flat, reference, seed);
    }
  }
}

TEST(ServingCore, TruncationIdenticalAcrossBackends) {
  // A small max_links_per_tuple forces the ranking truncation path; the
  // flat table must keep exactly the reference's survivors.
  const auto window = RandomWindow(99, /*rows=*/800);
  for (const auto fs : {FeatureSet::kA, FeatureSet::kAL}) {
    const auto flat = TrainModel(fs, window, /*max_links=*/3);
    const ReferenceModel reference(fs, window, /*max_links=*/3);
    ExpectExportsIdentical(flat, reference);
    ExpectPredictionsIdentical(flat, reference, 99);
  }
}

TEST(ServingCore, FromExportRoundTripRebuildsFlatTable) {
  const auto window = RandomWindow(5);
  const auto trained = TrainModel(FeatureSet::kAL, window);
  const auto exported = trained.ExportTable();

  const auto flat =
      HistoricalModel::FromExport(FeatureSet::kAL, 16, true, exported);
  const ReferenceModel reference(FeatureSet::kAL, window);
  EXPECT_NE(flat.flat_table(), nullptr);
  ExpectExportsIdentical(flat, reference);
  ExpectPredictionsIdentical(flat, reference, 5);

  // And the round trip itself is lossless: re-export equals the original.
  const auto reexported = flat.ExportTable();
  ASSERT_EQ(reexported.size(), exported.size());
  for (std::size_t i = 0; i < exported.size(); ++i) {
    EXPECT_TRUE(reexported[i].key == exported[i].key);
    EXPECT_EQ(reexported[i].total_bytes, exported[i].total_bytes);
    EXPECT_EQ(reexported[i].ranked, exported[i].ranked);
  }
}

TEST(ServingCore, FlatTableExposesBuildDiagnostics) {
  const auto window = RandomWindow(11);
  const auto model = TrainModel(FeatureSet::kAP, window);
  const core::FlatTupleTable* table = model.flat_table();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), model.tuple_count());
  EXPECT_GT(table->bucket_count(), table->size());  // load factor < 1
  EXPECT_GT(table->link_count(), 0u);
  EXPECT_GT(table->MemoryFootprintBytes(), 0u);
  EXPECT_GE(table->max_probe_length(), 1u);
}

// ------------------------------------------------------ service fixtures

struct ServiceFixture {
  ServiceFixture()
      : topology(topo::GenerateTinyTopology()),
        wan(topology.peering_links,
            topology.graph.node(topology.wan).presence, 8, 1) {}

  [[nodiscard]] std::vector<pipeline::AggRow> HourRows(
      util::HourIndex hour) const {
    std::vector<pipeline::AggRow> rows;
    const auto links = static_cast<std::uint32_t>(wan.link_count());
    for (std::uint32_t f = 0; f < 6; ++f) {
      auto flow = MakeFlow(100 + f, f + 1, f % 2);
      rows.push_back(MakeRow(
          flow, (f + static_cast<std::uint32_t>(hour)) % links,
          500 + 13 * f + 7 * static_cast<std::uint64_t>(hour)));
      rows.back().hour = hour;
    }
    return rows;
  }

  // Every row TrainService(days) trains on, in training order.
  [[nodiscard]] std::vector<pipeline::AggRow> TrainingRows(
      int days = 3) const {
    std::vector<pipeline::AggRow> rows;
    for (util::HourIndex hour = 0; hour < days * util::kHoursPerDay;
         ++hour) {
      const auto hour_rows = HourRows(hour);
      rows.insert(rows.end(), hour_rows.begin(), hour_rows.end());
    }
    return rows;
  }

  [[nodiscard]] std::shared_ptr<core::TipsyService> TrainService(
      int days = 3) const {
    auto service =
        std::make_shared<core::TipsyService>(&wan, &topology.metros);
    for (util::HourIndex hour = 0; hour < days * util::kHoursPerDay;
         ++hour) {
      service->Train(HourRows(hour));
    }
    service->FinalizeTraining();
    return service;
  }

  // The reference PredictShift: Best() is Hist_AL+G, so the geographic
  // augmentation runs over the reference AL table, and each flow's bytes
  // spread over its predictions in flow order into an ordered map.
  [[nodiscard]] core::TipsyService::ShiftPrediction ReferenceShift(
      const std::vector<core::TipsyService::ShiftQueryFlow>& flows,
      const core::ExclusionMask& excluded, std::size_t k) const {
    const ReferenceModel al(FeatureSet::kAL, TrainingRows());
    const core::GeoAugmentedModel best(&al, &wan, &topology.metros);
    std::map<util::LinkId, double> shifted;
    core::TipsyService::ShiftPrediction out;
    for (const auto& flow : flows) {
      const auto predictions = best.Predict(flow.flow, k, &excluded);
      double total_probability = 0.0;
      for (const auto& p : predictions) total_probability += p.probability;
      if (predictions.empty() || total_probability <= 0.0) {
        out.unpredicted_bytes += flow.bytes;
        continue;
      }
      for (const auto& p : predictions) {
        shifted[p.link] += flow.bytes * (p.probability / total_probability);
      }
    }
    out.shifted.assign(shifted.begin(), shifted.end());
    return out;
  }

  [[nodiscard]] std::vector<core::TipsyService::ShiftQueryFlow> QueryFlows()
      const {
    std::vector<core::TipsyService::ShiftQueryFlow> flows;
    for (util::HourIndex hour = 0; hour < 5; ++hour) {
      for (const auto& row : HourRows(hour)) {
        flows.push_back(core::TipsyService::ShiftQueryFlow{
            FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                         row.dest_region, row.dest_service},
            static_cast<double>(row.bytes)});
      }
    }
    // A couple of flows the model has never seen (unpredicted path).
    flows.push_back(
        core::TipsyService::ShiftQueryFlow{MakeFlow(999, 99, 0), 1234.0});
    flows.push_back(
        core::TipsyService::ShiftQueryFlow{MakeFlow(998, 98, 1), 777.0});
    return flows;
  }

  topo::GeneratedTopology topology;
  wan::Wan wan;
};

// ----------------------------------------------------- batched PredictShift

TEST(ServingCore, BatchedPredictShiftMatchesPerFlowLoop) {
  ServiceFixture fixture;
  const auto flows = fixture.QueryFlows();
  const auto service = fixture.TrainService();
  // The served tables are the reference's, built from the same rows.
  for (const auto fs : {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    ExpectExportsIdentical(service->hist(fs),
                           ReferenceModel(fs, fixture.TrainingRows()));
  }
  core::ExclusionMask excluded(fixture.wan.link_count(), false);
  if (!excluded.empty()) excluded[0] = true;
  for (const std::size_t k : {1u, 3u, 8u}) {
    const auto batched = service->PredictShift(flows, excluded, k);
    // The naive loop: one single-flow batch per flow, accumulated per
    // link in flow order - exactly the contract the batched path
    // promises to reproduce bit for bit.
    std::map<util::LinkId, double> expected;
    double expected_unpredicted = 0.0;
    for (const auto& flow : flows) {
      const auto one =
          service->PredictShift(std::span(&flow, 1), excluded, k);
      for (const auto& [link, bytes] : one.shifted) {
        expected[link] += bytes;
      }
      expected_unpredicted += one.unpredicted_bytes;
    }
    EXPECT_EQ(batched.unpredicted_bytes, expected_unpredicted);
    ASSERT_EQ(batched.shifted.size(), expected.size());
    auto it = expected.begin();
    for (const auto& [link, bytes] : batched.shifted) {
      EXPECT_EQ(link, it->first);       // sorted by link id
      EXPECT_EQ(bytes, it->second);     // bit-exact accumulation
      EXPECT_EQ(batched.BytesFor(link), bytes);
      ++it;
    }
    EXPECT_EQ(batched.BytesFor(util::LinkId{0}), 0.0);  // excluded link
    // And both equal the shift computed from the raw-row reference.
    const auto reference = fixture.ReferenceShift(flows, excluded, k);
    EXPECT_EQ(batched.unpredicted_bytes, reference.unpredicted_bytes);
    EXPECT_EQ(batched.shifted, reference.shifted);
  }
}

TEST(ServingCore, FlatAndLegacyServicesShiftIdentically) {
  ServiceFixture fixture;
  const auto flat = fixture.TrainService();
  const auto flows = fixture.QueryFlows();
  const core::ExclusionMask excluded(fixture.wan.link_count(), false);
  const auto a = flat->PredictShift(flows, excluded, 3);
  const auto b = fixture.ReferenceShift(flows, excluded, 3);
  EXPECT_EQ(a.unpredicted_bytes, b.unpredicted_bytes);
  ASSERT_EQ(a.shifted.size(), b.shifted.size());
  for (std::size_t i = 0; i < a.shifted.size(); ++i) {
    EXPECT_EQ(a.shifted[i].first, b.shifted[i].first);
    EXPECT_EQ(a.shifted[i].second, b.shifted[i].second);
  }
  EXPECT_GT(a.shifted.size(), 0u);
}

TEST(ServingCore, PredictShiftNoMetricsMatchesInstrumented) {
  ServiceFixture fixture;
  const auto service = fixture.TrainService();
  const auto flows = fixture.QueryFlows();
  const core::ExclusionMask excluded(fixture.wan.link_count(), false);
  const auto instrumented = service->PredictShift(flows, excluded, 3);
  const auto bare = service->PredictShiftNoMetrics(flows, excluded, 3);
  EXPECT_EQ(instrumented.unpredicted_bytes, bare.unpredicted_bytes);
  ASSERT_EQ(instrumented.shifted.size(), bare.shifted.size());
  for (std::size_t i = 0; i < instrumented.shifted.size(); ++i) {
    EXPECT_EQ(instrumented.shifted[i], bare.shifted[i]);
  }
}

// -------------------------------------------------- snapshot warm-start

TEST(ServingCore, SnapshotWarmStartRebuildsFlatTables) {
  ServiceFixture fixture;
  core::DailyRetrainer original(&fixture.wan, &fixture.topology.metros,
                                /*window_days=*/3);
  for (util::HourIndex hour = 0; hour < 4 * util::kHoursPerDay; ++hour) {
    original.Ingest(hour, fixture.HourRows(hour));
  }
  ASSERT_NE(original.current(), nullptr);

  core::DailyRetrainer restored(&fixture.wan, &fixture.topology.metros,
                                /*window_days=*/3);
  ASSERT_TRUE(restored.RestoreState(original.ExportState()).ok());
  ASSERT_NE(restored.current(), nullptr);

  // The model bundle round-trips through core::SaveService/LoadService;
  // the restored service must come back up on the flat backend with the
  // flat tables rebuilt, serving bit-identically.
  for (const auto fs :
       {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    const auto& a = original.current()->hist(fs);
    const auto& b = restored.current()->hist(fs);
    EXPECT_NE(b.flat_table(), nullptr);
    ExpectExportsIdentical(b, a);
  }
  const auto flows = fixture.QueryFlows();
  const core::ExclusionMask excluded(fixture.wan.link_count(), false);
  const auto before = original.current()->PredictShift(flows, excluded, 3);
  const auto after = restored.current()->PredictShift(flows, excluded, 3);
  EXPECT_EQ(before.unpredicted_bytes, after.unpredicted_bytes);
  ASSERT_EQ(before.shifted.size(), after.shifted.size());
  for (std::size_t i = 0; i < before.shifted.size(); ++i) {
    EXPECT_EQ(before.shifted[i], after.shifted[i]);
  }
}

// ------------------------------------------------------------ epoch swap

TEST(ServingCore, RetrainerPublishesToAttachedEpoch) {
  ServiceFixture fixture;
  core::ModelEpoch epoch;
  core::DailyRetrainer retrainer(&fixture.wan, &fixture.topology.metros,
                                 /*window_days=*/3);
  retrainer.PublishTo(&epoch);
  EXPECT_EQ(epoch.epoch(), 1u);          // attach publishes immediately
  EXPECT_EQ(epoch.Acquire(), nullptr);   // nothing trained yet
  for (util::HourIndex hour = 0; hour < 3 * util::kHoursPerDay; ++hour) {
    retrainer.Ingest(hour, fixture.HourRows(hour));
  }
  EXPECT_GT(epoch.epoch(), 1u);
  EXPECT_EQ(epoch.Acquire().get(), retrainer.current());
}

// The TSan target: readers keep predicting on acquired snapshots while a
// publisher swaps epochs underneath them. The old epoch must stay alive
// until its last reader drops the snapshot, and no access may race.
// (GCC 12's std::atomic<std::shared_ptr> itself predates libstdc++'s
// TSan mutex annotations, so tools/run_sanitized_fuzz.sh loads
// tools/tsan.supp to silence that one library-internal report.)
TEST(ServingCoreTsan, EpochSwapUnderConcurrentReaders) {
  ServiceFixture fixture;
  const auto model_a = fixture.TrainService(2);
  const auto model_b = fixture.TrainService(3);
  const auto flows = fixture.QueryFlows();
  const core::ExclusionMask excluded(fixture.wan.link_count(), false);

  core::ModelEpoch epoch;
  epoch.Publish(model_a);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = epoch.Acquire();
        ASSERT_NE(snapshot, nullptr);
        const auto result = snapshot->PredictShift(flows, excluded, 3);
        ASSERT_FALSE(result.shifted.empty());
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread publisher([&] {
    for (int i = 0; i < 400; ++i) {
      epoch.Publish(i % 2 == 0 ? model_b : model_a);
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
  });
  publisher.join();
  for (auto& reader : readers) reader.join();

  EXPECT_GE(epoch.epoch(), 401u);
  EXPECT_GT(batches.load(), 0u);
  // Both models survive the churn and still serve.
  EXPECT_FALSE(
      epoch.Acquire()->PredictShift(flows, excluded, 3).shifted.empty());
}

}  // namespace
}  // namespace tipsy

#include "core/historical.h"

#include <algorithm>
#include <cassert>

namespace tipsy::core {

HistoricalModel::HistoricalModel(FeatureSet feature_set,
                                 std::size_t max_links_per_tuple,
                                 bool weight_by_bytes)
    : feature_set_(feature_set),
      max_links_per_tuple_(max_links_per_tuple),
      weight_by_bytes_(weight_by_bytes),
      counts_(feature_set, weight_by_bytes) {
  assert(max_links_per_tuple_ >= 1);
}

void HistoricalModel::Add(const pipeline::AggRow& row) {
  assert(!finalized_);
  counts_.Add(row);
}

void HistoricalModel::AddRows(std::span<const pipeline::AggRow> rows) {
  assert(!finalized_);
  counts_.AddRows(rows);
}

void HistoricalModel::ReserveTuples(std::size_t expected_tuples) {
  counts_.Reserve(expected_tuples);
}

void HistoricalModel::Finalize() {
  flat_ = counts_.Rank(max_links_per_tuple_);
  // The counts were only the build input; serving probes the flat table.
  counts_ = TupleCountTable(feature_set_, weight_by_bytes_);
  finalized_ = true;
}

bool HistoricalModel::LookupRanked(const FlowFeatures& flow,
                                   std::span<const LinkBytes>* ranked,
                                   double* total_bytes) const {
  assert(finalized_);
  if (!HasFeatures(feature_set_, flow)) return false;
  const FlatTupleTable::Bucket* bucket =
      flat_.Find(MakeTupleKey(feature_set_, flow));
  if (bucket == nullptr) return false;
  *ranked = flat_.links(*bucket);
  *total_bytes = bucket->total_bytes;
  return true;
}

std::vector<Prediction> HistoricalModel::Predict(
    const FlowFeatures& flow, std::size_t k,
    const ExclusionMask* excluded) const {
  std::vector<Prediction> out;
  if (k == 0) {
    assert(finalized_);
    return out;
  }
  std::span<const LinkBytes> ranked;
  double total_bytes = 0.0;
  if (!LookupRanked(flow, &ranked, &total_bytes)) return out;
  // Without exclusions, p(l|f) = B(f,l)/B(f). With exclusions the traffic
  // must land somewhere else, so renormalize over the remaining choices.
  double denominator = total_bytes;
  if (excluded != nullptr) {
    denominator = 0.0;
    for (const auto& lb : ranked) {
      if (!IsExcluded(excluded, lb.link)) denominator += lb.bytes;
    }
  }
  if (denominator <= 0.0) return out;
  for (const auto& lb : ranked) {
    if (IsExcluded(excluded, lb.link)) continue;
    out.push_back(Prediction{lb.link, lb.bytes / denominator});
    if (out.size() == k) break;
  }
  return out;
}

std::size_t HistoricalModel::PredictInto(const FlowFeatures& flow,
                                         std::size_t k,
                                         const ExclusionMask* excluded,
                                         std::span<Prediction> out) const {
  if (k > out.size()) k = out.size();
  if (k == 0) {
    assert(finalized_);
    return 0;
  }
  std::span<const LinkBytes> ranked;
  double total_bytes = 0.0;
  if (!LookupRanked(flow, &ranked, &total_bytes)) return 0;
  double denominator = total_bytes;
  if (excluded != nullptr) {
    denominator = 0.0;
    for (const auto& lb : ranked) {
      if (!IsExcluded(excluded, lb.link)) denominator += lb.bytes;
    }
  }
  if (denominator <= 0.0) return 0;
  std::size_t written = 0;
  for (const auto& lb : ranked) {
    if (IsExcluded(excluded, lb.link)) continue;
    out[written++] = Prediction{lb.link, lb.bytes / denominator};
    if (written == k) break;
  }
  return written;
}

std::string HistoricalModel::name() const {
  return std::string("Hist_") + ToString(feature_set_);
}

std::size_t HistoricalModel::MemoryFootprintBytes() const {
  return flat_.MemoryFootprintBytes();
}

bool HistoricalModel::Knows(const FlowFeatures& flow) const {
  if (!HasFeatures(feature_set_, flow)) return false;
  return flat_.Contains(MakeTupleKey(feature_set_, flow));
}

std::vector<HistoricalModel::TupleExport> HistoricalModel::ExportTable()
    const {
  assert(finalized_);
  std::vector<TupleExport> out;
  out.reserve(flat_.size());
  flat_.ForEachBucket([&](const FlatTupleTable::Bucket& bucket) {
    TupleExport exported;
    exported.key = bucket.key;
    exported.total_bytes = bucket.total_bytes;
    const auto links = flat_.links(bucket);
    exported.ranked.reserve(links.size());
    for (const auto& lb : links) {
      exported.ranked.emplace_back(lb.link, lb.bytes);
    }
    out.push_back(std::move(exported));
  });
  std::sort(out.begin(), out.end(),
            [](const TupleExport& a, const TupleExport& b) {
              return a.key < b.key;
            });
  return out;
}

HistoricalModel HistoricalModel::FromExport(
    FeatureSet feature_set, std::size_t max_links_per_tuple,
    bool weight_by_bytes, const std::vector<TupleExport>& table) {
  HistoricalModel model(feature_set, max_links_per_tuple, weight_by_bytes);
  // Exported tables were already ranked and truncated.
  std::vector<FlatTupleTable::Bucket> runs;
  runs.reserve(table.size());
  std::vector<LinkBytes> links;
  for (const auto& exported : table) {
    FlatTupleTable::Bucket run;
    run.key = exported.key;
    run.total_bytes = exported.total_bytes;
    run.links_begin = static_cast<std::uint32_t>(links.size());
    run.link_count = static_cast<std::uint32_t>(exported.ranked.size());
    for (const auto& [link, bytes] : exported.ranked) {
      links.push_back(LinkBytes{link, bytes});
    }
    runs.push_back(run);
  }
  model.flat_ = FlatTupleTable::Build(runs, links);
  model.finalized_ = true;
  return model;
}

HistoricalModel HistoricalModel::FromCounts(std::size_t max_links_per_tuple,
                                            const TupleCountTable& counts,
                                            const TupleCountTable* overlay) {
  HistoricalModel model(counts.feature_set(), max_links_per_tuple,
                        counts.weight_by_bytes());
  if (overlay == nullptr) {
    model.flat_ = counts.Rank(max_links_per_tuple);
  } else {
    // The window aggregate stays untouched (it keeps rolling forward);
    // the model ranks a copy with the overlay merged on top.
    TupleCountTable merged = counts;
    merged.Merge(*overlay);
    model.flat_ = merged.Rank(max_links_per_tuple);
  }
  model.finalized_ = true;
  return model;
}

}  // namespace tipsy::core

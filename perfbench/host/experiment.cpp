// The paper_experiment workload: topology to accuracy tables.
//
// Untraced, it times scenario::Scenario construction (set-up) and then
// RunExperiment(PaperWindows()) plus EvaluateSuite over the four eval sets.
// Traced, it makes the same calls RunExperiment makes, in the same order,
// with a span around each, so the simulation, training, finalization,
// eval-set build and evaluation each get their own time.
#include "experiment.h"

#include <iostream>
#include <unordered_map>

#include "scenario/experiment.h"
#include "util/checksum.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

using tipsy::scenario::ModelAccuracy;
namespace core = tipsy::core;
namespace pipeline = tipsy::pipeline;
namespace scenario = tipsy::scenario;
namespace util = tipsy::util;

constexpr const char* kEvalSetNames[4] = {"overall", "outage_all",
                                          "outage_seen", "outage_unseen"};

struct Tables {
  std::vector<ModelAccuracy> sets[4];
};

Tables EvaluateAll(const scenario::ExperimentResult& result, Tracer* tracer) {
  const core::EvalSet* sets[4] = {&result.overall, &result.outage_all,
                                  &result.outage_seen, &result.outage_unseen};
  Tables tables;
  for (int i = 0; i < 4; ++i) {
    Scoped span(tracer, "core.evaluate_suite");
    if (!sets[i]->empty()) {
      tables.sets[i] = scenario::EvaluateSuite(*result.tipsy, *sets[i]);
    }
  }
  return tables;
}

// CRC-32C over every (eval set, model name, top-k accuracy bits) in table
// order: equal digests mean bit-identical accuracy tables.
std::uint32_t TablesDigest(const Tables& tables) {
  util::Crc32c crc;
  for (int i = 0; i < 4; ++i) {
    crc.Update(kEvalSetNames[i], std::char_traits<char>::length(kEvalSetNames[i]));
    for (const auto& row : tables.sets[i]) {
      crc.Update(row.model.data(), row.model.size());
      for (const double value : row.accuracy.top) {
        crc.Update(&value, sizeof(value));
      }
    }
  }
  return crc.Digest();
}

std::string TablesJson(const Tables& tables) {
  std::string out = "{";
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out += ",";
    out += JsonString(kEvalSetNames[i]) + ":[";
    for (std::size_t r = 0; r < tables.sets[i].size(); ++r) {
      const auto& row = tables.sets[i][r];
      if (r > 0) out += ",";
      out += "[";
      out += JsonString(row.model);
      for (const double value : row.accuracy.top) {
        out += ',';
        out += JsonNumber(100.0 * value);
      }
      out += "]";
    }
    out += "]";
  }
  return out + "}";
}

// RunExperiment, call for call, with spans. Row counts are returned
// through `train_rows` / `test_rows`.
scenario::ExperimentResult TracedExperiment(scenario::RowSource& source,
                                            const scenario::ExperimentConfig& config,
                                            Tracer& tracer,
                                            std::uint64_t& train_rows,
                                            std::uint64_t& test_rows) {
  Scoped root(&tracer, "experiment");
  scenario::ExperimentResult result;
  result.tipsy = std::make_unique<core::TipsyService>(
      &source.wan(), &source.metros(), config.tipsy);
  const auto hours_of = [](util::HourRange r) {
    return r.end > r.begin ? static_cast<std::size_t>(r.end - r.begin)
                           : std::size_t{1};
  };
  const std::size_t train_estimate = source.EstimatedRows(config.train);
  if (train_estimate > 0) {
    result.tipsy->ReserveTuples(2 * train_estimate / hours_of(config.train));
  }
  const std::size_t test_estimate = source.EstimatedRows(config.test);
  if (test_estimate > 0) {
    result.overall.Reserve(2 * test_estimate / hours_of(config.test));
  }

  pipeline::LinkHourTable train_table(source.wan().link_count());
  {
    Scoped stream(&tracer, "scenario.stream_hours");
    source.StreamHours(
        config.train,
        [&](util::HourIndex hour, std::span<const pipeline::AggRow> rows) {
          Scoped sink(&tracer, "experiment.train_sink", hour);
          train_rows += rows.size();
          {
            Scoped train(&tracer, "core.train", hour);
            result.tipsy->Train(rows);
          }
          for (const auto& row : rows) {
            train_table.AddBytes(row.link, hour, static_cast<double>(row.bytes));
          }
        });
  }
  {
    Scoped finalize(&tracer, "core.finalize_training");
    result.tipsy->FinalizeTraining();
  }
  std::vector<bool> seen_in_training;
  {
    Scoped infer(&tracer, "pipeline.infer_outages");
    result.train_outages =
        pipeline::InferOutages(train_table, config.train, config.outage_inference);
    seen_in_training = pipeline::LinksWithOutage(
        result.train_outages, source.wan().link_count(), config.train);
  }

  const core::Model* reference = result.tipsy->Find("Hist_AP");
  if (reference == nullptr) Die("trained service has no Hist_AP");
  std::unordered_map<core::FlowFeatures, util::LinkId, core::FlowFeaturesHash>
      top1_cache;
  auto top1_of = [&](const core::FlowFeatures& flow) {
    auto [it, inserted] = top1_cache.try_emplace(flow, util::LinkId{});
    if (inserted) {
      const auto predictions = reference->Predict(flow, 1, nullptr);
      if (!predictions.empty()) it->second = predictions.front().link;
    }
    return it->second;
  };

  pipeline::LinkHourTable test_table(source.wan().link_count());
  std::unordered_map<util::HourIndex, std::uint32_t> hour_mask;
  {
    Scoped stream(&tracer, "scenario.stream_hours");
    source.StreamHours(
        config.test,
        [&](util::HourIndex hour, std::span<const pipeline::AggRow> rows) {
          Scoped sink(&tracer, "core.evalset_build", hour);
          test_rows += rows.size();
          auto mask_it = hour_mask.find(hour);
          if (mask_it == hour_mask.end()) {
            const auto down = source.outages().DownMask(hour);
            const std::uint32_t id = result.outage_all.InternMask(down);
            result.outage_seen.InternMask(down);
            result.outage_unseen.InternMask(down);
            mask_it = hour_mask.emplace(hour, id).first;
          }
          for (const auto& row : rows) {
            test_table.AddBytes(row.link, hour, static_cast<double>(row.bytes));
            const core::FlowFeatures flow{row.src_asn, row.src_prefix24,
                                          row.src_metro, row.dest_region,
                                          row.dest_service};
            const auto bytes = static_cast<double>(row.bytes);
            result.overall.AddObservation(flow, row.link, bytes, 0);
            const util::LinkId top1 = top1_of(flow);
            if (!top1.valid() || !source.outages().IsDown(top1, hour)) continue;
            const std::uint32_t mask_id = mask_it->second;
            result.outage_all.AddObservation(flow, row.link, bytes, mask_id);
            if (seen_in_training[top1.value()]) {
              result.outage_seen.AddObservation(flow, row.link, bytes, mask_id);
              result.seen_outage_bytes += bytes;
            } else {
              result.outage_unseen.AddObservation(flow, row.link, bytes,
                                                  mask_id);
              result.unseen_outage_bytes += bytes;
            }
          }
        });
  }
  {
    Scoped infer(&tracer, "pipeline.infer_outages");
    result.test_outages =
        pipeline::InferOutages(test_table, config.test, config.outage_inference);
  }
  {
    Scoped finalize(&tracer, "core.evalset_finalize");
    result.overall.Finalize();
    result.outage_all.Finalize();
    result.outage_seen.Finalize();
    result.outage_unseen.Finalize();
  }
  return result;
}

}  // namespace

void AddServedSetMetrics(const core::TipsyService& service,
                         JsonObject& layers) {
  double tuples = 0.0;
  double flat_bytes = 0.0;
  for (const auto fs : {core::FeatureSet::kA, core::FeatureSet::kAP,
                        core::FeatureSet::kAL}) {
    const auto& model = service.hist(fs);
    tuples += static_cast<double>(model.tuple_count());
    if (const auto* flat = model.flat_table(); flat != nullptr) {
      flat_bytes += static_cast<double>(flat->MemoryFootprintBytes());
    }
  }
  layers.Num("core.tuples", tuples);
  layers.Num("core.flat_table_bytes", flat_bytes);
}

int ExperimentMain(const ExperimentOptions& options) {
  JsonObject out;
  out.Str("phase", "experiment");
  out.Int("threads",
          static_cast<std::int64_t>(util::CurrentPool().thread_count()));

  // Set-up: build the scenario several times; each of the last `repeat`
  // worlds then runs the experiment once.
  std::vector<double> setup_s;
  std::vector<double> experiment_s;
  std::uint32_t digest = 0;
  bool repeats_match = true;
  for (int i = 0; i < options.setups; ++i) {
    auto start = Clock::now();
    auto world = std::make_unique<scenario::Scenario>(
        ScenarioFor(options.size, options.seed));
    setup_s.push_back(SecondsSince(start));
    if (i + options.repeat < options.setups) continue;
    start = Clock::now();
    const auto result = scenario::RunExperiment(*world, scenario::PaperWindows());
    const Tables tables = EvaluateAll(result, nullptr);
    experiment_s.push_back(SecondsSince(start));
    if (experiment_s.size() == 1) {
      digest = TablesDigest(tables);
      out.Int("links", static_cast<std::int64_t>(world->wan().link_count()));
      out.Int("flows",
              static_cast<std::int64_t>(world->workload().flows().size()));
      out.Raw("tables", TablesJson(tables));
    } else {
      repeats_match = repeats_match && TablesDigest(tables) == digest;
    }
  }
  out.NumList("setup_s", setup_s);
  out.NumList("experiment_s", experiment_s);
  out.Int("repeat", options.repeat);
  out.Bool("repeats_match", repeats_match);
  out.Str("digest", [&] {
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%08x", digest);
    return std::string(buffer);
  }());

  if (options.trace) {
    // A fresh world, so the traced pass sees the same cold state the
    // untraced one did.
    scenario::Scenario traced_world(ScenarioFor(options.size, options.seed));
    Tracer tracer;
    std::uint64_t train_rows = 0;
    std::uint64_t test_rows = 0;
    const auto traced_start = Clock::now();
    auto traced = TracedExperiment(traced_world, scenario::PaperWindows(),
                                   tracer, train_rows, test_rows);
    const Tables traced_tables = EvaluateAll(traced, &tracer);
    const double traced_s = SecondsSince(traced_start);
    out.Num("traced_experiment_s", traced_s);
    out.Bool("traced_tables_match", TablesDigest(traced_tables) == digest);

    const auto totals = tracer.Summarize();
    const auto self_of = [&](const std::string& name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.self;
    };
    const auto total_of = [&](const std::string& name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total;
    };
    JsonObject layers;
    layers.Num("scenario.simulate_s", self_of("scenario.stream_hours"));
    layers.Num("scenario.rows", static_cast<double>(train_rows + test_rows));
    const double train_s = total_of("core.train");
    layers.Num("core.train_s", train_s);
    layers.Num("core.train_rows_per_s",
               train_s > 0.0 ? static_cast<double>(train_rows) / train_s : 0.0);
    layers.Num("core.finalize_s", total_of("core.finalize_training"));
    layers.Num("core.evalset_build_s", self_of("core.evalset_build") +
                                           total_of("core.evalset_finalize"));
    layers.Num("core.evaluate_s", total_of("core.evaluate_suite"));
    AddServedSetMetrics(*traced.tipsy, layers);
    out.Raw("layers", layers.Dump());

    JsonObject self_table;
    for (const auto& [name, t] : totals) {
      self_table.Num(name, t.self);
    }
    out.Raw("self_s", self_table.Dump());
    if (!options.trace_path.empty() && !tracer.WriteJson(options.trace_path)) {
      Die("cannot write " + options.trace_path);
    }
  }
  out.Num("peak_rss_mb", PeakRssMiB());
  std::cout << out.Dump() << std::endl;
  return 0;
}

}  // namespace perfbench

// Substrate performance. Two parts:
//
//  1. The parallel-substrate sweep (runs by default): serial-vs-parallel
//     simulation, training and evaluation throughput at 1/2/4/hardware
//     threads on the full scenario, verifying along the way that every
//     thread count produces bit-identical simulated rows, ExportTable()
//     and accuracy table. Writes
//     results/bench_substrate_perf.csv and a BENCH_parallel.json summary
//     in the working directory (the repo root when invoked as
//     ./build/bench/bench_substrate_perf), seeding the perf trajectory.
//
//  2. The original micro-benchmarks (BGP recomputation, ingress
//     resolution, simulated hours) behind --micro, via Google Benchmark.
//
// Not a paper table - this is the "can a downstream user afford to run
// it" benchmark for the open-source release.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bgp/routing.h"
#include "core/evaluator.h"
#include "core/tipsy_service.h"
#include "scenario/scenario.h"
#include "topo/generator.h"
#include "util/hash.h"
#include "util/parallel.h"

using namespace tipsy;

namespace {

// ----------------------------------------------------------------------
// Parallel substrate sweep.

struct SweepInput {
  scenario::ScenarioConfig cfg;
  std::vector<std::vector<pipeline::AggRow>> train_batches;
  std::size_t train_rows = 0;
  core::EvalSet eval;
  std::unique_ptr<scenario::Scenario> world;
};

SweepInput BuildSweepInput(const bench::BenchOptions& options) {
  SweepInput input;
  input.cfg = bench::FullScenario(options);
  const util::HourIndex train_days = options.small ? 3 : 7;
  const util::HourIndex test_days = options.small ? 1 : 2;
  input.cfg.horizon =
      util::HourRange{0, (train_days + test_days) * util::kHoursPerDay};
  input.world = std::make_unique<scenario::Scenario>(input.cfg);

  const util::HourRange train{0, train_days * util::kHoursPerDay};
  const util::HourRange test{train.end, input.cfg.horizon.end};
  input.world->SimulateHours(
      train, [&](util::HourIndex, std::span<const pipeline::AggRow> rows) {
        input.train_batches.emplace_back(rows.begin(), rows.end());
        input.train_rows += rows.size();
      });
  input.world->SimulateHours(
      test, [&](util::HourIndex, std::span<const pipeline::AggRow> rows) {
        for (const auto& row : rows) {
          const core::FlowFeatures flow{row.src_asn, row.src_prefix24,
                                        row.src_metro, row.dest_region,
                                        row.dest_service};
          input.eval.AddObservation(flow, row.link,
                                    static_cast<double>(row.bytes), 0);
        }
      });
  input.eval.Finalize();
  return input;
}

struct SweepPoint {
  std::size_t threads = 0;
  double simulate_seconds = 0.0;
  std::uint64_t rows_digest = 0;
  double train_seconds = 0.0;
  double eval_seconds = 0.0;
  std::size_t eval_reps = 0;
  bool rows_identical = true;
  bool export_identical = true;
  bool accuracy_identical = true;
  std::vector<core::HistoricalModel::TupleExport> export_ap;
  core::AccuracyResult accuracy;
};

bool ExportEqual(const std::vector<core::HistoricalModel::TupleExport>& a,
                 const std::vector<core::HistoricalModel::TupleExport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].key == b[i].key) || a[i].total_bytes != b[i].total_bytes ||
        a[i].ranked != b[i].ranked) {
      return false;
    }
  }
  return true;
}

// Order-sensitive digest of every field of every simulated row.
std::uint64_t DigestRow(std::uint64_t digest, const pipeline::AggRow& row) {
  return util::HashCombine(
      digest,
      util::HashAll(row.hour, row.link.value(), row.src_asn.value(),
                    row.src_prefix24.address().bits(),
                    row.src_prefix24.length(), row.src_metro.value(),
                    row.dest_region.value(),
                    static_cast<int>(row.dest_service),
                    row.dest_prefix.value(), row.bytes));
}

SweepPoint RunSweepPoint(const SweepInput& input, std::size_t threads) {
  using Clock = std::chrono::steady_clock;
  util::ScopedPool pool(threads);
  SweepPoint point;
  point.threads = threads;

  // Simulation lane: the sweep window on a fresh world (construction and
  // calibration untimed), digesting the rows in hand-off order.
  {
    scenario::Scenario world(input.cfg);
    const auto simulate_start = Clock::now();
    world.SimulateHours(
        input.cfg.horizon,
        [&](util::HourIndex, std::span<const pipeline::AggRow> rows) {
          for (const auto& row : rows) {
            point.rows_digest = DigestRow(point.rows_digest, row);
          }
        });
    point.simulate_seconds =
        std::chrono::duration<double>(Clock::now() - simulate_start).count();
  }

  const auto train_start = Clock::now();
  core::TipsyService service(&input.world->wan(), &input.world->metros());
  for (const auto& batch : input.train_batches) service.Train(batch);
  service.FinalizeTraining();
  point.train_seconds =
      std::chrono::duration<double>(Clock::now() - train_start).count();

  const core::Model* model = service.Find("Hist_AL/AP/A");
  // Repeat evaluation until it has run for a meaningful wall-time slice.
  const auto eval_start = Clock::now();
  do {
    point.accuracy = core::EvaluateModel(*model, input.eval);
    ++point.eval_reps;
    point.eval_seconds =
        std::chrono::duration<double>(Clock::now() - eval_start).count();
  } while (point.eval_seconds < 0.5);

  point.export_ap = service.hist(core::FeatureSet::kAP).ExportTable();
  return point;
}

void RunParallelSweep(const bench::BenchOptions& options) {
  bench::PrintHeader("substrate_perf",
                     "parallel substrate: simulate/train/evaluate "
                     "throughput by thread count");
  SweepInput input = BuildSweepInput(options);
  const std::size_t hw = util::ParallelConfig{}.Resolve();
  const unsigned cores = bench::HardwareConcurrency();
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);
  std::cout << "scenario: " << input.train_rows << " training rows, "
            << input.eval.cases().size() << " eval cases, hardware threads "
            << hw << " (physical cores " << cores << ")\n";

  std::vector<SweepPoint> points;
  for (const std::size_t threads : thread_counts) {
    points.push_back(RunSweepPoint(input, threads));
    SweepPoint& point = points.back();
    if (points.size() > 1) {
      point.rows_identical = point.rows_digest == points.front().rows_digest;
      point.export_identical =
          ExportEqual(point.export_ap, points.front().export_ap);
      for (std::size_t k = 0; k < core::AccuracyResult::kMaxK; ++k) {
        if (point.accuracy.top[k] != points.front().accuracy.top[k]) {
          point.accuracy_identical = false;
        }
      }
    }
  }

  const double simulated_hours =
      static_cast<double>(input.cfg.horizon.length());
  const double base_simulate_rate =
      simulated_hours / points.front().simulate_seconds;
  const double base_train_rate =
      static_cast<double>(input.train_rows) / points.front().train_seconds;
  const double base_eval_rate =
      static_cast<double>(input.eval.cases().size() *
                          points.front().eval_reps) /
      points.front().eval_seconds;

  // On a single-core host every thread count time-slices one core, so a
  // "speedup" near 1x is an artifact of the scheduler, not a measurement.
  // Label it as skipped rather than report it as real; bit-identity is
  // still meaningful and still checked.
  const bool speedups_measurable = cores > 1;
  const std::string skipped = "skipped: 1 core";

  util::TextTable table({"Threads", "Sim hours/s", "Train rows/s",
                         "Eval cases/s", "Sim speedup", "Train speedup",
                         "Eval speedup", "Identical"});
  std::vector<std::vector<std::string>> csv{
      {"threads", "simulate_hours_per_s", "train_rows_per_s",
       "eval_cases_per_s", "simulate_speedup", "train_speedup",
       "eval_speedup", "rows_identical", "export_identical",
       "accuracy_identical"}};
  for (const SweepPoint& point : points) {
    const double simulate_rate = simulated_hours / point.simulate_seconds;
    const double train_rate =
        static_cast<double>(input.train_rows) / point.train_seconds;
    const double eval_rate =
        static_cast<double>(input.eval.cases().size() * point.eval_reps) /
        point.eval_seconds;
    const bool identical = point.rows_identical &&
                           point.export_identical && point.accuracy_identical;
    char simulate_rate_s[32], train_rate_s[32], eval_rate_s[32];
    char simulate_sp[16], train_sp[16], eval_sp[16];
    std::snprintf(simulate_rate_s, sizeof simulate_rate_s, "%.1f",
                  simulate_rate);
    std::snprintf(simulate_sp, sizeof simulate_sp, "%.2fx",
                  simulate_rate / base_simulate_rate);
    std::snprintf(train_rate_s, sizeof train_rate_s, "%.0f", train_rate);
    std::snprintf(eval_rate_s, sizeof eval_rate_s, "%.0f", eval_rate);
    std::snprintf(train_sp, sizeof train_sp, "%.2fx",
                  train_rate / base_train_rate);
    std::snprintf(eval_sp, sizeof eval_sp, "%.2fx",
                  eval_rate / base_eval_rate);
    const std::string simulate_sp_label =
        speedups_measurable ? simulate_sp : skipped;
    const std::string train_sp_label =
        speedups_measurable ? train_sp : skipped;
    const std::string eval_sp_label =
        speedups_measurable ? eval_sp : skipped;
    table.AddRow({std::to_string(point.threads), simulate_rate_s,
                  train_rate_s, eval_rate_s, simulate_sp_label,
                  train_sp_label, eval_sp_label, identical ? "yes" : "NO"});
    csv.push_back({std::to_string(point.threads), simulate_rate_s,
                   train_rate_s, eval_rate_s, simulate_sp_label,
                   train_sp_label, eval_sp_label,
                   point.rows_identical ? "1" : "0",
                   point.export_identical ? "1" : "0",
                   point.accuracy_identical ? "1" : "0"});
  }
  table.Print(std::cout);
  if (!speedups_measurable) {
    std::cout << "speedups skipped: 1 hardware core - thread counts "
                 "time-slice one core, so ~1x would be noise, not signal\n";
  }
  bench::WriteCsv("bench_substrate_perf", csv);

  // Machine-readable summary for the perf trajectory across PRs.
  std::ofstream json("BENCH_parallel.json");
  if (json) {
    json << "{\n  \"bench\": \"substrate_parallel\",\n";
    json << "  \"hardware_concurrency\": " << cores << ",\n";
    json << "  \"speedups_measurable\": "
         << (speedups_measurable ? "true" : "false") << ",\n";
    json << "  \"simulated_hours\": " << input.cfg.horizon.length()
         << ",\n";
    json << "  \"train_rows\": " << input.train_rows << ",\n";
    json << "  \"eval_cases\": " << input.eval.cases().size() << ",\n";
    json << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& point = points[i];
      const double simulate_rate = simulated_hours / point.simulate_seconds;
      const double train_rate =
          static_cast<double>(input.train_rows) / point.train_seconds;
      const double eval_rate =
          static_cast<double>(input.eval.cases().size() *
                              point.eval_reps) /
          point.eval_seconds;
      json << "    {\"threads\": " << point.threads
           << ", \"simulate_hours_per_s\": " << simulate_rate
           << ", \"train_rows_per_s\": " << static_cast<long long>(train_rate)
           << ", \"eval_cases_per_s\": " << static_cast<long long>(eval_rate)
           << ", \"simulate_speedup\": ";
      if (speedups_measurable) {
        json << simulate_rate / base_simulate_rate;
      } else {
        json << "\"" << skipped << "\"";
      }
      json << ", \"train_speedup\": ";
      if (speedups_measurable) {
        json << train_rate / base_train_rate;
      } else {
        json << "\"" << skipped << "\"";
      }
      json << ", \"eval_speedup\": ";
      if (speedups_measurable) {
        json << eval_rate / base_eval_rate;
      } else {
        json << "\"" << skipped << "\"";
      }
      json << ", \"bit_identical\": "
           << ((point.rows_identical && point.export_identical &&
                point.accuracy_identical)
                   ? "true"
                   : "false")
           << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "wrote BENCH_parallel.json\n";
  }
}

// ----------------------------------------------------------------------
// Original micro-benchmarks (--micro).

topo::GeneratedTopology& SharedTopology() {
  static topo::GeneratedTopology topology = [] {
    topo::GeneratorConfig cfg;
    cfg.seed = 7;
    return topo::GenerateTopology(cfg);
  }();
  return topology;
}

// Full per-prefix route recomputation (what a withdrawal triggers).
void BM_RouteComputation(benchmark::State& state) {
  auto& topology = SharedTopology();
  bgp::RoutingEngine engine(&topology.graph, &topology.metros,
                            &topology.peering_links, 48);
  bgp::AdvertisementState adverts(topology.peering_links.size(), 48);
  std::uint32_t flip = 0;
  for (auto _ : state) {
    // Alternate a withdrawal to force a cache miss each iteration.
    if (flip++ % 2 == 0) {
      adverts.Withdraw(util::PrefixId{0}, util::LinkId{0});
    } else {
      adverts.Announce(util::PrefixId{0}, util::LinkId{0});
    }
    benchmark::DoNotOptimize(
        engine.Routing(util::PrefixId{0}, adverts).per_node.size());
  }
  state.counters["nodes"] =
      static_cast<double>(topology.graph.node_count());
  state.counters["links"] =
      static_cast<double>(topology.peering_links.size());
}

// Per-flow ingress resolution against warm routing caches.
void BM_ResolveIngress(benchmark::State& state) {
  auto& topology = SharedTopology();
  bgp::RoutingEngine engine(&topology.graph, &topology.metros,
                            &topology.peering_links, 48);
  bgp::AdvertisementState adverts(topology.peering_links.size(), 48);
  // Sources: all enterprise nodes.
  std::vector<topo::NodeId> sources;
  for (const auto& node : topology.graph.nodes()) {
    if (node.type == topo::AsType::kEnterprise && !node.presence.empty()) {
      sources.push_back(node.id);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& node = topology.graph.node(sources[i % sources.size()]);
    const auto shares = engine.ResolveIngress(
        node.id, node.presence.front(),
        util::PrefixId{static_cast<std::uint32_t>(i % 48)},
        /*flow_hash=*/i * 2654435761u, /*day=*/static_cast<int>(i % 28),
        adverts);
    benchmark::DoNotOptimize(shares.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

// One fully simulated hour (resolution + sampling + aggregation) at a
// given workload size.
void BM_SimulatedHour(benchmark::State& state) {
  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = static_cast<std::size_t>(state.range(0));
  cfg.horizon = util::HourRange{0, 4000};
  scenario::Scenario world(cfg);
  util::HourIndex hour = 0;
  std::size_t rows_seen = 0;
  for (auto _ : state) {
    world.SimulateHours(
        {hour, hour + 1},
        [&](util::HourIndex, std::span<const pipeline::AggRow> rows) {
          rows_seen += rows.size();
        });
    ++hour;
  }
  benchmark::DoNotOptimize(rows_seen);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["rows/hour"] =
      static_cast<double>(rows_seen) /
      std::max<double>(1.0, static_cast<double>(state.iterations()));
}

}  // namespace

BENCHMARK(BM_RouteComputation)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ResolveIngress);
BENCHMARK(BM_SimulatedHour)
    ->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  bool micro = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0) micro = true;
  }
  const auto options = bench::BenchOptions::Parse(argc, argv);
  RunParallelSweep(options);
  if (micro) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}

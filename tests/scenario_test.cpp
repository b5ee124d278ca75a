#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "scenario/chaos_schedule.h"
#include "scenario/experiment.h"
#include "scenario/outage.h"
#include "scenario/row_cache.h"
#include "scenario/scenario.h"
#include "util/parallel.h"

namespace tipsy::scenario {
namespace {

// --------------------------------------------------------------- outages

TEST(OutageSchedule, NoneIsAlwaysUp) {
  const auto schedule = OutageSchedule::None(5);
  EXPECT_TRUE(schedule.events().empty());
  EXPECT_FALSE(schedule.IsDown(util::LinkId{3}, 100));
}

class OutageScheduleTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  OutageScheduleConfig Config() const {
    OutageScheduleConfig cfg;
    cfg.seed = GetParam();
    return cfg;
  }
};

TEST_P(OutageScheduleTest, EventsWithinWindowAndBounded) {
  const util::HourRange window{0, 365 * 24};
  const auto schedule = OutageSchedule::Generate(200, window, Config());
  EXPECT_FALSE(schedule.events().empty());
  for (const auto& event : schedule.events()) {
    EXPECT_GE(event.hours.begin, window.begin);
    EXPECT_LE(event.hours.end, window.end);
    EXPECT_GE(event.hours.length(), 1);
    EXPECT_LE(event.hours.length(), Config().max_duration_hours);
  }
}

TEST_P(OutageScheduleTest, IsDownConsistentWithEvents) {
  const util::HourRange window{0, 60 * 24};
  const auto schedule = OutageSchedule::Generate(100, window, Config());
  for (const auto& event : schedule.events()) {
    EXPECT_TRUE(schedule.IsDown(event.link, event.hours.begin));
    EXPECT_TRUE(schedule.IsDown(event.link, event.hours.end - 1));
    EXPECT_FALSE(schedule.IsDown(event.link, event.hours.end));
  }
  // The mask agrees with IsDown everywhere.
  const auto mask = schedule.DownMask(17);
  for (std::uint32_t l = 0; l < 100; ++l) {
    EXPECT_EQ(mask[l], schedule.IsDown(util::LinkId{l}, 17));
  }
}

TEST_P(OutageScheduleTest, MostLinksFailWithinAYear) {
  const util::HourRange window{0, 365 * 24};
  const auto schedule = OutageSchedule::Generate(300, window, Config());
  std::vector<bool> failed(300, false);
  for (const auto& event : schedule.events()) {
    failed[event.link.value()] = true;
  }
  const auto count = std::count(failed.begin(), failed.end(), true);
  // Figure 6's phenomenon: a substantial majority of links fail at least
  // once per year.
  EXPECT_GT(count, 150);
  EXPECT_LT(count, 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutageScheduleTest,
                         ::testing::Values(1, 7, 99));

TEST(OutageSchedule, ApplyToSyncsAdvertisementState) {
  OutageScheduleConfig cfg;
  cfg.seed = 3;
  cfg.flappy_fraction = 1.0;  // lots of events
  cfg.flappy_rate_per_year = 400.0;
  const auto schedule = OutageSchedule::Generate(20, {0, 500}, cfg);
  ASSERT_FALSE(schedule.events().empty());
  bgp::AdvertisementState state(20, 2);
  const auto& event = schedule.events().front();
  schedule.ApplyTo(state, event.hours.begin);
  EXPECT_FALSE(state.IsLinkUp(event.link));
  schedule.ApplyTo(state, event.hours.end);
  EXPECT_TRUE(state.IsLinkUp(event.link));
}

// -------------------------------------------------------------- scenario

class ScenarioTest : public ::testing::Test {
 protected:
  static ScenarioConfig Config() {
    auto cfg = TinyScenarioConfig();
    cfg.traffic.flow_target = 400;
    return cfg;
  }
};

bool SameRow(const pipeline::AggRow& a, const pipeline::AggRow& b) {
  return a.hour == b.hour && a.link == b.link && a.src_asn == b.src_asn &&
         a.src_prefix24 == b.src_prefix24 && a.src_metro == b.src_metro &&
         a.dest_region == b.dest_region && a.dest_service == b.dest_service &&
         a.dest_prefix == b.dest_prefix && a.bytes == b.bytes;
}

// Rows must match in order and field by field.
void ExpectSameRows(const std::vector<pipeline::AggRow>& a,
                    const std::vector<pipeline::AggRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(SameRow(a[i], b[i])) << "row " << i << " differs";
  }
}

TEST_F(ScenarioTest, SimulationIsDeterministic) {
  Scenario a(Config());
  Scenario b(Config());
  std::vector<pipeline::AggRow> rows_a, rows_b;
  a.SimulateHours({10, 12}, [&](util::HourIndex,
                                std::span<const pipeline::AggRow> rows) {
    rows_a.insert(rows_a.end(), rows.begin(), rows.end());
  });
  b.SimulateHours({10, 12}, [&](util::HourIndex,
                                std::span<const pipeline::AggRow> rows) {
    rows_b.insert(rows_b.end(), rows.begin(), rows.end());
  });
  ASSERT_FALSE(rows_a.empty());
  ExpectSameRows(rows_a, rows_b);
}

TEST_F(ScenarioTest, NoRowsOnDownLinks) {
  Scenario world(Config());
  bool checked = false;
  world.SimulateHours(
      {0, 48}, [&](util::HourIndex hour,
                   std::span<const pipeline::AggRow> rows) {
        for (const auto& row : rows) {
          EXPECT_FALSE(world.outages().IsDown(row.link, hour));
          checked = true;
        }
      });
  EXPECT_TRUE(checked);
}

TEST_F(ScenarioTest, LoadsMatchRowsRoughly) {
  // Ground-truth loads and sampled rows agree within sampling noise at
  // the aggregate level.
  Scenario world(Config());
  double row_bytes = 0.0;
  double load_bytes = 0.0;
  world.SimulateHours(
      {5, 10},
      [&](util::HourIndex, std::span<const pipeline::AggRow> rows) {
        for (const auto& row : rows) {
          row_bytes += static_cast<double>(row.bytes);
        }
      },
      [&](util::HourIndex, std::span<const double> loads) {
        for (double b : loads) load_bytes += b;
      });
  ASSERT_GT(load_bytes, 0.0);
  EXPECT_NEAR(row_bytes / load_bytes, 1.0, 0.15);
}

TEST_F(ScenarioTest, CalibrationHitsTarget) {
  auto cfg = Config();
  cfg.target_p99_utilization = 0.5;
  Scenario world(cfg);
  // Measure p99 utilization at the probe hour: should be near target.
  std::vector<double> utilization;
  world.SimulateHours(
      {14, 15}, nullptr,
      [&](util::HourIndex, std::span<const double> loads) {
        for (std::uint32_t l = 0; l < loads.size(); ++l) {
          const double cap =
              world.wan().link(util::LinkId{l}).CapacityBytesPerHour();
          if (cap > 0.0 && loads[l] > 0.0) {
            utilization.push_back(loads[l] / cap);
          }
        }
      });
  ASSERT_FALSE(utilization.empty());
  std::sort(utilization.begin(), utilization.end());
  const double p99 = utilization[static_cast<std::size_t>(
      0.99 * static_cast<double>(utilization.size() - 1))];
  EXPECT_GT(p99, 0.15);
  EXPECT_LT(p99, 1.2);
}

TEST_F(ScenarioTest, WithdrawalMovesTraffic) {
  Scenario world(Config());
  // Find the flow's current dominant link, withdraw its prefix there,
  // and check the flow no longer lands on it.
  const std::size_t flow_idx = 0;
  const auto before = world.ResolveFlow(flow_idx, 30);
  ASSERT_FALSE(before.empty());
  const auto prefix =
      world.wan()
          .destination(world.workload().flows()[flow_idx].destination)
          .prefix;
  world.advertisement().Withdraw(prefix, before.front().link);
  const auto after = world.ResolveFlow(flow_idx, 30);
  for (const auto& share : after) {
    EXPECT_NE(share.link, before.front().link);
  }
}

TEST_F(ScenarioTest, ResetAdvertisementsRestores) {
  Scenario world(Config());
  const auto before = world.ResolveFlow(0, 30);
  ASSERT_FALSE(before.empty());
  const auto prefix =
      world.wan().destination(world.workload().flows()[0].destination)
          .prefix;
  world.advertisement().Withdraw(prefix, before.front().link);
  world.ResetAdvertisements();
  const auto after = world.ResolveFlow(0, 30);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(after.front().link, before.front().link);
}

TEST_F(ScenarioTest, FlowFeaturesConsistentWithWorkload) {
  Scenario world(Config());
  for (std::size_t f = 0; f < 20; ++f) {
    const auto features = world.FlowFeaturesOf(f);
    const auto& flow = world.workload().flows()[f];
    const auto& endpoint = world.workload().endpoints()[flow.endpoint];
    EXPECT_EQ(features.src_prefix24, endpoint.prefix24);
    EXPECT_EQ(features.src_metro, endpoint.metro);  // noise-free geoip
    const auto& destination = world.wan().destination(flow.destination);
    EXPECT_EQ(features.dest_region, destination.region);
    EXPECT_EQ(features.dest_service, destination.service);
  }
}

TEST_F(ScenarioTest, BmpRecordsSessionEventsForOutages) {
  Scenario world(Config());
  world.SimulateHours({0, 5 * 24}, nullptr);
  std::size_t downs = 0;
  for (const auto& event : world.outages().events()) {
    if (event.hours.begin < 5 * 24) ++downs;
  }
  EXPECT_EQ(world.bmp().CountOf(telemetry::BmpEventType::kSessionDown),
            downs);
}

// -------------------------------------------------------------- row cache

TEST_F(ScenarioTest, RowCacheReplaysExactly) {
  Scenario live(Config());
  Scenario cached_world(Config());
  RowCache cache(cached_world, {0, 24});

  std::size_t live_rows = 0;
  double live_bytes = 0.0;
  live.SimulateHours({6, 10}, [&](util::HourIndex,
                                  std::span<const pipeline::AggRow> rows) {
    live_rows += rows.size();
    for (const auto& row : rows) {
      live_bytes += static_cast<double>(row.bytes);
    }
  });
  std::size_t cached_rows = 0;
  double cached_bytes = 0.0;
  cache.StreamHours({6, 10}, [&](util::HourIndex,
                                 std::span<const pipeline::AggRow> rows) {
    cached_rows += rows.size();
    for (const auto& row : rows) {
      cached_bytes += static_cast<double>(row.bytes);
    }
  });
  EXPECT_EQ(live_rows, cached_rows);
  EXPECT_DOUBLE_EQ(live_bytes, cached_bytes);
  EXPECT_GT(cache.total_rows(), 0u);
}

// ------------------------------------------- thread-count identity
//
// A live Scenario simulates a block of hours per fork-join; everything
// it hands out must be bit-identical at any pool size.

struct LiveTrace {
  std::vector<util::HourIndex> hours;
  std::vector<std::vector<pipeline::AggRow>> rows;
  std::vector<std::vector<double>> loads;
  pipeline::AggregateStats stats;
  std::size_t estimated_rows = 0;
  std::vector<telemetry::BmpMessage> bmp;
};

void ExpectSameTrace(const LiveTrace& a, const LiveTrace& b) {
  EXPECT_EQ(a.hours, b.hours);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    SCOPED_TRACE("hour " + std::to_string(a.hours[i]));
    ExpectSameRows(a.rows[i], b.rows[i]);
  }
  ASSERT_EQ(a.loads.size(), b.loads.size());
  for (std::size_t i = 0; i < a.loads.size(); ++i) {
    ASSERT_EQ(a.loads[i].size(), b.loads[i].size());
    EXPECT_EQ(0, std::memcmp(a.loads[i].data(), b.loads[i].data(),
                             a.loads[i].size() * sizeof(double)))
        << "loads of hour " << a.hours[i] << " differ";
  }
  EXPECT_EQ(a.stats.raw_records, b.stats.raw_records);
  EXPECT_EQ(a.stats.aggregated_rows, b.stats.aggregated_rows);
  EXPECT_EQ(a.stats.geoip_misses, b.stats.geoip_misses);
  EXPECT_EQ(a.stats.unknown_destinations, b.stats.unknown_destinations);
  EXPECT_EQ(a.estimated_rows, b.estimated_rows);
  ASSERT_EQ(a.bmp.size(), b.bmp.size());
  for (std::size_t i = 0; i < a.bmp.size(); ++i) {
    EXPECT_EQ(a.bmp[i].hour, b.bmp[i].hour);
    EXPECT_EQ(a.bmp[i].link, b.bmp[i].link);
    EXPECT_EQ(a.bmp[i].prefix, b.bmp[i].prefix);
    EXPECT_EQ(a.bmp[i].type, b.bmp[i].type);
  }
}

class ScenarioThreadIdentity : public ::testing::Test {
 protected:
  static ScenarioConfig Config() {
    auto cfg = TinyScenarioConfig();
    cfg.traffic.flow_target = 400;
    cfg.collector_loss_rate = 0.05;
    return cfg;
  }

  // Ranges that start off a day boundary, are not whole days long, and
  // cross an outage transition (hour 0's session-down events aside).
  static std::vector<util::HourRange> Ranges() {
    const Scenario world(Config());
    util::HourIndex transition = -1;
    for (const auto& event : world.outages().events()) {
      if (event.hours.begin >= 20 && event.hours.begin < 80) {
        transition = event.hours.begin;
        break;
      }
    }
    EXPECT_GE(transition, 0) << "no outage begins in hours [20, 80)";
    const util::HourIndex start =
        transition - 17 - (util::HourOfDay(transition - 17) == 0 ? 1 : 0);
    return {util::HourRange{3, start}, util::HourRange{start, start + 41}};
  }

  // Simulates `ranges` on a fresh world under a pool of `threads`. With
  // `withdraw_at`, a loads sink withdraws the prefix of that hour's
  // largest row on its link, CMS-style.
  static LiveTrace Run(std::size_t threads,
                       const std::vector<util::HourRange>& ranges,
                       bool with_loads,
                       util::HourIndex withdraw_at = -1) {
    util::ScopedPool pool(threads);
    Scenario world(Config());
    LiveTrace trace;
    const auto on_rows = [&](util::HourIndex hour,
                             std::span<const pipeline::AggRow> rows) {
      trace.hours.push_back(hour);
      trace.rows.emplace_back(rows.begin(), rows.end());
      // A sink may record into the BMP feed (the CMS does); its messages
      // must land after its hour's session events.
      world.mutable_bmp().Record(telemetry::BmpMessage{
          hour, util::LinkId{}, util::PrefixId{},
          telemetry::BmpEventType::kAnnounce});
    };
    const auto on_loads = [&](util::HourIndex hour,
                              std::span<const double> loads) {
      trace.loads.emplace_back(loads.begin(), loads.end());
      if (hour != withdraw_at) return;
      const auto& rows = trace.rows.back();
      const auto top = std::max_element(
          rows.begin(), rows.end(),
          [](const pipeline::AggRow& a, const pipeline::AggRow& b) {
            return a.bytes < b.bytes;
          });
      ASSERT_NE(top, rows.end());
      world.advertisement().Withdraw(top->dest_prefix, top->link);
    };
    for (const auto& range : ranges) {
      if (with_loads) {
        world.SimulateHours(range, on_rows, on_loads);
      } else {
        world.SimulateHours(range, on_rows);
      }
    }
    trace.stats = world.aggregate_stats();
    trace.estimated_rows = world.EstimatedRows(util::HourRange{0, 24});
    trace.bmp = world.bmp().messages();
    return trace;
  }
};

TEST_F(ScenarioThreadIdentity, RowsMatchAcrossThreadCounts) {
  const auto ranges = Ranges();
  const auto serial = Run(1, ranges, /*with_loads=*/false);
  const auto parallel = Run(4, ranges, /*with_loads=*/false);
  ASSERT_EQ(serial.rows.size(),
            static_cast<std::size_t>(ranges.back().end - ranges.front().begin));
  ExpectSameTrace(serial, parallel);
  EXPECT_GT(serial.estimated_rows, 0u);
  EXPECT_GT(serial.stats.raw_records, serial.stats.aggregated_rows);
  // Session events are recorded as their hour is handed off, not when
  // the block is planned: the feed stays in hour order.
  EXPECT_GT(serial.bmp.size(), serial.rows.size());
  EXPECT_TRUE(std::is_sorted(
      serial.bmp.begin(), serial.bmp.end(),
      [](const telemetry::BmpMessage& a, const telemetry::BmpMessage& b) {
        return a.hour < b.hour;
      }));
}

TEST_F(ScenarioThreadIdentity, LoadsMatchBitForBit) {
  const auto ranges = Ranges();
  const auto serial = Run(1, ranges, /*with_loads=*/true);
  const auto parallel = Run(4, ranges, /*with_loads=*/true);
  ASSERT_EQ(serial.loads.size(), serial.rows.size());
  ExpectSameTrace(serial, parallel);
  // Hourly blocks (loads attached) and day blocks give the same rows.
  const auto day_blocks = Run(4, ranges, /*with_loads=*/false);
  ASSERT_EQ(day_blocks.rows.size(), serial.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    ExpectSameRows(serial.rows[i], day_blocks.rows[i]);
  }
}

TEST_F(ScenarioThreadIdentity, LoadsSinkWithdrawalReachesTheNextHour) {
  const util::HourIndex withdraw_at = 29;
  const std::vector<util::HourRange> ranges{{27, 33}};
  const auto serial = Run(1, ranges, /*with_loads=*/true, withdraw_at);
  const auto parallel = Run(4, ranges, /*with_loads=*/true, withdraw_at);
  ExpectSameTrace(serial, parallel);

  // The withdrawn (prefix, link) pair carries nothing from hour h+1 on.
  const auto& at = serial.rows[withdraw_at - 27];
  const auto top = std::max_element(
      at.begin(), at.end(),
      [](const pipeline::AggRow& a, const pipeline::AggRow& b) {
        return a.bytes < b.bytes;
      });
  ASSERT_NE(top, at.end());
  for (const auto& row : serial.rows[withdraw_at - 27 + 1]) {
    EXPECT_FALSE(row.link == top->link && row.dest_prefix == top->dest_prefix);
  }
  // And hour h+1 differs from a run without the withdrawal.
  const auto untouched = Run(4, ranges, /*with_loads=*/true);
  const auto& next = serial.rows[withdraw_at - 27 + 1];
  const auto& next_untouched = untouched.rows[withdraw_at - 27 + 1];
  const bool same =
      next.size() == next_untouched.size() &&
      std::equal(next.begin(), next.end(), next_untouched.begin(), SameRow);
  EXPECT_FALSE(same);
}

TEST(ScenarioSinkContract, RowsSinkChangingStateInsideADayBlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto cfg = TinyScenarioConfig();
  cfg.traffic.flow_target = 100;
  EXPECT_DEATH(
      {
        Scenario world(cfg);
        world.SimulateHours(
            {24, 30},
            [&](util::HourIndex, std::span<const pipeline::AggRow>) {
              world.advertisement().Withdraw(util::PrefixId{0},
                                             util::LinkId{0});
            });
      },
      "changed the advertisement state");
}

// ------------------------------------------------------------ experiment

TEST(Experiment, PaperWindowsAre21Plus7Days) {
  const auto cfg = PaperWindows(48);
  EXPECT_EQ(cfg.train.begin, 48);
  EXPECT_EQ(cfg.train.length(), 21 * 24);
  EXPECT_EQ(cfg.test.begin, cfg.train.end);
  EXPECT_EQ(cfg.test.length(), 7 * 24);
}

TEST(Experiment, ProducesPopulatedEvalSets) {
  auto cfg = TinyScenarioConfig();
  cfg.traffic.flow_target = 800;
  cfg.horizon = util::HourRange{0, 28 * util::kHoursPerDay};
  Scenario world(cfg);
  const auto result = RunExperiment(world, PaperWindows());
  EXPECT_TRUE(result.tipsy->trained());
  EXPECT_FALSE(result.overall.empty());
  EXPECT_GT(result.overall.total_bytes(), 0.0);
  // Outage sets partition the outage-affected bytes.
  EXPECT_NEAR(result.outage_all.total_bytes(),
              result.outage_seen.total_bytes() +
                  result.outage_unseen.total_bytes(),
              1.0);
  EXPECT_NEAR(result.seen_outage_bytes, result.outage_seen.total_bytes(),
              1.0);
}

TEST(Experiment, SuiteOrderingInvariants) {
  auto cfg = TinyScenarioConfig();
  cfg.traffic.flow_target = 800;
  cfg.horizon = util::HourRange{0, 28 * util::kHoursPerDay};
  Scenario world(cfg);
  const auto result = RunExperiment(world, PaperWindows());
  const auto rows = EvaluateSuite(*result.tipsy, result.overall);
  ASSERT_FALSE(rows.empty());
  double oracle_ap_top3 = 0.0, hist_ap_top3 = 0.0;
  for (const auto& row : rows) {
    // top-k accuracy is monotone in k for every model.
    EXPECT_LE(row.accuracy.top1(), row.accuracy.top2() + 1e-12) << row.model;
    EXPECT_LE(row.accuracy.top2(), row.accuracy.top3() + 1e-12) << row.model;
    EXPECT_GE(row.accuracy.top1(), 0.0);
    EXPECT_LE(row.accuracy.top3(), 1.0 + 1e-12);
    if (row.model == "Oracle_AP") oracle_ap_top3 = row.accuracy.top3();
    if (row.model == "Hist_AP") hist_ap_top3 = row.accuracy.top3();
  }
  // No model beats its oracle.
  EXPECT_GE(oracle_ap_top3, hist_ap_top3 - 1e-9);
}

TEST(Experiment, ParallelRunMatchesSerialRunExactly) {
  auto cfg = TinyScenarioConfig();
  cfg.traffic.flow_target = 800;
  cfg.horizon = util::HourRange{0, 10 * util::kHoursPerDay};
  Scenario world(cfg);
  RowCache cache(world, cfg.horizon);
  ExperimentConfig exp;
  exp.train = util::HourRange{0, 7 * util::kHoursPerDay};
  exp.test = util::HourRange{exp.train.end, cfg.horizon.end};

  // The whole experiment - sharded training, chunked evaluation - must
  // produce exactly the same accuracy table at any thread count.
  const auto run = [&](std::size_t threads) {
    util::ScopedPool pool(threads);
    const auto result = RunExperiment(cache, exp);
    return EvaluateSuite(*result.tipsy, result.overall);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].model, parallel[i].model);
    for (std::size_t k = 0; k < core::AccuracyResult::kMaxK; ++k) {
      EXPECT_EQ(serial[i].accuracy.top[k], parallel[i].accuracy.top[k])
          << serial[i].model << " k=" << k;
    }
  }
}

// ---------------------------------------------------------- chaos schedule
//
// The multi-process chaos harness replays these schedules across CI
// hosts; a schedule that varied by platform (or run) would make a chaos
// failure unreproducible, so determinism is pinned here as a contract.

bool SchedulesEqual(const std::vector<ChaosEvent>& a,
                    const std::vector<ChaosEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].action != b[i].action || a[i].index != b[i].index ||
        a[i].count != b[i].count) {
      return false;
    }
  }
  return true;
}

TEST(ChaosSchedule, SameSeedIsEventForEventIdentical) {
  ChaosScheduleConfig config;
  config.seed = 42;
  config.rounds = 60;
  config.standbys = 3;
  EXPECT_TRUE(SchedulesEqual(BuildChaosSchedule(config),
                             BuildChaosSchedule(config)));
  // And the seed actually matters: a different one diverges.
  auto other = config;
  other.seed = 43;
  EXPECT_FALSE(SchedulesEqual(BuildChaosSchedule(config),
                              BuildChaosSchedule(other)));
}

TEST(ChaosSchedule, StructuralGuaranteesHoldAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 99u, 12345u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosScheduleConfig config;
    config.seed = seed;
    const auto schedule = BuildChaosSchedule(config);
    ASSERT_GE(schedule.size(), 3u);

    // Warmup feed first: the primary must cross a day boundary (and
    // compact) before any fault, so cold standbys always exercise the
    // snapshot catch-up path.
    EXPECT_EQ(schedule.front().action, ChaosAction::kFeedHours);
    EXPECT_EQ(schedule.front().count, config.warmup_hours);
    // Converging suffix: heal everything, then fresh traffic.
    EXPECT_EQ(schedule[schedule.size() - 2].action, ChaosAction::kHealAll);
    EXPECT_EQ(schedule.back().action, ChaosAction::kFeedHours);

    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const auto& event = schedule[i];
      // Feed counts and standby indices stay in bounds.
      if (event.action == ChaosAction::kFeedHours) {
        EXPECT_GE(event.count, 1) << "event " << i;
        EXPECT_LE(event.count,
                  std::max(config.max_feed_hours, config.warmup_hours))
            << "event " << i;
      }
      if (event.action == ChaosAction::kKillStandby ||
          event.action == ChaosAction::kRestartStandby ||
          event.action == ChaosAction::kPartitionStandby ||
          event.action == ChaosAction::kSlowDripStandby ||
          event.action == ChaosAction::kPromoteStandby) {
        EXPECT_GE(event.index, 0) << "event " << i;
        EXPECT_LT(event.index, config.standbys) << "event " << i;
      }
      // Every lingering proxy fault is healed within 3 following events,
      // so no standby rots behind a partition for the rest of the run.
      if (event.action == ChaosAction::kPartitionStandby ||
          event.action == ChaosAction::kSlowDripStandby ||
          event.action == ChaosAction::kDripIngest) {
        bool healed = false;
        for (std::size_t j = i + 1; j < schedule.size() && j <= i + 3; ++j) {
          if (schedule[j].action == ChaosAction::kHealAll) {
            healed = true;
            break;
          }
        }
        EXPECT_TRUE(healed) << ChaosActionName(event.action) << " at event "
                            << i << " not healed within 3 events";
      }
    }
  }
}

TEST(ChaosSchedule, QuorumModeIsDeterministicAndDrillsEverySeed) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 99u, 12345u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosScheduleConfig config;
    config.seed = seed;
    config.quorum = true;
    const auto schedule = BuildChaosSchedule(config);
    EXPECT_TRUE(SchedulesEqual(schedule, BuildChaosSchedule(config)));

    // Warmup feed first, converging heal+feed last — same frame as the
    // ship-fault schedules.
    EXPECT_EQ(schedule.front().action, ChaosAction::kFeedHours);
    EXPECT_EQ(schedule[schedule.size() - 2].action, ChaosAction::kHealAll);
    EXPECT_EQ(schedule.back().action, ChaosAction::kFeedHours);

    // The quorum drill runs on EVERY seed, in order: the primary's
    // heartbeats go dark, a ranked failover must follow, then a standby's
    // heartbeats go dark too and the majority gate must hold the plane
    // dark.
    std::size_t primary_dark = 0, failover = 0, standby_dark = 0, dark = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const auto& event = schedule[i];
      switch (event.action) {
        case ChaosAction::kPartitionHeartbeat:
          // Member indices: 0 the primary, 1..standbys the standbys.
          EXPECT_GE(event.index, 0) << "event " << i;
          EXPECT_LE(event.index, config.standbys) << "event " << i;
          if (event.index == 0) primary_dark = i;
          if (event.index > 0 && i > failover && failover > 0) {
            standby_dark = i;
          }
          break;
        case ChaosAction::kAwaitFailover: failover = i; break;
        case ChaosAction::kAwaitDark: dark = i; break;
        case ChaosAction::kPromoteStandby:
        case ChaosAction::kPartitionStandby:
        case ChaosAction::kSlowDripStandby:
        case ChaosAction::kDripIngest:
          ADD_FAILURE() << "ship-path fault " << ChaosActionName(event.action)
                        << " in a quorum schedule (event " << i << ")";
          break;
        default: break;
      }
    }
    EXPECT_GT(failover, primary_dark);
    EXPECT_GT(standby_dark, failover);
    EXPECT_GT(dark, standby_dark);

    // Heartbeat partitions outside the drill heal within 3 events, the
    // same no-rot guarantee the ship-path faults carry.
    for (std::size_t i = 0; i + 1 < primary_dark; ++i) {
      if (schedule[i].action != ChaosAction::kPartitionHeartbeat) continue;
      bool healed = false;
      for (std::size_t j = i + 1; j < schedule.size() && j <= i + 3; ++j) {
        if (schedule[j].action == ChaosAction::kHealAll) {
          healed = true;
          break;
        }
      }
      EXPECT_TRUE(healed) << "heartbeat partition at event " << i
                          << " not healed within 3 events";
    }
  }
}

}  // namespace
}  // namespace tipsy::scenario

#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "core/tipsy_service.h"

namespace perfbench {

struct ExperimentOptions {
  std::uint64_t seed = 20211110;
  Size size = Size::kDefault;
  int setups = 3;  // timed Scenario constructions
  int repeat = 1;  // experiments, one on each of the last `repeat` worlds
  bool trace = false;
  std::string trace_path;
};

// Runs the paper experiment and prints one JSON line (see experiment.cpp).
int ExperimentMain(const ExperimentOptions& options);

// core.tuples and core.flat_table_bytes of a served model: the tuple count
// and flat-table footprint summed over Hist_A, Hist_AP and Hist_AL.
void AddServedSetMetrics(const tipsy::core::TipsyService& service,
                         JsonObject& layers);

}  // namespace perfbench

// perfbench_host: the compiled half of the end-to-end benchmark. run.py
// builds it and drives its subcommands; each prints one JSON line.
//
//   perfbench_host experiment --seed N --size default|daemon6k
//                             [--setups K] [--repeat R] [--trace PATH]
//   perfbench_host prepare --seed N --size S --dir D --future-hours H
//                          [--digest-at a,b]
//   perfbench_host daemon  --seed N --size S --dir D
//   perfbench_host load    --seed N --request-seed M --size S --prepared D
//                          --work W ...
//                          (see LoadOptions in serving.h)
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment.h"
#include "serving.h"

namespace {

using perfbench::Die;

std::uint64_t ParseU64(const std::string& text) {
  char* end = nullptr;
  const auto value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') Die("bad number " + text);
  return value;
}

double ParseDouble(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') Die("bad number " + text);
  return value;
}

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> values;
  std::stringstream items(text);
  std::string item;
  while (std::getline(items, item, ',')) {
    if (!item.empty()) values.push_back(ParseDouble(item));
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_host <subcommand> [--flag value]...");
  const std::string command = argv[1];
  std::vector<std::pair<std::string, std::string>> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad flag " + flag);
    flags.emplace_back(flag.substr(2), argv[++i]);
  }
  const auto unknown = [](const std::string& key) {
    Die("unknown flag --" + key);
  };

  if (command == "experiment") {
    perfbench::ExperimentOptions o;
    for (const auto& [key, value] : flags) {
      if (key == "seed") o.seed = ParseU64(value);
      else if (key == "size") o.size = perfbench::ParseSize(value);
      else if (key == "setups") o.setups = static_cast<int>(ParseU64(value));
      else if (key == "repeat") o.repeat = static_cast<int>(ParseU64(value));
      else if (key == "trace") { o.trace = true; o.trace_path = value; }
      else unknown(key);
    }
    if (o.repeat < 1 || o.repeat > o.setups) Die("need 1 <= --repeat <= --setups");
    return perfbench::ExperimentMain(o);
  }
  if (command == "prepare") {
    perfbench::PrepareOptions o;
    for (const auto& [key, value] : flags) {
      if (key == "seed") o.seed = ParseU64(value);
      else if (key == "size") o.size = perfbench::ParseSize(value);
      else if (key == "dir") o.dir = value;
      else if (key == "future-hours") o.future_hours = static_cast<int>(ParseU64(value));
      else if (key == "digest-at") {
        for (const double v : ParseList(value)) o.digest_at.push_back(static_cast<int>(v));
      } else unknown(key);
    }
    return perfbench::PrepareMain(o);
  }
  if (command == "daemon") {
    perfbench::DaemonOptions o;
    for (const auto& [key, value] : flags) {
      if (key == "seed") o.seed = ParseU64(value);
      else if (key == "size") o.size = perfbench::ParseSize(value);
      else if (key == "dir") o.dir = value;
      else unknown(key);
    }
    return perfbench::DaemonMain(o);
  }
  if (command == "load") {
    perfbench::LoadOptions o;
    for (const auto& [key, value] : flags) {
      if (key == "seed") o.seed = ParseU64(value);
      else if (key == "request-seed") o.request_seed = ParseU64(value);
      else if (key == "size") o.size = perfbench::ParseSize(value);
      else if (key == "prepared") o.prepared = value;
      else if (key == "work") o.work = value;
      else if (key == "restarts") o.restarts = static_cast<int>(ParseU64(value));
      else if (key == "idle-rate") o.idle_rate = ParseDouble(value);
      else if (key == "idle-seconds") o.idle_seconds = ParseDouble(value);
      else if (key == "read-rate") o.read_rate = ParseDouble(value);
      else if (key == "read-seconds") o.read_seconds = ParseDouble(value);
      else if (key == "read-tries") o.read_tries = static_cast<int>(ParseU64(value));
      else if (key == "ladder") o.ladder = ParseList(value);
      else if (key == "rung-seconds") o.rung_seconds = ParseDouble(value);
      else if (key == "limit-us") o.limit_us = ParseDouble(value);
      else if (key == "backfill-hours") o.backfill_hours = static_cast<int>(ParseU64(value));
      else if (key == "backfill-chunk-hours") o.backfill_chunk_hours = static_cast<int>(ParseU64(value));
      else if (key == "mixed-hours") o.mixed_hours = static_cast<int>(ParseU64(value));
      else if (key == "mixed-interval-ms") o.mixed_interval_ms = ParseDouble(value);
      else if (key == "window-digest") o.window_digest = value;
      else if (key == "final-digest") o.final_digest = value;
      else if (key == "trace") { o.trace = true; o.trace_path = value; }
      else unknown(key);
    }
    if (o.restarts < 1) Die("--restarts must be at least 1");
    if (o.read_tries < 1) Die("--read-tries must be at least 1");
    if (o.backfill_chunk_hours < 1) Die("--backfill-chunk-hours must be at least 1");
    return perfbench::LoadMain(o);
  }
  Die("unknown subcommand " + command);
}

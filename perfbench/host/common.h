// Shared pieces of the benchmark host: scenario sizing by seed, a flat
// JSON object writer, order statistics, the span recorder the traced runs
// use, and small process/filesystem helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds on CLOCK_MONOTONIC, comparable across processes (the daemon
// stamps the start of its warm restart with it; the load process stamps
// the first answered predict).
[[nodiscard]] double MonoSeconds();
[[nodiscard]] double SecondsSince(Clock::time_point start);

// The scenario sizes the workloads use. Each keeps its own world
// (topology, WAN, Geo-IP, traffic) and takes the workload seed for the
// outage schedule and the IPFIX sampling the way DefaultScenarioConfig
// takes its own (outages = seed+2, IPFIX = seed+3), so the default seed
// reproduces the repository's default scenario exactly and other seeds
// vary the inputs without resizing the world. kDaemon6k is the sweep
// benches' 6,000-flow world; kTiny is the unit-test world stretched to 28
// days.
enum class Size { kDefault, kDaemon6k, kTiny };
[[nodiscard]] tipsy::scenario::ScenarioConfig ScenarioFor(Size size,
                                                          std::uint64_t seed);
[[nodiscard]] Size ParseSize(const std::string& name);
[[nodiscard]] const char* SizeName(Size size);

// Ordered key -> raw JSON value; Dump() renders one line.
class JsonObject {
 public:
  void Num(const std::string& key, double value);
  void Int(const std::string& key, std::int64_t value);
  void Str(const std::string& key, const std::string& value);
  void Bool(const std::string& key, bool value);
  void Raw(const std::string& key, const std::string& json);
  void NumList(const std::string& key, const std::vector<double>& values);
  [[nodiscard]] std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};
[[nodiscard]] std::string JsonString(const std::string& text);
[[nodiscard]] std::string JsonNumber(double value);

[[nodiscard]] double Median(std::vector<double> values);
// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double Percentile(std::vector<double> values, double p);

// In-memory span recorder. Spans carry name, start, end, parent and a
// request id; they are written out once, at exit, never on the timed path.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     // index into spans(), -1 for a root
    std::int64_t request = -1;
  };

  // Opens a span as a child of the innermost open span.
  int Begin(const std::string& name, std::int64_t request = -1);
  void End(int span);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Per name: total duration and self time (duration minus the part of
  // the interval covered by child spans), both in seconds.
  struct Totals {
    double total = 0.0;
    double self = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> Summarize() const;

  [[nodiscard]] bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer makes it a no-op (the untraced path).
class Scoped {
 public:
  Scoped(Tracer* tracer, const std::string& name, std::int64_t request = -1)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double PeakRssMiB();

// Copies every regular file of `from` into `to` (created; emptied first).
// Files named in `link_names` are hard-linked instead: only for files the
// program replaces by rename and never writes in place (the snapshot).
void CopyDirectory(const std::string& from, const std::string& to,
                   const std::vector<std::string>& link_names = {});
[[nodiscard]] std::uint64_t FileBytes(const std::string& path);

// Prints `message` to stderr and exits 1: the benchmark's only error path.
[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

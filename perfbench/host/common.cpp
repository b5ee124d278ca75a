#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double MonoSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

tipsy::scenario::ScenarioConfig ScenarioFor(Size size, std::uint64_t seed) {
  auto cfg = size == Size::kTiny ? tipsy::scenario::TinyScenarioConfig()
                                 : tipsy::scenario::DefaultScenarioConfig();
  if (size == Size::kTiny) cfg.horizon = tipsy::util::HourRange{0, 28 * 24};
  // The world (topology, WAN, Geo-IP, traffic) stays the size's own; the
  // seed varies the outage schedule and the IPFIX sampling.
  cfg.outages.seed = seed + 2;
  cfg.ipfix.seed = seed + 3;
  if (size == Size::kDaemon6k) {
    // The sweep benches' reduced world: about 6,000 flow aggregates.
    cfg.traffic.flow_target = 6000;
    cfg.topology.access_isp_count = 90;
    cfg.topology.enterprise_count = 150;
  }
  return cfg;
}

Size ParseSize(const std::string& name) {
  if (name == "default") return Size::kDefault;
  if (name == "daemon6k") return Size::kDaemon6k;
  if (name == "tiny") return Size::kTiny;
  Die("unknown scenario size " + name);
}

const char* SizeName(Size size) {
  switch (size) {
    case Size::kDefault: return "default";
    case Size::kDaemon6k: return "daemon6k";
    case Size::kTiny: return "tiny";
  }
  return "?";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void JsonObject::Num(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
}
void JsonObject::Int(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}
void JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonString(value));
}
void JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}
void JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}
void JsonObject::NumList(const std::string& key,
                         const std::vector<double>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) list += ",";
    list += JsonNumber(values[i]);
  }
  fields_.emplace_back(key, list + "]");
}
std::string JsonObject::Dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

int Tracer::Begin(const std::string& name, std::int64_t request) {
  Span span;
  span.name = name;
  span.start = SecondsSince(origin_);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[static_cast<std::size_t>(span)].end = SecondsSince(origin_);
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& entry = totals[spans_[i].name];
    const double duration = spans_[i].end - spans_[i].start;
    entry.total += duration;
    entry.self += duration - child_time[i];
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"id\":" << i << ",\"name\":" << JsonString(span.name)
        << ",\"start\":" << JsonNumber(span.start)
        << ",\"end\":" << JsonNumber(span.end)
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void CopyDirectory(const std::string& from, const std::string& to,
                   const std::vector<std::string>& link_names) {
  namespace fs = std::filesystem;
  fs::remove_all(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    if (!entry.is_regular_file()) continue;
    const auto name = entry.path().filename();
    const auto target = fs::path(to) / name;
    if (std::find(link_names.begin(), link_names.end(), name.string()) !=
        link_names.end()) {
      fs::create_hard_link(entry.path(), target);
    } else {
      fs::copy_file(entry.path(), target);
    }
  }
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::uint64_t>(size);
}

void Die(const std::string& message) {
  std::cerr << "perfbench_host: " << message << std::endl;
  std::exit(1);
}

}  // namespace perfbench

// The serving half of the benchmark: warm-state preparation, the daemon
// host, and the load generator that measures the predict RPC, collector
// ingest and day-boundary closes from outside the daemon process.
#include "serving.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "experiment.h"
#include "ha/replica.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/wire.h"

extern char** environ;

namespace perfbench {
namespace {

namespace core = tipsy::core;
namespace ha = tipsy::ha;
namespace net = tipsy::net;
namespace pipeline = tipsy::pipeline;
namespace scenario = tipsy::scenario;
namespace util = tipsy::util;
namespace fs = std::filesystem;

constexpr int kWindowDays = 14;
constexpr util::HourIndex kWindowEnd = kWindowDays * util::kHoursPerDay;
constexpr std::size_t kDistinctRequests = 512;
constexpr std::size_t kVerifiedRequests = 16;
// A run whose generator sent requests later than this (p99, beyond any
// wait for the previous reply) measured its own lag, not the daemon.
constexpr double kMaxGeneratorLagMs = 10.0;
// A read try is quiet when the hypervisor stole at most this share of the
// CPU time during it: a stolen vCPU stalls requests for milliseconds, and
// such a try's p99 measures the neighbours. Tries are made until
// LoadOptions::read_tries of them were quiet, at most kReadTries in all;
// after a try that was not, the generator waits up to kQuietWaitS for a
// quiet second, kQuietWaitTotalS at most in all.
constexpr double kMaxReadStealShare = 0.005;
constexpr int kReadTries = 6;
constexpr double kQuietWaitS = 5.0;
constexpr double kQuietWaitTotalS = 10.0;

std::string Hex(std::uint32_t value) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%08x", value);
  return buffer;
}

std::string JournalPath(const std::string& dir) { return dir + "/journal"; }
std::string SnapshotPath(const std::string& dir) { return dir + "/snapshot"; }
// A prepared directory holds state/ (journal, manifest, snapshot) and
// future.rows.
std::string StatePath(const std::string& prepared) { return prepared + "/state"; }
std::string FuturePath(const std::string& prepared) {
  return prepared + "/future.rows";
}

// A fresh replica directory from the prepared state. The snapshot is only
// ever replaced by rename (util::WriteFileAtomic), so a hard link is as
// fresh as a copy; the journal is appended in place and is copied.
void FreshReplicaDir(const std::string& state, const std::string& dir) {
  CopyDirectory(state, dir, {"snapshot"});
}

// --- Rows of the hours after the window, in a flat binary file.
struct HourRows {
  util::HourIndex hour = 0;
  std::vector<pipeline::AggRow> rows;
};
static_assert(std::is_trivially_copyable_v<pipeline::AggRow>);

void WriteRows(const std::string& path, const std::vector<HourRows>& hours) {
  std::ofstream out(path, std::ios::binary);
  for (const auto& hour : hours) {
    const std::int64_t h = hour.hour;
    const std::uint64_t n = hour.rows.size();
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(hour.rows.data()),
              static_cast<std::streamsize>(n * sizeof(pipeline::AggRow)));
  }
  if (!out) Die("cannot write " + path);
}

std::vector<HourRows> ReadRows(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::vector<HourRows> hours;
  std::int64_t h = 0;
  while (in.read(reinterpret_cast<char*>(&h), sizeof(h))) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in || n > (1u << 26)) Die("damaged row file " + path);
    HourRows hour;
    hour.hour = h;
    hour.rows.resize(n);
    in.read(reinterpret_cast<char*>(hour.rows.data()),
            static_cast<std::streamsize>(n * sizeof(pipeline::AggRow)));
    if (!in) Die("damaged row file " + path);
    hours.push_back(std::move(hour));
  }
  return hours;
}

// The replica configuration the daemon serves with: durable appends,
// a snapshot plus compaction at every day boundary.
ha::ReplicaConfig ServingReplicaConfig(const std::string& dir) {
  ha::ReplicaConfig config;
  config.journal_path = JournalPath(dir);
  config.snapshot_path = SnapshotPath(dir);
  config.fsync_appends = true;
  config.snapshot_on_day_boundary = true;
  config.compact_after_snapshot = true;
  return config;
}

ha::Replica OpenReplica(const scenario::Scenario& world,
                        const ha::ReplicaConfig& config) {
  auto replica = ha::Replica::Open(&world.wan(), &world.metros(), kWindowDays,
                                   core::TipsyConfig{}, core::RetrainPolicy{},
                                   config);
  if (!replica.ok()) Die("replica open: " + replica.status().ToString());
  return *std::move(replica);
}

void Check(const util::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// The machine's CPU time so far, from /proc/stat: all of it, and the part
// the hypervisor stole.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes times;
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(stat >> ticks)) break;
    times.total += ticks;
    if (field == 7) times.steal = ticks;
  }
  return times;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

// Waits, at most `limit_s`, for a second in which the hypervisor stole no
// more than kMaxReadStealShare of the CPU time; returns the seconds waited.
double WaitForQuietHost(double limit_s) {
  const auto start = Clock::now();
  while (SecondsSince(start) < limit_s) {
    const CpuTimes before = ReadCpuTimes();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    if (StealShare(before, ReadCpuTimes()) <= kMaxReadStealShare) break;
  }
  return SecondsSince(start);
}

}  // namespace

// ---------------------------------------------------------------- prepare

int PrepareMain(const PrepareOptions& options) {
  scenario::Scenario world(ScenarioFor(options.size, options.seed));
  const std::string build = options.dir + "/build";
  const std::string state = StatePath(options.dir);
  fs::remove_all(options.dir);
  fs::create_directories(build);

  // Untimed and unsynced: the state is made by the code under test, but
  // only its content matters here.
  ha::ReplicaConfig config;
  config.journal_path = JournalPath(build);
  config.snapshot_path = SnapshotPath(build);
  config.fsync_appends = false;
  config.snapshot_on_day_boundary = false;
  ha::Replica replica = OpenReplica(world, config);

  // The scenario simulates on its own thread, a few hours ahead of the
  // replica ingesting them; rows reach the replica in hour order.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<HourRows> queue;
  bool simulated = false;
  const util::HourIndex end = kWindowEnd + options.future_hours;
  std::thread simulator([&] {
    world.StreamHours(util::HourRange{0, end},
                      [&](util::HourIndex hour,
                          std::span<const pipeline::AggRow> rows) {
                        HourRows next{hour, {rows.begin(), rows.end()}};
                        std::unique_lock<std::mutex> lock(mu);
                        cv.wait(lock, [&] { return queue.size() < 8; });
                        queue.push_back(std::move(next));
                        cv.notify_all();
                      });
    std::lock_guard<std::mutex> lock(mu);
    simulated = true;
    cv.notify_all();
  });

  JsonObject out;
  out.Str("phase", "prepare");
  JsonObject digests;
  std::vector<HourRows> future;
  std::uint64_t window_rows = 0;
  const auto start = Clock::now();
  while (true) {
    HourRows hour;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || simulated; });
      if (queue.empty()) break;
      hour = std::move(queue.front());
      queue.pop_front();
      cv.notify_all();
    }
    if (hour.hour < kWindowEnd) {
      window_rows += hour.rows.size();
      Check(replica.Ingest(hour.hour, hour.rows), "window ingest");
      continue;
    }
    if (future.empty()) {
      // The window is complete: checkpoint it as the prepared state.
      Check(replica.SnapshotNow(), "snapshot");
      Check(replica.CompactThroughSnapshot(), "compact");
      out.Num("prepare_s", SecondsSince(start));
      CopyDirectory(build, state, {"snapshot"});
      out.Str("window_digest", Hex(ha::ReplicaStateDigest(replica)));
    }
    // The control: the same replica, fed the following hours in process
    // through Replica::Ingest, one record at a time.
    Check(replica.Ingest(hour.hour, hour.rows), "control ingest");
    future.push_back(std::move(hour));
    const int count = static_cast<int>(future.size());
    if (std::find(options.digest_at.begin(), options.digest_at.end(), count) !=
        options.digest_at.end()) {
      digests.Str(std::to_string(count), Hex(ha::ReplicaStateDigest(replica)));
    }
  }
  simulator.join();
  if (future.empty()) Die("prepare needs at least one hour after the window");
  WriteRows(FuturePath(options.dir), future);
  out.Int("window_rows", static_cast<std::int64_t>(window_rows));
  out.Int("snapshot_bytes",
          static_cast<std::int64_t>(FileBytes(SnapshotPath(state))));
  out.Raw("control_digests", digests.Dump());
  fs::remove_all(build);
  std::cout << out.Dump() << std::endl;
  return 0;
}

// ----------------------------------------------------------------- daemon

int DaemonMain(const DaemonOptions& options) {
  scenario::Scenario world(ScenarioFor(options.size, options.seed));
  const double open_mono = MonoSeconds();
  ha::Replica replica = OpenReplica(world, ServingReplicaConfig(options.dir));
  const double opened_mono = MonoSeconds();
  tipsy::obs::Registry registry;
  const auto replica_metrics = replica.RegisterMetrics(registry, "tipsyd_replica");
  net::Daemon daemon(&replica, &registry, net::DaemonConfig{});
  Check(daemon.Start(), "daemon start");
  std::printf("READY open_mono=%.9f opened_mono=%.9f predict=%u ingest=%u "
              "metrics=%u\n",
              open_mono, opened_mono, daemon.predict_port(),
              daemon.ingest_port(), daemon.metrics_port());
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line) && line != "stop") {
  }
  daemon.Stop();
  std::printf("STOPPED digest=%s applied_seq=%llu\n",
              Hex(ha::ReplicaStateDigest(replica)).c_str(),
              static_cast<unsigned long long>(replica.applied_seq()));
  std::fflush(stdout);
  return 0;
}

namespace {

// ------------------------------------------------------ daemon processes

// One daemon child: spawned from this same binary, READY parsed from its
// stdout, stopped through its stdin and reaped with its rusage.
class DaemonProcess {
 public:
  DaemonProcess(const LoadOptions& options, const std::string& dir) {
    int in_pipe[2];
    int out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
      Die("pipe");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
    const std::string exe = fs::read_symlink("/proc/self/exe").string();
    const std::string seed = std::to_string(options.seed);
    std::vector<std::string> args = {exe,    "daemon", "--size",
                                     SizeName(options.size), "--seed", seed,
                                     "--dir", dir};
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(),
                    environ) != 0) {
      Die("spawn daemon");
    }
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    stdin_fd_ = in_pipe[1];
    stdout_fd_ = out_pipe[0];

    const std::string ready = ReadLine(120.0);
    std::istringstream fields(ready);
    std::string word;
    fields >> word;
    if (word != "READY") Die("daemon did not come up: " + ready);
    while (fields >> word) {
      const auto eq = word.find('=');
      const std::string key = word.substr(0, eq);
      const std::string value = word.substr(eq + 1);
      if (key == "open_mono") open_mono = std::stod(value);
      if (key == "opened_mono") opened_mono = std::stod(value);
      if (key == "predict") predict_port = static_cast<std::uint16_t>(std::stoi(value));
      if (key == "ingest") ingest_port = static_cast<std::uint16_t>(std::stoi(value));
      if (key == "metrics") metrics_port = static_cast<std::uint16_t>(std::stoi(value));
    }
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
    if (stdin_fd_ >= 0) close(stdin_fd_);
    if (stdout_fd_ >= 0) close(stdout_fd_);
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  struct Exit {
    std::string digest;
    double peak_rss_mb = 0.0;
  };
  // Asks the daemon to stop and reaps it.
  Exit Stop() {
    const char stop[] = "stop\n";
    if (write(stdin_fd_, stop, sizeof(stop) - 1) < 0) Die("daemon stdin");
    close(stdin_fd_);
    stdin_fd_ = -1;
    const std::string line = ReadLine(120.0);
    Exit exit;
    const auto pos = line.find("digest=");
    if (line.rfind("STOPPED", 0) != 0 || pos == std::string::npos) {
      Die("daemon did not stop cleanly: " + line);
    }
    exit.digest = line.substr(pos + 7, 8);
    int status = 0;
    rusage usage{};
    if (wait4(pid_, &status, 0, &usage) != pid_ || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      Die("daemon exited badly");
    }
    pid_ = -1;
    exit.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return exit;
  }

  double open_mono = 0.0;
  double opened_mono = 0.0;
  std::uint16_t predict_port = 0;
  std::uint16_t ingest_port = 0;
  std::uint16_t metrics_port = 0;

 private:
  std::string ReadLine(double timeout_s) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    while (true) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now()).count();
      if (left <= 0) Die("daemon output timed out");
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
      char chunk[4096];
      const ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
      if (n <= 0) Die("daemon closed its output: " + buffer_);
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string buffer_;
};

// ------------------------------------------------------------- requests

// Each request asks what the CMS asks when it drains a link (§4.4): where
// do the bytes of every flow on that link go once it is withdrawn. Flows
// are the first hour after the window's, each on its top link (the link
// that carried most of its bytes); a request's link is drawn uniformly
// from the links that top some flow, so request sizes follow the data.
std::vector<net::PredictRequest> BuildRequests(const HourRows& hour,
                                               std::uint64_t seed) {
  struct Flow {
    core::FlowFeatures features;
    double bytes = 0.0;
    std::map<std::uint32_t, double> links;
  };
  std::vector<Flow> flows;
  std::unordered_map<core::FlowFeatures, std::size_t, core::FlowFeaturesHash>
      index;
  for (const auto& row : hour.rows) {
    const core::FlowFeatures features{row.src_asn, row.src_prefix24,
                                      row.src_metro, row.dest_region,
                                      row.dest_service};
    const auto [it, inserted] = index.try_emplace(features, flows.size());
    if (inserted) flows.push_back(Flow{features, 0.0, {}});
    auto& flow = flows[it->second];
    flow.bytes += static_cast<double>(row.bytes);
    flow.links[row.link.value()] += static_cast<double>(row.bytes);
  }
  std::map<std::uint32_t, std::vector<const Flow*>> by_top_link;
  for (const auto& flow : flows) {
    const auto top = std::max_element(
        flow.links.begin(), flow.links.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    by_top_link[top->first].push_back(&flow);
  }
  if (by_top_link.empty()) Die("no flows in the hour after the window");
  std::vector<std::uint32_t> links;
  for (const auto& entry : by_top_link) links.push_back(entry.first);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<net::PredictRequest> requests(kDistinctRequests);
  for (auto& request : requests) {
    const std::uint32_t link = links[rng() % links.size()];
    for (const Flow* flow : by_top_link[link]) {
      request.flows.push_back({flow->features, flow->bytes});
    }
    request.excluded.push_back(util::LinkId{link});
  }
  return requests;
}

core::ExclusionMask MaskOf(const net::PredictRequest& request) {
  core::ExclusionMask mask;
  if (!request.excluded.empty()) {
    mask.resize(request.excluded.back().value() + 1, false);
    for (const auto link : request.excluded) mask[link.value()] = true;
  }
  return mask;
}

bool SamePrediction(const core::TipsyService::ShiftPrediction& a,
                    const core::TipsyService::ShiftPrediction& b) {
  if (a.shifted.size() != b.shifted.size()) return false;
  for (std::size_t i = 0; i < a.shifted.size(); ++i) {
    if (a.shifted[i].first != b.shifted[i].first ||
        std::memcmp(&a.shifted[i].second, &b.shifted[i].second,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return std::memcmp(&a.unpredicted_bytes, &b.unpredicted_bytes,
                     sizeof(double)) == 0;
}

net::ClientConfig ClientFor(std::uint16_t port) {
  net::ClientConfig config;
  config.port = port;
  // Generous: a day-boundary close on the large state may hold an ack for
  // seconds, and a reconnect would distort the very latency measured.
  config.io_deadline_ms = 60000;
  config.connect_timeout_ms = 5000;
  return config;
}

// Counter values from one GET /metrics scrape.
std::map<std::string, double> Scrape(std::uint16_t port) {
  auto socket = net::Connect("127.0.0.1", port, 5000);
  if (!socket.ok()) Die("metrics connect: " + socket.status().ToString());
  (void)socket->SetReadDeadline(5000);
  Check(socket->SendAll("GET /metrics HTTP/1.0\r\n\r\n"), "metrics request");
  std::string text;
  while (true) {
    auto bytes = socket->RecvSome(1 << 16);
    if (!bytes.ok()) break;
    text += *bytes;
  }
  std::map<std::string, double> values;
  std::istringstream lines(text.substr(std::min(text.size(), text.find("\r\n\r\n"))));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '\r') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    try {
      values[line.substr(0, space)] = std::stod(line.substr(space + 1));
    } catch (const std::exception&) {
    }
  }
  return values;
}

// ------------------------------------------------------------ open loop

struct LoopResult {
  std::vector<double> latency_us;  // from each request's due time
  std::vector<double> lag_ms;      // generator lateness past max(due, free)
  std::vector<double> due_s;       // each request's due time, from the start
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  double span_s = 0.0;  // first due time to last completion
  double tail_median_us = 0.0;

  [[nodiscard]] double p50() const { return Percentile(latency_us, 50.0); }
  [[nodiscard]] double p99() const { return Percentile(latency_us, 99.0); }
};

// Open loop over the given connections: request i is due at t0 + i/rate
// and goes to the first connection to be free, so a stall of one thread
// or connection delays the request it holds, not every C-th one after it.
// Runs `seconds` of schedule, or until `stop` when seconds <= 0.
LoopResult OpenLoop(const std::vector<net::PredictClient*>& clients,
                    const std::vector<net::PredictRequest>& requests,
                    double rate, double seconds,
                    const std::atomic<bool>* stop) {
  struct Record {
    std::uint64_t index;
    double latency_us;
    double lag_ms;
    bool ok;
    double done_s;
  };
  const std::size_t c_count = clients.size();
  std::vector<std::vector<Record>> per_client(c_count);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due_of = [&](std::uint64_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  std::atomic<std::uint64_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < c_count; ++c) {
    threads.emplace_back([&, c] {
      auto prev_done = t0;
      while (true) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (seconds > 0.0 && static_cast<double>(i) / rate >= seconds) break;
        if (seconds <= 0.0 && stop->load(std::memory_order_acquire)) break;
        const auto due = due_of(i);
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        const auto& request = requests[i % requests.size()];
        auto response = clients[c]->Predict(request);
        const auto done = Clock::now();
        per_client[c].push_back(Record{
            i, std::chrono::duration<double, std::micro>(done - due).count(),
            std::chrono::duration<double, std::milli>(
                sent - std::max(due, prev_done)).count(),
            response.ok(),
            std::chrono::duration<double>(done - t0).count()});
        prev_done = done;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<Record> all;
  for (const auto& records : per_client) {
    all.insert(all.end(), records.begin(), records.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
  LoopResult result;
  for (const auto& record : all) {
    ++result.sent;
    if (!record.ok) ++result.failed;
    result.latency_us.push_back(record.latency_us);
    result.lag_ms.push_back(record.lag_ms);
    result.due_s.push_back(static_cast<double>(record.index) / rate);
    result.span_s = std::max(result.span_s, record.done_s);
  }
  const std::size_t tail = std::max<std::size_t>(1, all.size() / 10);
  std::vector<double> tail_latency;
  for (std::size_t i = all.size() - std::min(tail, all.size()); i < all.size(); ++i) {
    tail_latency.push_back(all[i].latency_us);
  }
  result.tail_median_us = Median(tail_latency);
  return result;
}

// Two loops' requests as one sample.
LoopResult Concat(LoopResult a, const LoopResult& b) {
  a.latency_us.insert(a.latency_us.end(), b.latency_us.begin(), b.latency_us.end());
  a.lag_ms.insert(a.lag_ms.end(), b.lag_ms.begin(), b.lag_ms.end());
  for (const double due : b.due_s) a.due_s.push_back(a.span_s + due);
  a.sent += b.sent;
  a.failed += b.failed;
  a.span_s += b.span_s;
  a.tail_median_us = b.tail_median_us;
  return a;
}

// The latencies of the requests due in each consecutive window_s of a loop.
std::vector<std::vector<double>> LatencyByWindow(const LoopResult& loop,
                                                 double window_s) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < loop.latency_us.size(); ++i) {
    const auto w = static_cast<std::size_t>(loop.due_s[i] / window_s);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(loop.latency_us[i]);
  }
  return windows;
}

std::string LoopJson(const LoopResult& loop, double rate) {
  JsonObject out;
  out.Num("rate", rate);
  out.Int("sent", static_cast<std::int64_t>(loop.sent));
  out.Int("failed", static_cast<std::int64_t>(loop.failed));
  out.Num("p50_us", loop.p50());
  out.Num("p99_us", loop.p99());
  out.Num("achieved_qps",
          loop.span_s > 0.0 ? static_cast<double>(loop.sent) / loop.span_s : 0.0);
  out.Num("tail_median_us", loop.tail_median_us);
  out.Int("over_1ms", std::count_if(loop.latency_us.begin(), loop.latency_us.end(),
                                    [](double us) { return us > 1000.0; }));
  out.Num("lag_p99_ms", Percentile(loop.lag_ms, 99.0));
  return out.Dump();
}

// ------------------------------------------------- traced ingest mirror

// Replica::IngestBatch, call for call, one record per batch, with each
// layer timed separately: journal append + fsync, the day-boundary retrain
// (the AdvanceTo that DailyRetrainer::Ingest would make first), the hour's
// apply, and the checkpoint (snapshot, then compaction).
struct MirrorTimes {
  std::vector<double> journal_append_ms;
  std::vector<double> hour_apply_ms;
  std::vector<double> retrain_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> compact_ms;
  double snapshot_bytes = 0.0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t rows = 0;
  std::string digest;
};

MirrorTimes TracedIngestMirror(const scenario::Scenario& world,
                               const std::string& dir,
                               const std::vector<HourRows>& hours,
                               Tracer& tracer) {
  MirrorTimes times;
  const auto config = ServingReplicaConfig(dir);
  auto snapshot = ha::LoadSnapshot(config.snapshot_path);
  if (!snapshot.ok()) Die("mirror snapshot: " + snapshot.status().ToString());
  core::DailyRetrainer retrainer(&world.wan(), &world.metros(), kWindowDays,
                                 core::TipsyConfig{}, core::RetrainPolicy{});
  Check(retrainer.RestoreState(snapshot->retrainer), "mirror restore");
  auto journal = ha::Journal::Open(config.journal_path, config.fsync_appends);
  if (!journal.ok()) Die("mirror journal: " + journal.status().ToString());
  if (journal->next_seq() != snapshot->applied_seq) {
    Die("prepared journal is not compacted to its snapshot");
  }
  std::uint64_t applied_seq = snapshot->applied_seq;
  std::uint64_t last_snapshot_seq = applied_seq;
  util::HourIndex last_day = snapshot->retrainer.last_day;
  const std::uint64_t bytes_before = journal->append_bytes();
  const auto ms_since = [](Clock::time_point start) {
    return 1e3 * SecondsSince(start);
  };

  for (const auto& hour : hours) {
    Scoped batch(&tracer, "ha.ingest_batch", hour.hour);
    times.rows += hour.rows.size();
    {
      Scoped span(&tracer, "ha.journal_append", hour.hour);
      const auto start = Clock::now();
      auto seq = journal->AppendBuffered(ha::JournalRecordKind::kIngest,
                                         hour.hour, hour.rows);
      if (!seq.ok()) Die("mirror append: " + seq.status().ToString());
      Check(journal->Sync(), "mirror sync");
      times.journal_append_ms.push_back(ms_since(start));
    }
    const bool crossed_day = util::DayIndex(hour.hour) > last_day;
    if (crossed_day) {
      Scoped span(&tracer, "core.retrain", hour.hour);
      const auto start = Clock::now();
      retrainer.AdvanceTo(hour.hour);
      times.retrain_ms.push_back(ms_since(start));
    }
    {
      Scoped span(&tracer, "core.hour_apply", hour.hour);
      const auto start = Clock::now();
      retrainer.Ingest(hour.hour, hour.rows);
      times.hour_apply_ms.push_back(ms_since(start));
    }
    ++applied_seq;
    last_day = std::max(last_day, util::DayIndex(hour.hour));
    if (crossed_day) {
      {
        Scoped span(&tracer, "ha.snapshot", hour.hour);
        const auto start = Clock::now();
        ha::SnapshotState state;
        state.retrainer = retrainer.ExportState();
        state.applied_seq = applied_seq;
        Check(ha::SaveSnapshot(config.snapshot_path, state), "mirror snapshot");
        times.snapshot_ms.push_back(ms_since(start));
        last_snapshot_seq = applied_seq;
      }
      times.snapshot_bytes = static_cast<double>(FileBytes(config.snapshot_path));
      if (last_snapshot_seq > journal->base_seq()) {
        Scoped span(&tracer, "ha.compact", hour.hour);
        const auto start = Clock::now();
        Check(journal->Compact(last_snapshot_seq), "mirror compact");
        times.compact_ms.push_back(ms_since(start));
      }
    }
  }
  times.journal_bytes = journal->append_bytes() - bytes_before;
  // The mirror's files must open to the same state the daemon reached.
  ha::Replica reopened = OpenReplica(world, config);
  times.digest = Hex(ha::ReplicaStateDigest(reopened));
  return times;
}

}  // namespace

// ------------------------------------------------------------------- load

int LoadMain(const LoadOptions& options) {
  JsonObject out;
  out.Str("phase", "load");
  // Wall time of each step, for sizing runs.
  JsonObject step_s;
  auto step_start = Clock::now();
  const auto step = [&](const std::string& name) {
    step_s.Num(name, SecondsSince(step_start));
    step_start = Clock::now();
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& what) {
    ++failed;
    errors.push_back(what);
  };

  const scenario::Scenario world(ScenarioFor(options.size, options.seed));
  const std::string state = StatePath(options.prepared);
  const std::vector<HourRows> future = ReadRows(FuturePath(options.prepared));
  const std::size_t hours_needed =
      static_cast<std::size_t>(options.backfill_hours + options.mixed_hours);
  if (future.size() < std::max<std::size_t>(hours_needed, 1)) {
    Die("prepared state holds too few future hours");
  }
  const auto requests = BuildRequests(future.front(), options.request_seed);
  {
    std::vector<double> sizes;
    for (const auto& request : requests) {
      sizes.push_back(static_cast<double>(request.flows.size()));
    }
    out.Num("request_flows_p50", Percentile(sizes, 50.0));
    out.Num("request_flows_p99", Percentile(sizes, 99.0));
  }

  // Reference answers from a replica restored in this process.
  const std::string reference_dir = options.work + "/reference";
  FreshReplicaDir(state, reference_dir);
  std::vector<core::TipsyService::ShiftPrediction> expected;
  Tracer tracer;
  JsonObject layers;
  {
    ha::Replica reference = OpenReplica(world, ServingReplicaConfig(reference_dir));
    const core::TipsyService* service = reference.service();
    if (service == nullptr) Die("prepared state serves no model");
    for (std::size_t i = 0; i < kVerifiedRequests; ++i) {
      expected.push_back(
          service->PredictShiftNoMetrics(requests[i].flows, MaskOf(requests[i])));
    }
    AddServedSetMetrics(*service, layers);
    if (options.trace) {
      // The read path's layers, called in the daemon's order on the same
      // requests: envelope + request decode, epoch acquire, PredictShift,
      // response + envelope encode.
      core::ModelEpoch epoch;
      epoch.Publish(reference.retrainer().current_shared());
      std::vector<double> decode_us, predict_us, encode_us;
      const std::uint64_t flows_before = service->predict_flows();
      const std::uint64_t unpredicted_before = service->unpredicted_flows();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        Scoped root(&tracer, "net.predict_request", static_cast<std::int64_t>(i));
        const std::string wire = net::EncodeMessage(
            net::MessageType::kPredictRequest,
            net::EncodePredictRequest(requests[i]));
        auto start = Clock::now();
        util::StatusOr<net::PredictRequest> decoded = util::Status::Ok();
        {
          Scoped span(&tracer, "net.request_decode", static_cast<std::int64_t>(i));
          std::size_t pos = 0;
          auto message = net::DecodeMessage(wire, pos);
          if (!message.ok()) Die("request envelope");
          decoded = net::DecodePredictRequest(message->payload);
          if (!decoded.ok()) Die("request decode");
        }
        decode_us.push_back(1e6 * SecondsSince(start));
        net::PredictResponse response;
        start = Clock::now();
        {
          Scoped span(&tracer, "core.predict_shift", static_cast<std::int64_t>(i));
          const auto pinned = epoch.Acquire();
          response.prediction = pinned->PredictShift(decoded->flows, MaskOf(*decoded));
        }
        predict_us.push_back(1e6 * SecondsSince(start));
        start = Clock::now();
        {
          Scoped span(&tracer, "net.response_encode", static_cast<std::int64_t>(i));
          const std::string reply = net::EncodeMessage(
              net::MessageType::kPredictResponse,
              net::EncodePredictResponse(response));
          if (reply.empty()) Die("response encode");
        }
        encode_us.push_back(1e6 * SecondsSince(start));
      }
      const double flows =
          static_cast<double>(service->predict_flows() - flows_before);
      layers.Num("core.unpredicted_flow_frac",
                 static_cast<double>(service->unpredicted_flows() -
                                     unpredicted_before) / std::max(flows, 1.0));
      double predict_total_us = 0.0;
      for (const double us : predict_us) predict_total_us += us;
      layers.Num("core.predict_ns_per_flow",
                 1e3 * predict_total_us / std::max(flows, 1.0));
      constexpr int kAcquires = 200000;
      const auto start = Clock::now();
      std::size_t live = 0;
      for (int i = 0; i < kAcquires; ++i) live += epoch.Acquire() != nullptr;
      if (live != kAcquires) Die("epoch lost its model");
      layers.Num("core.epoch_acquire_ns", 1e9 * SecondsSince(start) / kAcquires);
      layers.Num("net.request_decode_us", Median(decode_us));
      layers.Num("net.response_encode_us", Median(encode_us));
      out.Num("local_predict_us", Median(predict_us));
    }
  }
  fs::remove_all(reference_dir);
  step("reference");

  // --- Warm restarts: a fresh copy of the prepared state each time.
  std::vector<double> setup_s;
  std::vector<double> daemon_rss_mb;
  std::vector<double> daemon_open_ms;
  const std::string daemon_dir = options.work + "/daemon";
  for (int restart = 0; restart < options.restarts; ++restart) {
    FreshReplicaDir(state, daemon_dir);
    DaemonProcess daemon(options, daemon_dir);
    net::PredictClient first(ClientFor(daemon.predict_port));
    ++attempted;
    auto answer = first.Predict(requests[0]);
    setup_s.push_back(MonoSeconds() - daemon.open_mono);
    daemon_open_ms.push_back(1e3 * (daemon.opened_mono - daemon.open_mono));
    if (!answer.ok()) fail("first predict: " + answer.status().ToString());
    else if (!SamePrediction(answer->prediction, expected[0])) {
      fail("first predict differs from the local reference");
    }
    first.Disconnect();
    if (restart + 1 < options.restarts) {
      const auto exit = daemon.Stop();
      step("restart" + std::to_string(restart));
      daemon_rss_mb.push_back(exit.peak_rss_mb);
      ++attempted;
      if (exit.digest != options.window_digest) {
        fail("restart digest " + exit.digest + " != prepared " +
             options.window_digest);
      }
      continue;
    }

    // --- The measured session on the last restart.
    std::vector<std::unique_ptr<net::PredictClient>> owned;
    std::vector<net::PredictClient*> clients;
    for (int c = 0; c < 2; ++c) {
      owned.push_back(std::make_unique<net::PredictClient>(
          ClientFor(daemon.predict_port)));
      clients.push_back(owned.back().get());
    }
    // Bit-identity sample.
    for (std::size_t i = 0; i < kVerifiedRequests; ++i) {
      ++attempted;
      auto response = clients[0]->Predict(requests[i]);
      if (!response.ok()) fail("sample predict: " + response.status().ToString());
      else if (!SamePrediction(response->prediction, expected[i])) {
        fail("sample predict " + std::to_string(i) + " differs");
      }
    }
    if (options.trace) {
      // One connection, closed loop: the round trip with nothing queued.
      std::vector<double> rtt_us;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        Scoped span(&tracer, "net.predict_rtt", static_cast<std::int64_t>(i));
        const auto start = Clock::now();
        ++attempted;
        if (!clients[0]->Predict(requests[i]).ok()) fail("rtt predict");
        rtt_us.push_back(1e6 * SecondsSince(start));
      }
      layers.Num("net.predict_rtt_us", Median(rtt_us));
    }

    step("restart" + std::to_string(restart));
    std::vector<double> lag_ms;
    std::uint64_t loop_sent = 0;
    std::uint64_t loop_failed = 0;
    const auto account = [&](const LoopResult& loop) {
      attempted += loop.sent;
      failed += loop.failed;
      loop_sent += loop.sent;
      loop_failed += loop.failed;
      lag_ms.insert(lag_ms.end(), loop.lag_ms.begin(), loop.lag_ms.end());
    };

    // --- Idle phase: one connection at a low rate, the way a sporadic
    // caller (the CMS asking about one congestion event) meets the daemon.
    // It runs in four quarters spread over the session (around the read
    // phase, between the ladder's two climbs, after the ingest), and each
    // quarter's p50 is reported, so one slow spell of the host does not
    // decide it.
    std::vector<LoopResult> idle_parts;
    const auto idle_part = [&](const std::string& name) {
      idle_parts.push_back(OpenLoop({clients[0]}, requests, options.idle_rate,
                                    options.idle_seconds / 4.0, nullptr));
      account(idle_parts.back());
      step(name);
    };
    idle_part("idle0");

    // --- Read phase at the fixed rate (after a short unmeasured warm-up
    // at the same rate), then the ladder.
    account(OpenLoop(clients, requests, options.read_rate, 0.25, nullptr));
    // Reported: the try with the lowest p99, as a neighbour only ever adds
    // latency (see kMaxReadStealShare).
    LoopResult read;
    std::string read_tries = "[";
    int quiet_tries = 0;
    double quiet_wait_s = 0.0;
    for (int attempt = 0; attempt < kReadTries && quiet_tries < options.read_tries;
         ++attempt) {
      const CpuTimes before = ReadCpuTimes();
      LoopResult loop = OpenLoop(clients, requests, options.read_rate,
                                 options.read_seconds, nullptr);
      const double steal = StealShare(before, ReadCpuTimes());
      const bool quiet = steal <= kMaxReadStealShare;
      quiet_tries += quiet ? 1 : 0;
      account(loop);
      JsonObject attempt_json;
      attempt_json.Num("steal_share", steal);
      attempt_json.Num("p50_us", loop.p50());
      attempt_json.Num("p99_us", loop.p99());
      read_tries += (attempt > 0 ? "," : "") + attempt_json.Dump();
      if (attempt == 0 || loop.p99() < read.p99()) read = std::move(loop);
      if (!quiet) {
        quiet_wait_s += WaitForQuietHost(
            std::min(kQuietWaitS, kQuietWaitTotalS - quiet_wait_s));
      }
    }
    out.Raw("read", LoopJson(read, options.read_rate));
    out.Raw("read_tries", read_tries + "]");
    out.Num("read_quiet_wait_s", quiet_wait_s);
    step("read");
    idle_part("idle1");
    // --- The ladder, climbed three times: the later climbs start three
    // rungs below the first one's top. Reported: the median of the three
    // climbs' fastest passing rungs, as near the knee a rung passes or
    // misses partly by chance.
    std::string ladder_json = "[";
    std::vector<double> climb_qps;
    const auto climb = [&](std::size_t from) {
      std::size_t top = from;
      double max_qps = 0.0;
      // A rung that misses is run up to twice more before the climb
      // stops, so a stray scheduling stall does not end it.
      bool climbing = true;
      for (std::size_t r = from; climbing && r < options.ladder.size(); ++r) {
        const double rate = options.ladder[r];
        climbing = false;
        for (int attempt = 0; attempt < 3 && !climbing; ++attempt) {
          const LoopResult rung = OpenLoop(clients, requests, rate,
                                           options.rung_seconds, nullptr);
          account(rung);
          if (ladder_json.size() > 1) ladder_json += ",";
          ladder_json += LoopJson(rung, rate);
          climbing = rung.failed == 0 && rung.p99() <= options.limit_us &&
                     rung.tail_median_us <= options.limit_us;
          if (climbing) {
            max_qps = std::max(max_qps, static_cast<double>(rung.sent) / rung.span_s);
            top = r;
          }
        }
      }
      climb_qps.push_back(max_qps);
      return top;
    };
    const std::size_t first_top = climb(0);
    step("ladder0");
    idle_part("idle2");
    for (int again = 0; again < 2; ++again) climb(first_top >= 3 ? first_top - 3 : 0);
    out.Raw("ladder", ladder_json + "]");
    step("ladder1");
    out.NumList("climb_qps", climb_qps);
    out.Num("max_qps", Median(climb_qps));

    // One collector for both ingest phases; hours go out in order.
    tipsy::obs::Registry client_registry;
    net::CollectorClient collector(ClientFor(daemon.ingest_port),
                                   &client_registry, "perfbench_collector");
    std::size_t next_hour = 0;
    // --- Mixed: reads at a fixed rate while the collector sends one hour
    // per interval in lock-step; the first hour of each day is a close.
    if (options.mixed_hours > 0) {
      std::atomic<bool> stop{false};
      std::vector<double> day_close_ms;
      std::vector<double> hour_ms;
      std::thread writer([&] {
        const auto start = Clock::now();
        for (int h = 0; h < options.mixed_hours; ++h) {
          const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double, std::milli>(
                                           h * options.mixed_interval_ms));
          std::this_thread::sleep_until(due);
          const auto& hour = future[next_hour + static_cast<std::size_t>(h)];
          const auto call = Clock::now();
          const auto sent = collector.SendHour(hour.hour, hour.rows);
          const double ms = 1e3 * SecondsSince(call);
          if (!sent.ok()) {
            ++failed;
            errors.push_back("mixed send: " + sent.ToString());
          }
          (hour.hour % util::kHoursPerDay == 0 ? day_close_ms : hour_ms)
              .push_back(ms);
        }
        // Keep reading for one more interval past the last close.
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            options.mixed_interval_ms));
        stop.store(true, std::memory_order_release);
      });
      const LoopResult mixed = OpenLoop(clients, requests, options.read_rate,
                                        0.0, &stop);
      writer.join();
      attempted += static_cast<std::uint64_t>(options.mixed_hours);
      account(mixed);
      JsonObject mixed_json;
      mixed_json.Raw("loop", LoopJson(mixed, options.read_rate));
      // Each whole day of the phase as a sample of its own: it begins with
      // its close, so every day's p99 holds a close's stall.
      std::vector<double> day_p50_us;
      std::vector<double> day_p99_us;
      const auto days = LatencyByWindow(
          mixed, util::kHoursPerDay * options.mixed_interval_ms / 1e3);
      for (std::size_t d = 0;
           d < days.size() && d < static_cast<std::size_t>(options.mixed_hours /
                                                           util::kHoursPerDay);
           ++d) {
        day_p50_us.push_back(Percentile(days[d], 50.0));
        day_p99_us.push_back(Percentile(days[d], 99.0));
      }
      mixed_json.NumList("day_p50_us", day_p50_us);
      mixed_json.NumList("day_p99_us", day_p99_us);
      mixed_json.NumList("day_close_ms", day_close_ms);
      mixed_json.Num("hour_median_ms", Median(hour_ms));
      out.Raw("mixed", mixed_json.Dump());
      next_hour += static_cast<std::size_t>(options.mixed_hours);
      step("mixed");
    }

    // --- Backfill: the collector replays hours as fast as credits allow,
    // in chunks of at most backfill_chunk_hours, each timed from its first
    // SendHourAsync to the return of its Flush.
    if (options.backfill_hours > 0) {
      const auto before = Scrape(daemon.metrics_port);
      std::uint64_t rows = 0;
      double seconds = 0.0;
      double window_wait_ms = 0.0;
      std::vector<double> chunk_rows_per_s;
      for (int done = 0; done < options.backfill_hours;) {
        const int chunk =
            std::min(options.backfill_chunk_hours, options.backfill_hours - done);
        std::uint64_t chunk_rows = 0;
        const auto start = Clock::now();
        for (int h = 0; h < chunk; ++h, ++next_hour) {
          const auto& hour = future[next_hour];
          chunk_rows += hour.rows.size();
          const bool window_full =
              collector.inflight_records() >= collector.last_credits();
          const auto call = Clock::now();
          ++attempted;
          if (const auto sent = collector.SendHourAsync(hour.hour, hour.rows);
              !sent.ok()) {
            fail("backfill send: " + sent.ToString());
          }
          if (window_full) window_wait_ms += 1e3 * SecondsSince(call);
        }
        if (const auto flushed = collector.Flush(); !flushed.ok()) {
          fail("backfill flush: " + flushed.ToString());
        }
        const double chunk_s = SecondsSince(start);
        chunk_rows_per_s.push_back(static_cast<double>(chunk_rows) / chunk_s);
        rows += chunk_rows;
        seconds += chunk_s;
        done += chunk;
      }
      const auto after = Scrape(daemon.metrics_port);
      const auto delta = [&](const std::string& name) {
        const auto a = after.find(name);
        const auto b = before.find(name);
        return (a == after.end() ? 0.0 : a->second) -
               (b == before.end() ? 0.0 : b->second);
      };
      JsonObject backfill;
      backfill.Int("hours", options.backfill_hours);
      backfill.Int("rows", static_cast<std::int64_t>(rows));
      backfill.Num("seconds", seconds);
      backfill.NumList("chunk_rows_per_s", chunk_rows_per_s);
      // The fastest chunk: a neighbour's load or a slow fsync only ever
      // takes throughput away.
      backfill.Num("rows_per_s", *std::max_element(chunk_rows_per_s.begin(),
                                                   chunk_rows_per_s.end()));
      const double batches = delta("tipsyd_net_ingest_batches_total");
      backfill.Num("records_per_fsync",
                   batches > 0.0
                       ? delta("tipsyd_net_ingest_batched_records_total") / batches
                       : 0.0);
      backfill.Num("window_wait_ms", window_wait_ms);
      out.Raw("backfill", backfill.Dump());
      step("backfill");
    }
    idle_part("idle3");
    LoopResult idle = idle_parts.front();
    std::vector<double> idle_parts_p50_us;
    for (std::size_t i = 0; i < idle_parts.size(); ++i) {
      if (i > 0) idle = Concat(std::move(idle), idle_parts[i]);
      idle_parts_p50_us.push_back(idle_parts[i].p50());
    }
    out.Raw("idle", LoopJson(idle, options.idle_rate));
    out.NumList("idle_parts_p50_us", idle_parts_p50_us);

    for (auto* client : clients) client->Disconnect();
    collector.Disconnect();
    const auto exit = daemon.Stop();
    daemon_rss_mb.push_back(exit.peak_rss_mb);
    ++attempted;
    const std::string& want =
        next_hour == 0 ? options.window_digest : options.final_digest;
    if (exit.digest != want) {
      fail("final digest " + exit.digest + " != control " + want);
    }
    out.Str("final_digest", exit.digest);
    step("stop");

    const double lag_p99 = Percentile(lag_ms, 99.0);
    layers.Num("loadgen.late_ms", lag_p99);
    layers.Num("loadgen.sent", static_cast<double>(loop_sent));
    layers.Num("loadgen.failed", static_cast<double>(loop_failed));
    out.Bool("generator_on_schedule", lag_p99 <= kMaxGeneratorLagMs);
  }
  fs::remove_all(daemon_dir);

  out.NumList("setup_s", setup_s);
  out.NumList("daemon_rss_mb", daemon_rss_mb);
  out.NumList("daemon_open_ms", daemon_open_ms);
  layers.Num("ha.restore_ms", Median(daemon_open_ms));

  if (options.trace && hours_needed > 0) {
    const std::string mirror_dir = options.work + "/mirror";
    FreshReplicaDir(state, mirror_dir);
    const std::vector<HourRows> hours(future.begin(),
                                      future.begin() + static_cast<long>(hours_needed));
    const MirrorTimes mirror = TracedIngestMirror(world, mirror_dir, hours, tracer);
    fs::remove_all(mirror_dir);
    ++attempted;
    if (mirror.digest != options.final_digest) {
      fail("traced mirror digest " + mirror.digest + " != control " +
           options.final_digest);
    }
    layers.Num("ha.journal_append_ms", Median(mirror.journal_append_ms));
    layers.Num("ha.journal_bytes_per_row",
               static_cast<double>(mirror.journal_bytes) /
                   static_cast<double>(std::max<std::uint64_t>(mirror.rows, 1)));
    layers.Num("core.hour_apply_ms", Median(mirror.hour_apply_ms));
    layers.Num("core.retrain_ms", Median(mirror.retrain_ms));
    layers.Num("ha.snapshot_ms", Median(mirror.snapshot_ms));
    layers.Num("ha.snapshot_bytes", mirror.snapshot_bytes);
    layers.Num("ha.compact_ms", Median(mirror.compact_ms));
  }
  if (options.trace) {
    JsonObject self_table;
    for (const auto& [name, t] : tracer.Summarize()) self_table.Num(name, t.self);
    out.Raw("self_s", self_table.Dump());
    if (!options.trace_path.empty() && !tracer.WriteJson(options.trace_path)) {
      Die("cannot write " + options.trace_path);
    }
  }
  out.Raw("layers", layers.Dump());
  out.Raw("step_s", step_s.Dump());
  out.Int("attempted", static_cast<std::int64_t>(attempted));
  out.Int("failed", static_cast<std::int64_t>(failed));
  std::string error_list = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) error_list += ',';
    error_list += JsonString(errors[i]);
  }
  out.Raw("errors", error_list + "]");
  std::cout << out.Dump() << std::endl;
  return 0;
}

}  // namespace perfbench

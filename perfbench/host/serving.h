#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// Builds a serving workload's warm state: the scenario's first 14 days
// ingested into an ha::Replica (journal + snapshot, compacted), the rows of
// the hours that follow (for the load generator), and the in-process
// control's ReplicaStateDigest after each requested number of those hours.
struct PrepareOptions {
  Size size = Size::kDaemon6k;
  std::uint64_t seed = 20211110;
  std::string dir;
  int future_hours = 1;
  std::vector<int> digest_at;  // hour counts to record control digests for
};
int PrepareMain(const PrepareOptions& options);

// The daemon host: Replica::Open on a state directory, net::Daemon around
// it, "READY ..." on stdout, then serve until stdin says stop.
struct DaemonOptions {
  Size size = Size::kDaemon6k;
  std::uint64_t seed = 20211110;
  std::string dir;
};
int DaemonMain(const DaemonOptions& options);

// The load generator: restarts daemons on fresh copies of the prepared
// state and drives the read, backfill and mixed phases against them.
struct LoadOptions {
  Size size = Size::kDaemon6k;
  std::uint64_t seed = 20211110;          // the served world's
  std::uint64_t request_seed = 20211110;  // draws the predict requests
  std::string prepared;  // PrepareMain's --dir (read only)
  std::string work;   // scratch directory for the daemons' copies
  int restarts = 3;
  // The idle phase: one connection at a low rate, so every request finds
  // the daemon idle and pays the wake-ups a sporadic caller pays.
  double idle_rate = 100.0;
  double idle_seconds = 2.0;
  double read_rate = 4000.0;  // offered rate of the read and mixed phases
  double read_seconds = 2.0;
  // Quiet read tries to make (see kMaxReadStealShare); the try with the
  // lowest p99 is reported.
  int read_tries = 1;
  std::vector<double> ladder;  // offered rates, ascending
  double rung_seconds = 0.5;
  double limit_us = 10000.0;   // p99 limit of a passing rung
  int backfill_hours = 24;
  int backfill_chunk_hours = 24;  // rows/s is the fastest chunk's
  int mixed_hours = 1;
  double mixed_interval_ms = 100.0;  // reads run at read_rate meanwhile
  std::string window_digest;  // expected digest of the prepared state
  std::string final_digest;   // expected after backfill + mixed hours
  bool trace = false;
  std::string trace_path;
};
int LoadMain(const LoadOptions& options);

}  // namespace perfbench

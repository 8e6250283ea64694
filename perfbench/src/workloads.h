#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

// The figures and check outcomes of one run; printed as its last line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // failed checks, printed to stderr

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a check outcome; an empty message means the check passed.
  void check(const std::string& what, const std::string& error);
};

std::string result_json(const RunResult& r);

// Options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // scratch + trace output, inside the checkout
};

// Thread budget: the machine the figures are taken on has 4 cores, and no
// workload runs more threads at once than that. Campaign workers run while
// the main thread waits on them; the ingest service runs kIngestShards
// workers beside the main thread, which is the one producer.
inline constexpr int kCampaignThreads = 4;
inline constexpr int kIngestShards = 3;
// Set-up is repeated at least kSetupRepeats times, and until
// kSetupMinSeconds have passed, and its median reported. The time floor
// keeps a set-up of a few tens of milliseconds from resting on five
// samples.
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupMinSeconds = 2.0;
// The generated world is the same for every seed (May 2015, the paper's
// measurement window, as in the paper-artifact benches); --seed drives the
// campaign: who tests when, against which server, and every measurement
// draw. A world drawn per seed would change the amount of work per run by
// several percent and drown the changes the benchmark is meant to see.
inline constexpr std::uint64_t kWorldSeed = 20150501;

// Each workload fills `out` with its figures: the end-to-end metrics in an
// untraced run, the per-layer metrics in a traced one.
void run_batch_week(const RunOptions& opt, RunResult& out);
void run_ingest_replay(const RunOptions& opt, RunResult& out);
void run_pathmodel_cc(const RunOptions& opt, RunResult& out);

// Runs `round` until `opt.seconds` have passed, and at least once. A traced
// run alternates untraced and traced rounds (at least one of each), so that
// the tracing overhead is measured inside the run; spans and per-layer
// samples come from the traced rounds only. Round wall times go to the
// ledger as "round" in an untraced run, and as "round.untraced" and
// "round.traced" in a traced one.
void run_rounds(const RunOptions& opt, Ledger& ledger,
                const std::function<void()>& round);

// Median set-up time over repeated calls of `setup` (see kSetupRepeats).
double timed_setup(Ledger& ledger, const std::function<void()>& setup);

// A check fed a deliberately wrong input must reject it; records a failure
// in `out` if it does not.
void mutation_must_fail(RunResult& out, const std::string& what,
                        const std::string& error);

// Traced-run epilogue shared by every workload: per-layer self times, the
// traced wall time they add up to, the tracing overhead, and the span file.
void report_trace(const RunOptions& opt, const Ledger& ledger,
                  RunResult& out);

// Median of a stage's samples, 0 when the stage never ran.
double stage(const Ledger& ledger, const std::string& name);

}  // namespace perfbench

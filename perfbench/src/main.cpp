// netcong_ledger: one workload of the pipeline ledger per process.
//
//   netcong_ledger --workload <batch_week|ingest_replay|pathmodel_cc>
//                  --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints human-readable progress, then as its last line one JSON object
// with the figures it measured (perfbench/run.py completes it against
// BENCHMARK.json). Exits 1 if a correctness check failed, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "workloads.h"

namespace perfbench {

void RunResult::check(const std::string& what, const std::string& error) {
  if (error.empty()) return;
  correct = false;
  errors.push_back(what + ": " + error);
}

std::string result_json(const RunResult& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char buf[64];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double stage(const Ledger& ledger, const std::string& name) {
  return median(ledger.samples(name));
}

namespace {

void print_samples(const Ledger& ledger, const char* name) {
  const auto& v = ledger.samples(name);
  if (v.empty()) return;
  std::printf("%s: %zu samples, median %.4f s, min %.4f s, max %.4f s\n",
              name, v.size(), median(v), quantile(v, 0.0), quantile(v, 1.0));
}

}  // namespace

void run_rounds(const RunOptions& opt, Ledger& ledger,
                const std::function<void()>& round) {
  const double start = now_s();
  int done = 0;
  for (;;) {
    const bool traced_round = opt.trace && done % 2 == 1;
    ledger.set_recording(traced_round || !opt.trace);
    int token = ledger.open("bench.round");
    double t0 = now_s();
    round();
    double dt = now_s() - t0;
    ledger.close(token);
    ledger.set_recording(true);
    ledger.add(!opt.trace ? "round" : traced_round ? "round.traced"
                                                   : "round.untraced",
               dt);
    ++done;
    bool enough = now_s() - start >= opt.seconds;
    if (enough && (!opt.trace || done >= 2)) break;
  }
  ledger.set_recording(true);
  for (const char* name : {"round", "round.untraced", "round.traced"}) {
    print_samples(ledger, name);
  }
}

double timed_setup(Ledger& ledger, const std::function<void()>& setup) {
  const double start = now_s();
  for (int i = 0; i < kSetupRepeats || now_s() - start < kSetupMinSeconds;
       ++i) {
    int token = ledger.open("bench.setup");
    double t0 = now_s();
    setup();
    ledger.add("setup", now_s() - t0);
    ledger.close(token);
  }
  print_samples(ledger, "setup");
  return median(ledger.samples("setup"));
}

void mutation_must_fail(RunResult& out, const std::string& what,
                        const std::string& error) {
  if (!error.empty()) return;
  out.correct = false;
  out.errors.push_back("self-test: " + what +
                       " accepted a deliberately wrong input");
}

void report_trace(const RunOptions& opt, const Ledger& ledger,
                  RunResult& out) {
  double wall = 0.0;
  std::map<std::string, double> self = ledger.self_seconds(&wall);
  std::printf("traced wall %.3f s, self time by layer:\n", wall);
  double sum = 0.0;
  for (const auto& [layer, s] : self) {
    sum += s;
    std::printf("  %-8s %9.3f s  %5.1f%%\n", layer.c_str(), s,
                wall > 0 ? 100.0 * s / wall : 0.0);
  }
  std::printf("  self times cover %.3f of %.3f s\n", sum, wall);
  for (const char* layer :
       {"gen", "route", "measure", "infer", "core", "serve", "bench"}) {
    out.metric(std::string(layer) + ".self_s",
               self.count(layer) ? self.at(layer) : 0.0, "s");
  }
  out.metric("obs.traced_wall_s", wall, "s");
  double ratio = median(ledger.samples("round.traced")) /
                 median(ledger.samples("round.untraced"));
  std::printf("tracing overhead: traced round / untraced round = %.4f\n",
              ratio);
  out.metric("obs.trace_overhead_ratio", ratio, "ratio");

  std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                     std::to_string(opt.seed) + ".json";
  if (ledger.write_trace(path)) {
    std::printf("spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "netcong_ledger: %s\nusage: netcong_ledger --workload "
               "<batch_week|ingest_replay|pathmodel_cc> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opt.seconds <= 0) {
        usage("--seconds takes a number > 0");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.out_dir.empty()) usage("--out-dir is required");
  std::filesystem::create_directories(opt.out_dir);

  perfbench::RunResult result;
  if (opt.workload == "batch_week") {
    perfbench::run_batch_week(opt, result);
  } else if (opt.workload == "ingest_replay") {
    perfbench::run_ingest_replay(opt, result);
  } else if (opt.workload == "pathmodel_cc") {
    perfbench::run_pathmodel_cc(opt, result);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", perfbench::result_json(result).c_str());
  return result.correct ? 0 : 1;
}

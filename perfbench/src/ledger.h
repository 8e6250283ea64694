#pragma once

// The ledger: the benchmark's own timing, span and memory bookkeeping. Every
// call into a netcong module goes through Ledger::time(), which
//   - always adds the call's wall time to a per-stage sample list (the
//     end-to-end figures are computed from these in untraced runs), and
//   - in a traced run also records a span (name, start, end, parent) and the
//     change in current RSS around the call.
// Spans are kept in memory and written out once, when the run ends.

#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

double now_s();

// Current resident set size of this process, from /proc/self/statm.
double current_rss_mb();
// Peak resident set size of this process (VmHWM in /proc/self/status).
double peak_rss_mb();

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index of the enclosing span; -1 = root
};

class Ledger {
 public:
  // `traced` switches on spans, RSS deltas and the program's own obs spans.
  explicit Ledger(bool traced);

  bool traced() const { return traced_; }

  // Runs fn() as stage `name` ("<layer>.<stage>"), recording its wall time
  // in seconds under samples(name). Returns fn's result.
  template <typename Fn>
  auto time(const char* name, Fn&& fn) {
    Scope scope(*this, name);
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
    } else {
      return fn();
    }
  }

  // Opens/closes a span by hand, for sections whose extent is not one call.
  int open(const char* name);
  void close(int token);

  // Adds a sample. A traced run keeps samples only while recording, i.e.
  // from its traced rounds and set-up.
  void add(const std::string& name, double value) {
    if (!traced_ || recording_) samples_[name].push_back(value);
  }
  const std::vector<double>& samples(const std::string& name) const;
  // Largest growth of current RSS (MiB) seen around one call of a stage,
  // in a traced run.
  double rss_growth_mb(const std::string& name) const;

  // Span recording can be paused for untraced rounds inside a traced run.
  void set_recording(bool on);
  bool recording() const { return traced_ && recording_; }

  // Self time per layer over every recorded span — the benchmark's own and
  // the program's obs spans (campaign.*, mapit.*, bdrmap.*), nested by
  // interval. Layer of a span = its name up to the first '.', with the
  // program's spans mapped to the module that owns them. The values sum
  // to the total duration of the root spans.
  std::map<std::string, double> self_seconds(double* root_total_s) const;

  // Writes every span, benchmark and program, as Chrome trace JSON.
  bool write_trace(const std::string& path) const;

 private:
  class Scope {
   public:
    Scope(Ledger& l, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    const char* name_;
    double t0_ = 0.0;
    double rss0_ = 0.0;
    int token_ = -1;
  };

  std::vector<SpanRecord> all_spans() const;

  bool traced_;
  bool recording_ = true;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> rss_growth_;
};

}  // namespace perfbench

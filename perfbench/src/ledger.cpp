#include "ledger.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/trace.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double current_rss_mb() {
  long pages_total = 0, pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

Ledger::Ledger(bool traced) : traced_(traced) {
  netcong::obs::TraceRecorder::global().clear();
  netcong::obs::TraceRecorder::global().set_enabled(traced);
}

void Ledger::set_recording(bool on) {
  recording_ = on;
  netcong::obs::TraceRecorder::global().set_enabled(traced_ && on);
}

int Ledger::open(const char* name) {
  if (!recording()) return -1;
  SpanRecord s;
  s.name = name;
  s.start_us = netcong::obs::TraceRecorder::global().now_us();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  int token = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(token);
  return token;
}

void Ledger::close(int token) {
  if (token < 0) return;
  spans_[static_cast<std::size_t>(token)].end_us =
      netcong::obs::TraceRecorder::global().now_us();
  if (!stack_.empty() && stack_.back() == token) stack_.pop_back();
}

Ledger::Scope::Scope(Ledger& l, const char* name) : ledger_(l), name_(name) {
  if (ledger_.recording()) rss0_ = current_rss_mb();
  token_ = ledger_.open(name);
  t0_ = now_s();
}

Ledger::Scope::~Scope() {
  double dt = now_s() - t0_;
  ledger_.close(token_);
  ledger_.add(name_, dt);
  if (token_ >= 0) {
    double growth = current_rss_mb() - rss0_;
    double& worst = ledger_.rss_growth_[name_];
    if (growth > worst) worst = growth;
  }
}

const std::vector<double>& Ledger::samples(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

double Ledger::rss_growth_mb(const std::string& name) const {
  auto it = rss_growth_.find(name);
  return it == rss_growth_.end() ? 0.0 : it->second;
}

namespace {

// The program's own spans are named after the pass, not the module.
std::string layer_of(const std::string& name) {
  std::string head = name.substr(0, name.find('.'));
  if (head == "campaign") return "measure";
  if (head == "mapit" || head == "bdrmap") return "infer";
  return head;
}

}  // namespace

std::vector<SpanRecord> Ledger::all_spans() const {
  std::vector<SpanRecord> out = spans_;
  for (const auto& ev : netcong::obs::TraceRecorder::global().collect()) {
    SpanRecord s;
    s.name = ev.name;
    s.start_us = ev.ts_us;
    s.end_us = ev.ts_us + ev.dur_us;
    out.push_back(std::move(s));
  }
  return out;
}

std::map<std::string, double> Ledger::self_seconds(
    double* root_total_s) const {
  std::vector<SpanRecord> spans = all_spans();
  // Nest by interval: sort by start, longest first, so a span's enclosing
  // spans precede it. Benchmark spans come first on exact ties.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (spans[a].start_us != spans[b].start_us) {
                       return spans[a].start_us < spans[b].start_us;
                     }
                     return spans[a].end_us > spans[b].end_us;
                   });
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_us - spans[i].start_us;
  }
  std::vector<std::size_t> stack;
  double root_total_us = 0.0;
  for (std::size_t idx : order) {
    while (!stack.empty() &&
           spans[stack.back()].end_us <= spans[idx].start_us) {
      stack.pop_back();
    }
    double dur = spans[idx].end_us - spans[idx].start_us;
    if (stack.empty()) {
      root_total_us += dur;
    } else {
      self[stack.back()] -= dur;
    }
    stack.push_back(idx);
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[layer_of(spans[i].name)] += self[i] / 1e6;
  }
  if (root_total_s != nullptr) *root_total_s = root_total_us / 1e6;
  return by_layer;
}

bool Ledger::write_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<SpanRecord> spans = all_spans();
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::string parent =
        s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name : "";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
                  "{\"parent\": \"%s\", \"source\": \"%s\"}}%s\n",
                  s.name.c_str(), s.start_us, s.end_us - s.start_us,
                  parent.c_str(), i < spans_.size() ? "bench" : "program",
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

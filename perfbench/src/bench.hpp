// Shared pieces of the repository benchmark: options, the result report,
// the statistics digest, and the in-memory span tracer that times calls
// into the library's public functions from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/reachability.hpp"
#include "core/runner.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// `tiny` shrinks every workload to a few seconds for the smoke test;
/// digests are recorded for `full` only.
enum class Size { full, tiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::full;
  std::string trace_out;        ///< span dump path (traced runs)
  std::string expect_digest;    ///< recorded digest to compare, or empty
};

/// FNV-1a over a canonical serialization of simulated statistics. Doubles
/// enter by bit pattern, so the digest pins results bit for bit.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  void add(const deft::SimResults& r);
  void add(const deft::ReachabilitySweepPoint& p);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// What one invocation reports: operation counts, correctness failures
/// and the named metrics (value plus unit).
class Report {
 public:
  /// Records one operation (a run, a request, a reachability point, or a
  /// whole-workload check) and whether it passed.
  void op(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int logged_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);
/// Peak resident set of this process in MB.
double peak_rss_mb();
/// Returns freed heap memory to the system, so the next set-up repetition
/// builds in fresh pages as a first build in a new process does, instead
/// of reusing the previous repetition's (whose cache placement would then
/// bias every repetition of the run alike).
void release_free_memory();

/// Repeats `rep` for about `seconds`, at least once: a repetition starts
/// only if it is expected to end less than half a repetition past the
/// deadline.
template <typename F>
void repeat_for(double seconds, F&& rep) {
  const auto t0 = Clock::now();
  double last = 0.0;
  do {
    const auto t = Clock::now();
    rep();
    last = seconds_since(t);
  } while (seconds_since(t0) + 0.5 * last < seconds);
}

/// Alternates `setup_reps` set-ups with the timed repetitions: after each
/// set-up, `rep` repeats for its share of `seconds` (at least once), so the
/// set-up and timed medians both sample the whole run, not one stretch of
/// it. `release` drops the previous set-up's state first. Returns the
/// set-up times.
template <typename R, typename S, typename T>
std::vector<double> interleaved(int setup_reps, double seconds, R&& release,
                                S&& setup, T&& rep) {
  std::vector<double> setups;
  for (int r = 0; r < setup_reps; ++r) {
    release();
    release_free_memory();
    const auto t0 = Clock::now();
    setup();
    setups.push_back(seconds_since(t0));
    repeat_for(seconds / setup_reps, rep);
  }
  return setups;
}

// ------------------------------------------------------------------ trace

/// One timed call: layer ("sim", "core.runner", ...), call name, host
/// interval, causing span (-1 = root) and operation id (-1 = none).
struct SpanRecord {
  const char* layer;
  const char* call;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
  std::int64_t op;
};

/// Thread-safe in-memory span store. Spans are kept until write() dumps
/// them at exit; nothing is recorded when the tracer is disabled.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; `parent` defaults to the innermost open span of the
  /// calling thread. Returns -1 when disabled.
  int begin(const char* layer, const char* call, std::int64_t op = -1,
            int parent = kCurrent);
  void end(int id);
  /// Records a closed span whose interval is already known.
  int add(const char* layer, const char* call, std::int64_t start_ns,
          std::int64_t end_ns, int parent, std::int64_t op = -1);
  static std::int64_t now_ns();

  /// Adds `v` to a named work counter (patterns, cycles, flit hops...).
  void count(const std::string& name, double v);
  double counter(const std::string& name) const;

  std::vector<SpanRecord> spans() const;
  /// Durations (seconds) of every span with this layer and call.
  std::vector<double> durations(const std::string& layer,
                                const std::string& call) const;
  /// Self time per layer: each span's duration minus the part of its
  /// interval covered by its children.
  std::map<std::string, double> self_seconds() const;
  /// Writes one JSON object per span.
  void write(const std::string& path) const;

  static constexpr int kCurrent = -2;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span; a no-op when the tracer is null or disabled.
class Span {
 public:
  Span(Tracer* tracer, const char* layer, const char* call,
       std::int64_t op = -1, int parent = Tracer::kCurrent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// The per-layer metrics every traced run reports, derived from the
/// spans (0 for a layer the workload does not exercise). `workers` is the
/// pool width the core.runner spans ran on.
void report_layer_metrics(const Tracer& tracer, int workers, Report& report);

/// A reference-system context with its design-time artifacts built (VL
/// tables, MTR plan), one span per step.
std::unique_ptr<deft::ExperimentContext> reference_context(
    int chiplets, std::uint64_t seed, Tracer* tracer);

/// Runs `sim` to completion through a SimStepper in `ws` with one span
/// per phase (start, warmup, measure, drain, finish), and counts its
/// cycles, flit hops and delivered packets. Bit-identical to
/// Simulator::run(ws), as SimStepper guarantees.
const deft::SimResults& stepped_run(deft::Simulator& sim,
                                    deft::SimWorkspace& ws,
                                    const deft::SimKnobs& knobs,
                                    Tracer* tracer, std::int64_t op);

/// The per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

// -------------------------------------------------------------- workloads

void run_fig7_reach(const Options& opt, Report& report, Tracer& tracer);
void run_fig4_sweep(const Options& opt, Report& report, Tracer& tracer);
void run_campaign_short(const Options& opt, Report& report, Tracer& tracer);

/// Checks the digest against the recorded one (when given) and prints it.
void check_digest(const Options& opt, const Digest& digest, Report& report);

/// Seed-independent invariants of one simulation run: measured packets
/// are conserved, and a drained run accounts for every one of them.
bool conserved(const deft::SimResults& r);

}  // namespace perfbench

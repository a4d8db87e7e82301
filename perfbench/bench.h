// Shared pieces of the repository benchmark: the span recorder, sample
// statistics, the correctness tally, per-operation work counters and the
// workload interface every workload implements.
//
// The benchmark measures each layer from outside: it times its own calls
// into the layer's public functions and reads the work counters those calls
// already return. Nothing here reaches into src/.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hv/cert/json.h"
#include "hv/checker/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline Clock::duration from_seconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// --- tracing ----------------------------------------------------------------

/// One completed span: a call into a layer, or a stretch of time a layer
/// reported for itself (`reported`), placed inside the span that made the
/// call.
struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0: a root span
  std::int64_t op = 0;      // the operation (pipeline iteration, job) it serves
  int thread = 0;
  std::string name;
  std::string layer;
  Clock::time_point start;
  Clock::time_point end;
  bool reported = false;
};

/// Counter sample (Chrome "C" event): work counts a layer returned, for the
/// layers whose time is not separable from outside.
struct CounterRecord {
  std::string name;
  int thread = 0;
  Clock::time_point at;
  std::vector<std::pair<std::string, double>> values;
};

/// In-memory span store, written out once as Chrome trace-event JSON. Off,
/// it records nothing; spans still time themselves, so the untraced and
/// traced runs execute the same code apart from the recording.
class Tracer {
 public:
  Tracer();

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  std::int64_t next_id() { return next_id_.fetch_add(1); }
  void record(SpanRecord span);
  void record_counter(CounterRecord counter);

  /// Seconds a layer spent outside the child spans it called, summed over
  /// every recorded span of that layer.
  std::map<std::string, double> self_seconds_by_layer() const;
  std::size_t span_count() const;
  /// Seconds spent inside record() and record_counter() so far: the cost of
  /// keeping the trace, as opposed to the difference of a traced and an
  /// untraced pass, which the host's speed changes swamp.
  double record_seconds() const;
  /// Layers that have at least one recorded span or counter event.
  std::vector<std::string> layers_seen() const;

  /// Writes every span and counter as a Chrome trace-event JSON array
  /// object (opens in Perfetto or chrome://tracing).
  void write_chrome_trace(const std::string& path) const;

  static Tracer& global();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{1};
  std::atomic<std::int64_t> record_ns_{0};
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
};

/// Small stable id of the calling thread, for trace rows.
int thread_index();

/// RAII span around one call into a layer. Nested spans on the same thread
/// take the innermost open span as parent.
class Span {
 public:
  Span(std::string name, std::string layer, std::int64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double seconds() const;
  std::int64_t id() const { return id_; }
  Clock::time_point start() const { return start_; }

 private:
  std::string name_;
  std::string layer_;
  std::int64_t op_;
  std::int64_t id_;
  std::int64_t parent_;
  Clock::time_point start_;
};

/// Records a stretch of time a layer reported about itself (a property's
/// PropertyResult::seconds, a daemon job's elapsed time) as a span placed
/// at [start, start + seconds) under `parent`. Returns its id (0 when the
/// tracer is off).
std::int64_t record_reported(const std::string& name, const std::string& layer, std::int64_t op,
                     std::int64_t parent, Clock::time_point start, double seconds);

/// Records one property's simplex counters as an "smt" counter event.
void record_smt(Clock::time_point at, double pivots, double fast_ops, double big_ops);

// --- statistics -------------------------------------------------------------

class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  void clear() { values_.clear(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

// --- correctness -------------------------------------------------------------

/// Operations attempted and failed. An operation fails if any of its gates
/// fails; the first few reasons are kept for the report.
class Tally {
 public:
  /// Counts one operation; `errors` empty means it passed.
  void record(const std::vector<std::string>& errors);
  std::int64_t attempted() const;
  std::int64_t failed() const;
  std::vector<std::string> reasons() const;

 private:
  mutable std::mutex mutex_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

// --- work counters ------------------------------------------------------------

/// Checker and simplex work of one operation, summed over its properties.
/// Every field but `seconds` is a deterministic count for a sequential run.
struct Work {
  std::int64_t properties = 0;
  std::int64_t solved = 0;
  std::int64_t pruned = 0;
  std::int64_t cut = 0;
  std::int64_t lemma_hits = 0;
  std::int64_t lemmas_learned = 0;
  std::int64_t retries = 0;
  std::int64_t unknown = 0;
  std::int64_t pivots = 0;
  std::int64_t fast_ops = 0;
  std::int64_t big_ops = 0;
  std::int64_t segments_reused = 0;
  std::int64_t segments_pushed = 0;
  double length_sum = 0.0;  // avg_schema_length weighted by schemas solved
  double seconds = 0.0;

  void add(const hv::checker::PropertyResult& result);
  /// One property object of a `hvc check --json` / daemon response.
  void add_json(const hv::cert::Json& property);
  /// Equal counts (times excluded).
  bool same_counts(const Work& other) const;
  std::string counts_text() const;
};

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one measuring pass reports, by metric name.
using MetricMap = std::map<std::string, Metric>;

inline void put(MetricMap& metrics, const std::string& name, double value,
                const std::string& unit) {
  metrics[name] = Metric{name, value, unit};
}

/// The checker.* and smt.* counter metrics of one operation's work.
void put_work(MetricMap& metrics, const Work& work);

/// A line of the human-readable report: a metric named as users know it,
/// with its sample count.
struct Line {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

// --- workloads ----------------------------------------------------------------

struct Settings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory inside the checkout (daemon state, sockets).
  std::string work_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One complete set-up; replaces the state of any earlier one.
  virtual void set_up() = 0;
  /// Untimed operations after the last set-up (fills caches, checks the
  /// path works before anything is timed).
  virtual void warm_up(Tally& tally) = 0;
  /// Runs operations for `seconds` (at least one) into a fresh pass.
  virtual void measure(double seconds, Tally& tally) = 0;
  /// The last pass's verdict time (fastest sequential operation, or the
  /// median job latency under load), and what users call it here.
  virtual double verdict_seconds() const = 0;
  virtual std::string verdict_name() const = 0;
  /// End-to-end metrics of the last pass, except setup_s and peak_rss_mb.
  virtual void end_to_end(MetricMap& metrics, std::vector<Line>& lines) const = 0;
  /// Per-layer metrics of the last pass (only the layers it touched).
  virtual void per_layer(MetricMap& metrics) const = 0;
  virtual void tear_down() {}

  /// set_up(), timed into setup_seconds.
  void timed_set_up() {
    const Clock::time_point start = Clock::now();
    set_up();
    setup_seconds.add(std::chrono::duration<double>(Clock::now() - start).count());
  }

  /// Every set-up's time (setup_s), and the ta and spec parts of each
  /// (ta.parse_s, spec.compile_s).
  Samples setup_seconds;
  Samples parse_seconds;
  Samples compile_seconds;
};

std::unique_ptr<Workload> make_redbelly(const Settings& settings);
std::unique_ptr<Workload> make_certify_audit(const Settings& settings);
std::unique_ptr<Workload> make_naive(const Settings& settings);
std::unique_ptr<Workload> make_service(const Settings& settings);

/// Reads a file of the checkout (model sources); throws hv::Error if absent.
std::string read_file(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H

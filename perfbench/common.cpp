#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "hv/util/error.h"

namespace perfbench {

// --- tracing ----------------------------------------------------------------

namespace {

thread_local std::vector<std::int64_t> open_spans;

double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(SpanRecord span) {
  const Clock::time_point start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  record_ns_.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

void Tracer::record_counter(CounterRecord counter) {
  const Clock::time_point start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.push_back(std::move(counter));
  }
  record_ns_.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

double Tracer::record_seconds() const { return static_cast<double>(record_ns_.load()) * 1e-9; }

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::int64_t, double> child_seconds;
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) child_seconds[span.parent] += micros(span.start, span.end) * 1e-6;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    const auto children = child_seconds.find(span.id);
    const double covered = children == child_seconds.end() ? 0.0 : children->second;
    self[span.layer] += std::max(0.0, micros(span.start, span.end) * 1e-6 - covered);
  }
  return self;
}

std::vector<std::string> Tracer::layers_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<std::string> layers;
  for (const SpanRecord& span : spans_) layers.insert(span.layer);
  for (const CounterRecord& counter : counters_) layers.insert(counter.name);
  return {layers.begin(), layers.end()};
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw hv::Error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto separator = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  char number[64];
  for (const SpanRecord& span : spans_) {
    separator();
    std::snprintf(number, sizeof number, "\"ts\": %.3f, \"dur\": %.3f", micros(origin_, span.start),
                  micros(span.start, span.end));
    out << "{\"name\": " << json_string(span.name) << ", \"cat\": " << json_string(span.layer)
        << ", \"ph\": \"X\", " << number << ", \"pid\": 1, \"tid\": " << span.thread
        << ", \"args\": {\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"op\": " << span.op << ", \"reported\": " << (span.reported ? "true" : "false")
        << "}}";
  }
  for (const CounterRecord& counter : counters_) {
    separator();
    std::snprintf(number, sizeof number, "\"ts\": %.3f", micros(origin_, counter.at));
    out << "{\"name\": " << json_string(counter.name) << ", \"cat\": "
        << json_string(counter.name) << ", \"ph\": \"C\", " << number
        << ", \"pid\": 1, \"tid\": " << counter.thread << ", \"args\": {";
    for (std::size_t i = 0; i < counter.values.size(); ++i) {
      std::snprintf(number, sizeof number, "%.17g", counter.values[i].second);
      out << (i == 0 ? "" : ", ") << json_string(counter.values[i].first) << ": " << number;
    }
    out << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw hv::Error("cannot write trace file " + path);
}

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

Span::Span(std::string name, std::string layer, std::int64_t op)
    : name_(std::move(name)),
      layer_(std::move(layer)),
      op_(op),
      id_(Tracer::global().next_id()),
      parent_(open_spans.empty() ? 0 : open_spans.back()),
      start_(Clock::now()) {
  open_spans.push_back(id_);
}

Span::~Span() {
  const Clock::time_point end = Clock::now();
  open_spans.pop_back();
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  tracer.record(SpanRecord{id_, parent_, op_, thread_index(), std::move(name_), std::move(layer_),
                           start_, end, false});
}

double Span::seconds() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

std::int64_t record_reported(const std::string& name, const std::string& layer, std::int64_t op,
                             std::int64_t parent, Clock::time_point start, double seconds) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return 0;
  const auto end = start + from_seconds(std::max(0.0, seconds));
  const std::int64_t id = tracer.next_id();
  tracer.record(SpanRecord{id, parent, op, thread_index(), name, layer, start, end, true});
  return id;
}

void record_smt(Clock::time_point at, double pivots, double fast_ops, double big_ops) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  tracer.record_counter(CounterRecord{
      "smt",
      thread_index(),
      at,
      {{"pivots", pivots}, {"rational_fast_ops", fast_ops}, {"rational_big_ops", big_ops}}});
}

// --- statistics -------------------------------------------------------------

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double position = q * static_cast<double>(sorted.size() - 1);
  const std::size_t below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, sorted.size() - 1);
  const double weight = position - static_cast<double>(below);
  return sorted[below] * (1.0 - weight) + sorted[above] * weight;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- correctness -------------------------------------------------------------

void Tally::record(const std::vector<std::string>& errors) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (errors.empty()) return;
  ++failed_;
  for (const std::string& error : errors) {
    if (reasons_.size() < 10) reasons_.push_back(error);
  }
}

std::int64_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::int64_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::vector<std::string> Tally::reasons() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reasons_;
}

// --- work counters ------------------------------------------------------------

void Work::add(const hv::checker::PropertyResult& result) {
  ++properties;
  solved += result.schemas_checked;
  pruned += result.schemas_pruned;
  cut += result.schemas_cut;
  lemma_hits += result.lemma_hits;
  lemmas_learned += result.lemmas_learned;
  retries += result.retries;
  unknown += result.schemas_unknown;
  pivots += result.simplex_pivots;
  fast_ops += result.rational_fast_ops;
  big_ops += result.rational_big_ops;
  if (result.incremental) {
    segments_reused += result.incremental->segments_reused;
    segments_pushed += result.incremental->segments_pushed;
  }
  length_sum += result.avg_schema_length * static_cast<double>(result.schemas_checked);
  seconds += result.seconds;
}

void Work::add_json(const hv::cert::Json& property) {
  const auto count = [&](const char* key) {
    const hv::cert::Json* field = property.find(key);
    return field == nullptr ? std::int64_t{0} : field->as_int();
  };
  ++properties;
  solved += count("schemas");
  pruned += count("pruned");
  cut += count("cut");
  lemma_hits += count("lemma_hits");
  lemmas_learned += count("lemmas_learned");
  retries += count("retries");
  unknown += count("unknown_schemas");
  pivots += count("pivots");
  fast_ops += count("rational_fast_ops");
  big_ops += count("rational_big_ops");
  segments_reused += count("segments_reused");
  segments_pushed += count("segments_pushed");
  seconds += property.at("seconds").as_double();
}

bool Work::same_counts(const Work& other) const {
  return properties == other.properties && solved == other.solved && pruned == other.pruned &&
         cut == other.cut && lemma_hits == other.lemma_hits &&
         lemmas_learned == other.lemmas_learned && retries == other.retries &&
         unknown == other.unknown && pivots == other.pivots && fast_ops == other.fast_ops &&
         big_ops == other.big_ops && segments_reused == other.segments_reused &&
         segments_pushed == other.segments_pushed && length_sum == other.length_sum;
}

std::string Work::counts_text() const {
  std::ostringstream out;
  out << "solved=" << solved << " pruned=" << pruned << " cut=" << cut
      << " lemma_hits=" << lemma_hits << " lemmas_learned=" << lemmas_learned
      << " pivots=" << pivots << " retries=" << retries << " unknown=" << unknown;
  return out.str();
}

namespace {

double ratio(std::int64_t part, std::int64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void put_work(MetricMap& metrics, const Work& w) {
  const double solved = static_cast<double>(w.solved);
  put(metrics, "checker.schemas_solved", solved, "count");
  put(metrics, "checker.schemas_pruned", static_cast<double>(w.pruned), "count");
  put(metrics, "checker.schemas_cut", static_cast<double>(w.cut), "count");
  put(metrics, "checker.cut_ratio", ratio(w.cut, w.cut + w.solved), "ratio");
  put(metrics, "checker.lemma_hits", static_cast<double>(w.lemma_hits), "count");
  put(metrics, "checker.lemmas_learned", static_cast<double>(w.lemmas_learned), "count");
  put(metrics, "checker.prefix_reuse_ratio",
      ratio(w.segments_reused, w.segments_reused + w.segments_pushed), "ratio");
  put(metrics, "checker.avg_schema_length", w.solved == 0 ? 0.0 : w.length_sum / solved, "count");
  put(metrics, "checker.retries", static_cast<double>(w.retries), "count");
  put(metrics, "checker.schemas_unknown", static_cast<double>(w.unknown), "count");
  put(metrics, "smt.pivots", static_cast<double>(w.pivots), "count");
  put(metrics, "smt.pivots_per_solved", ratio(w.pivots, w.solved), "count");
  put(metrics, "smt.rational_fast_ops", static_cast<double>(w.fast_ops), "count");
  put(metrics, "smt.rational_big_ops", static_cast<double>(w.big_ops), "count");
  put(metrics, "smt.fast_ratio", ratio(w.fast_ops, w.fast_ops + w.big_ops), "ratio");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw hv::Error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench

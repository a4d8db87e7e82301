// perfbench: the repository benchmark binary. run.py builds it and runs
//
//   perfbench --workload <redbelly|certify_audit|naive|service> --seed N
//             --seconds S --trace <0|1> --work-dir DIR
//
// from the checkout root (it reads BENCHMARK.json and models/*.ta there).
// It sets up the workload kSetups times, warms up, measures for S seconds
// and prints a human-readable report followed by one JSON line. setup_s is
// the median of the service's kSetups set-ups; the model workloads set up
// again inside the measuring pass and report only those set-ups, so that
// setup_s samples the whole run rather than its first instant.
//
//   --trace 0  the end-to-end metrics, measured with span recording off;
//   --trace 1  the per-layer metrics: an untraced pass and a traced pass of
//              S/2 seconds each, the traced one written as a Chrome trace
//              to <parent of DIR>/traces/<workload>-seed<N>.json; the
//              difference of their verdict times is the tracing overhead,
//              printed beside the time spent recording the trace.
// Exit status 0 iff every operation passed its correctness gates.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "bench.h"
#include "hv/util/error.h"

namespace {

using namespace perfbench;

constexpr int kSetups = 5;

/// The per-layer metrics BENCHMARK.json lists, with their units, in its
/// order. A workload fills the ones its operations touch; the others read
/// 0 (no work in that layer).
std::vector<std::pair<std::string, std::string>> per_layer_catalogue() {
  const hv::cert::Json spec = hv::cert::Json::parse(read_file("BENCHMARK.json"));
  std::vector<std::pair<std::string, std::string>> catalogue;
  for (const hv::cert::Json& metric : spec.at("per_layer").as_array()) {
    catalogue.emplace_back(metric.at("name").as_string(), metric.at("unit").as_string());
  }
  return catalogue;
}

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

void print_line(const std::string& name, double value, const std::string& unit,
                const std::string& note) {
  std::printf("  %-28s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <redbelly|certify_audit|naive|service> --seed N "
               "--seconds S --trace <0|1> --work-dir DIR\n",
               argv0);
  return 2;
}

int run(const Settings& settings) {
  std::unique_ptr<Workload> workload;
  if (settings.workload == "redbelly") {
    workload = make_redbelly(settings);
  } else if (settings.workload == "certify_audit") {
    workload = make_certify_audit(settings);
  } else if (settings.workload == "naive") {
    workload = make_naive(settings);
  } else if (settings.workload == "service") {
    workload = make_service(settings);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", settings.workload.c_str());
    return 2;
  }
  const auto catalogue = per_layer_catalogue();
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(settings.trace);

  Tally tally;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) workload->tear_down();
    workload->timed_set_up();
  }
  workload->warm_up(tally);

  MetricMap metrics;
  std::vector<Line> lines;
  std::printf("perfbench %s: seed %llu, %g s, trace %d\n", settings.workload.c_str(),
              static_cast<unsigned long long>(settings.seed), settings.seconds,
              settings.trace ? 1 : 0);
  if (!settings.trace) {
    workload->measure(settings.seconds, tally);
    workload->end_to_end(metrics, lines);
    workload->tear_down();
    const Samples& setup_s = workload->setup_seconds;
    put(metrics, "setup_s", setup_s.median(), "s");
    put(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    lines.insert(lines.begin(),
                 Line{"setup_s", setup_s.median(), "s",
                      "median of " + std::to_string(setup_s.size()) + " set-ups, " +
                          number(setup_s.quantile(0)) + " .. " + number(setup_s.quantile(1))});
    lines.push_back({"peak_rss_mb", metrics["peak_rss_mb"].value, "MB", "whole process"});
  } else {
    tracer.set_enabled(false);
    workload->measure(settings.seconds / 2, tally);
    const double untraced = workload->verdict_seconds();
    tracer.set_enabled(true);
    const double recorded_before = tracer.record_seconds();
    const std::int64_t attempted_before = tally.attempted();
    workload->measure(settings.seconds / 2, tally);
    const double traced = workload->verdict_seconds();
    const double recording = tracer.record_seconds() - recorded_before;
    const std::int64_t traced_ops = tally.attempted() - attempted_before;
    workload->tear_down();
    tracer.set_enabled(false);

    workload->per_layer(metrics);
    put(metrics, "ta.parse_s", workload->parse_seconds.median(), "s");
    put(metrics, "spec.compile_s", workload->compile_seconds.median(), "s");
    put(metrics, "trace.overhead_s", traced - untraced, "s");
    put(metrics, "trace.record_s", recording, "s");
    std::set<std::string> known;
    for (const auto& [name, unit] : catalogue) {
      known.insert(name);
      if (metrics.count(name) == 0) put(metrics, name, 0.0, unit);
    }
    for (const auto& [name, metric] : metrics) {
      if (known.count(name) == 0) throw hv::Error("metric " + name + " is not in BENCHMARK.json");
    }
    const std::string name = workload->verdict_name();
    lines.push_back({name + " untraced", untraced, "s", ""});
    lines.push_back({name + " traced", traced, "s",
                     "tracing overhead " + number(traced - untraced) +
                         " s (difference of the passes); recording took " + number(recording) +
                         " s over the traced pass's " + std::to_string(traced_ops) +
                         " operations"});

    const std::filesystem::path trace_dir =
        std::filesystem::path(settings.work_dir).parent_path() / "traces";
    std::filesystem::create_directories(trace_dir);
    const std::string trace_path =
        (trace_dir / (settings.workload + "-seed" + std::to_string(settings.seed) + ".json"))
            .string();
    tracer.write_chrome_trace(trace_path);
    std::printf("trace: %zu spans -> %s\n", tracer.span_count(), trace_path.c_str());
    std::printf("self time by layer (traced run, set-up included):\n");
    for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
      print_line(layer, seconds, "s", "");
    }
    std::string seen;
    for (const std::string& layer : tracer.layers_seen()) seen += " " + layer;
    std::printf("layers with trace events:%s\n", seen.c_str());
  }

  const std::int64_t attempted = tally.attempted();
  const std::int64_t failed = tally.failed();
  lines.push_back({"error_rate", attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted,
                   "ratio",
                   std::to_string(failed) + " failed / " + std::to_string(attempted) +
                       " attempted"});
  for (const Line& line : lines) print_line(line.name, line.value, line.unit, line.note);
  if (settings.trace) {
    for (const auto& [name, unit] : catalogue) {
      print_line(name, metrics[name].value, unit, "");
    }
  }
  for (const std::string& reason : tally.reasons()) std::printf("FAILED: %s\n", reason.c_str());

  const bool correct = attempted > 0 && failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
            number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Settings settings;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      settings.workload = value;
    } else if (flag == "--seed") {
      settings.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      settings.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = settings.seconds > 0;
    } else if (flag == "--trace") {
      settings.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      settings.work_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (settings.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      settings.work_dir.empty()) {
    return usage(argv[0]);
  }
  // Fork-local fleets put their sockets under TMPDIR; keep them inside the
  // work directory (relative, so the socket path stays short).
  ::setenv("TMPDIR", settings.work_dir.c_str(), 1);
  try {
    return run(settings);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}

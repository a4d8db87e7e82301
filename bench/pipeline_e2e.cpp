// End-to-end cost of the DAG-scheduled pipeline at 1, 2 and 4 lanes.
//
// Three sections, each honest about what it can show on this machine:
//
//   scheduler  a synthetic DAG of sleep-bound nodes (8 independent naps and
//              a join) run on 1/2/4 lanes. Sleep overlaps regardless of the
//              core count, so this isolates *scheduler* concurrency — lane
//              dispatch, gating, accounting — from solver CPU contention.
//              Wall-clock must shrink with lanes or the scheduler serializes.
//   redbelly   the real pipeline (7 bv-broadcast + 9 consensus properties)
//              on 1/2/4 DAG lanes, with verdict/schema parity checked
//              against the 1-lane (sequential) run. Lane speedup here
//              is CPU-bound: on a single-core container the wall-clock will
//              NOT improve (concurrent exact-arithmetic solves just share
//              the core), which is why the JSON records `cores` and the
//              speedup claim lives in the sleep-bound section above.
//   audit      certify a 1-lane run, then audit the certificate with
//              1/2/4 jobs; reports Farkas leaves re-verified per second and
//              checks the sharded reports are byte-identical to --jobs 1.
//
// Emits BENCH_pipeline.json (override with --out FILE).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "hv/cert/audit.h"
#include "hv/pipeline/certify.h"
#include "hv/pipeline/dag/scheduler.h"
#include "hv/pipeline/holistic.h"
#include "hv/util/stopwatch.h"

namespace {

namespace dag = hv::pipeline::dag;

struct LaneSample {
  int lanes = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

LaneSample run_sleep_dag(int lanes) {
  dag::Graph graph;
  std::vector<dag::NodeId> layer;
  const auto nap = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    return true;
  };
  for (int i = 0; i < 8; ++i) layer.push_back(graph.add("nap" + std::to_string(i), nap));
  graph.add("join", [] { return true; }, layer);
  dag::RunOptions options;
  options.lanes = lanes;
  const dag::RunStats stats = dag::run(graph, options);
  return {lanes, stats.wall_seconds, stats.cpu_seconds};
}

/// The stable identity of a pipeline run: names, verdicts and schema
/// accounting of every property, plus the composed consensus verdicts.
/// Timing is deliberately excluded.
std::string report_fingerprint(const hv::pipeline::HolisticReport& report) {
  std::string out;
  const auto add = [&out](const std::vector<hv::checker::PropertyResult>& results) {
    for (const hv::checker::PropertyResult& result : results) {
      out += result.property + "=" + hv::checker::to_string(result.verdict) + "/" +
             std::to_string(result.schemas_checked) + "/" +
             std::to_string(result.schemas_pruned) + ";";
    }
  };
  add(report.bv_results);
  add(report.consensus_results);
  out += "agreement=" + hv::checker::to_string(report.agreement) + ";";
  out += "validity=" + hv::checker::to_string(report.validity) + ";";
  out += "termination=" + hv::checker::to_string(report.termination) + ";";
  return out;
}

std::string audit_fingerprint(const hv::cert::AuditReport& report) {
  // to_string covers ok, every issue/warning in order, and all counters.
  return report.to_string();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();
  const int kLaneCounts[] = {1, 2, 4};

  // --- scheduler section (core-count independent) ---
  std::vector<LaneSample> sleep_samples;
  for (const int lanes : kLaneCounts) sleep_samples.push_back(run_sleep_dag(lanes));
  const double overlap_speedup =
      sleep_samples[1].wall_seconds == 0.0
          ? 0.0
          : sleep_samples[0].wall_seconds / sleep_samples[1].wall_seconds;

  // --- redbelly section ---
  std::string reference;  // the 1-lane run's
  std::vector<LaneSample> redbelly_samples;
  bool verdict_parity = true;
  for (const int lanes : kLaneCounts) {
    hv::pipeline::HolisticOptions options;
    options.dag_workers = lanes;
    const hv::pipeline::HolisticReport report =
        hv::pipeline::verify_red_belly_consensus(options);
    redbelly_samples.push_back({lanes, report.total_seconds, report.cpu_seconds});
    if (lanes == 1) {
      reference = report_fingerprint(report);
    } else {
      verdict_parity = verdict_parity && report_fingerprint(report) == reference;
    }
  }

  // --- audit section ---
  hv::pipeline::HolisticOptions certify_options;
  certify_options.check.certify = true;
  const hv::cert::Certificate certificate =
      hv::pipeline::certify_report(hv::pipeline::verify_red_belly_consensus(certify_options));
  std::vector<LaneSample> audit_samples;
  std::vector<double> leaves_per_second;
  bool audit_parity = true;
  bool audit_ok = true;
  std::string audit_reference;
  for (const int jobs : kLaneCounts) {
    hv::cert::AuditOptions options;
    options.jobs = jobs;
    const hv::Stopwatch watch;
    const hv::cert::AuditReport report = hv::cert::audit_certificate(certificate, options);
    const double seconds = watch.seconds();
    audit_samples.push_back({jobs, seconds, 0.0});
    leaves_per_second.push_back(
        seconds == 0.0 ? 0.0 : static_cast<double>(report.farkas_nodes) / seconds);
    audit_ok = audit_ok && report.ok;
    if (jobs == 1) {
      audit_reference = audit_fingerprint(report);
    } else {
      audit_parity = audit_parity && audit_fingerprint(report) == audit_reference;
    }
  }

  const bool ok = verdict_parity && audit_parity && audit_ok && overlap_speedup > 1.2;
  std::printf("pipeline e2e (hardware_concurrency=%u)\n", cores);
  std::printf("  scheduler (sleep-bound, core-independent):\n");
  for (const LaneSample& sample : sleep_samples) {
    std::printf("    %d lane(s): %.3fs wall, %.3fs cpu\n", sample.lanes,
                sample.wall_seconds, sample.cpu_seconds);
  }
  std::printf("    1->2 lane wall speedup: %.2fx\n", overlap_speedup);
  std::printf("  redbelly (parity with 1 lane %s):\n", verdict_parity ? "ok" : "BROKEN");
  for (const LaneSample& sample : redbelly_samples) {
    std::printf("    dag %d lane(s): %.3fs wall, %.3fs cpu\n", sample.lanes,
                sample.wall_seconds, sample.cpu_seconds);
  }
  std::printf("  audit (%s, parity %s):\n", audit_ok ? "green" : "NOT GREEN",
              audit_parity ? "ok" : "BROKEN");
  for (std::size_t i = 0; i < audit_samples.size(); ++i) {
    std::printf("    %d job(s): %.3fs, %.0f Farkas leaves/s\n", audit_samples[i].lanes,
                audit_samples[i].wall_seconds, leaves_per_second[i]);
  }

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(json, "{\"cores\": %u,\n \"scheduler_sleep_dag\": [", cores);
  for (std::size_t i = 0; i < sleep_samples.size(); ++i) {
    std::fprintf(json, "%s{\"lanes\": %d, \"wall_seconds\": %.6f, \"cpu_seconds\": %.6f}",
                 i == 0 ? "" : ", ", sleep_samples[i].lanes, sleep_samples[i].wall_seconds,
                 sleep_samples[i].cpu_seconds);
  }
  std::fprintf(json, "],\n \"scheduler_overlap_speedup\": %.3f,\n", overlap_speedup);
  std::fprintf(json, " \"redbelly_dag\": [");
  for (std::size_t i = 0; i < redbelly_samples.size(); ++i) {
    std::fprintf(json, "%s{\"lanes\": %d, \"wall_seconds\": %.6f, \"cpu_seconds\": %.6f}",
                 i == 0 ? "" : ", ", redbelly_samples[i].lanes,
                 redbelly_samples[i].wall_seconds, redbelly_samples[i].cpu_seconds);
  }
  std::fprintf(json, "],\n \"verdict_parity\": %s,\n \"audit\": [",
               verdict_parity ? "true" : "false");
  for (std::size_t i = 0; i < audit_samples.size(); ++i) {
    std::fprintf(json, "%s{\"jobs\": %d, \"seconds\": %.6f, \"farkas_leaves_per_second\": %.1f}",
                 i == 0 ? "" : ", ", audit_samples[i].lanes, audit_samples[i].wall_seconds,
                 leaves_per_second[i]);
  }
  std::fprintf(json, "],\n \"audit_parity\": %s, \"audit_ok\": %s, \"ok\": %s}\n",
               audit_parity ? "true" : "false", audit_ok ? "true" : "false",
               ok ? "true" : "false");
  std::fclose(json);
  std::printf("  wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}

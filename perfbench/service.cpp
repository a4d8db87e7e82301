// The service workload: an in-process daemon whose jobs run on a fork-local
// lease fleet of two workers, driven by four client threads in a closed
// loop — each submits, blocks on the result like `hvc submit --wait`, then
// sends its next request.
//
// Each client repeats a cycle of one fresh job and kResubmits resubmissions.
// A fresh job submits models/bv_broadcast.ta with its bundled properties and
// a branch_budget no other job of the run uses (far above what any schema
// needs, so it binds nothing), which makes it a cache miss. A resubmission
// repeats a job the same client has already seen finish, chosen by the
// seeded generator, so it must be a cache hit: the daemon does not merge
// identical jobs that are both in flight, so resubmitting a running job
// would measure a second solve, not the cache.
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "hv/cert/certificate.h"
#include "hv/checker/parameterized.h"
#include "hv/service/client.h"
#include "hv/service/daemon.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"

namespace perfbench {
namespace {

constexpr int kClients = 4;      // closed-loop client threads (<= nproc)
constexpr int kJobWorkers = 2;   // fork-local workers per job
constexpr int kMaxRunning = 2;   // concurrent jobs: kMaxRunning * kJobWorkers <= nproc
// Cache hits per fresh job in a client's cycle: the smallest count that
// gives the report's cache_hit_p90_ms at least 10 samples beyond it (100
// hits) in a 45 s run. A fresh job takes about 2 s (the ~1 s fleet floor
// plus queueing: 4 clients share 2 running slots), so a run completes about
// 90 fresh jobs: one hit each would leave 9 samples beyond p90, two give
// about 180 hits, 18 beyond p90. Hits take milliseconds, so the count
// barely changes the fresh-job rate, and verdicts_per_min counts fresh jobs
// only.
constexpr int kResubmits = 2;

struct Finished {
  hv::service::SubmitRequest request;
  std::string response;
  std::int64_t code = 0;
};

/// Samples of one measuring pass, shared by the client threads.
struct Pass {
  std::mutex mutex;
  Samples fresh_s, hit_ms, submit_ms, queue_wait_s, result_wait_s, solve_s, fleet_overhead_s;
  std::int64_t resubmissions = 0;
  std::int64_t hits = 0;
  std::int64_t jobs_failed = 0;  // failed, cancelled or refused
  std::unique_ptr<Work> fleet_work;
  double seconds = 0.0;
};

class Service final : public Workload {
 public:
  explicit Service(const Settings& settings)
      : seed_(settings.seed), work_dir_(settings.work_dir) {}
  ~Service() override { tear_down(); }

  void set_up() override {
    model_text_ = read_file("models/bv_broadcast.ta");
    std::optional<hv::ta::ThresholdAutomaton> ta;
    {
      Span parse("ta.parse_ta", "ta");
      ta = hv::ta::parse_ta(model_text_).one_round_reduction();
      parse_seconds.add(parse.seconds());
    }
    std::vector<hv::spec::Property> properties;
    {
      Span compile("cert.bundled_properties", "spec");
      properties = hv::cert::bundled_properties(*ta, /*table2_defaults=*/true);
      compile_seconds.add(compile.seconds());
    }
    specs_.clear();
    for (const auto& property : properties) specs_.push_back({property.name, "", /*bundled=*/true});
    {
      // In-process reference verdicts every fresh job is checked against.
      Span check("checker.check_properties", "checker");
      reference_ = hv::checker::check_properties(*ta, properties, {});
      reference_s_.add(check.seconds());
    }

    Span start("service.run_daemon", "service");
    const std::string dir = work_dir_ + "/daemon" + std::to_string(daemons_++);
    address_ = "unix:" + dir + ".sock";
    stop_.store(false);
    hv::service::DaemonOptions options;
    options.state_dir = dir;
    options.job_workers = kJobWorkers;
    options.limits.max_running = kMaxRunning;
    options.limits.tenant_max_running = kMaxRunning;
    options.limits.tenant_max_queued = 1024;
    options.stop = &stop_;
    daemon_ = std::thread([this, address = address_, options] {
      try {
        hv::service::run_daemon(address, options, daemon_log_);
      } catch (const std::exception& error) {
        std::lock_guard<std::mutex> lock(error_mutex_);
        daemon_error_ = error.what();
      }
    });
    hv::service::Client client(address_);  // waits until the daemon listens
    client.status();
  }

  void tear_down() override {
    if (!daemon_.joinable()) return;
    stop_.store(true);
    daemon_.join();
  }

  void warm_up(Tally& tally) override {
    Pass pass;
    std::vector<Finished> finished;
    hv::service::Client client(address_);
    fresh(client, "warmup", pass, finished, tally, 0);
    if (!finished.empty()) resubmit(client, finished.front(), pass, tally, 0);
  }

  void measure(double seconds, Tally& tally) override {
    pass_ = std::make_unique<Pass>();
    const Clock::time_point begin = Clock::now();
    const Clock::time_point deadline = begin + from_seconds(seconds);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::string tenant = "client" + std::to_string(c);
        std::mt19937_64 rng(seed_ * 1'000'003ull + static_cast<std::uint64_t>(c));
        std::vector<Finished> finished;
        try {
          hv::service::Client client(address_);
          std::int64_t op = (c + 1) * 1'000'000;
          while (Clock::now() < deadline) {
            fresh(client, tenant, *pass_, finished, tally, op++);
            for (int i = 0; i < kResubmits && !finished.empty() && Clock::now() < deadline; ++i) {
              std::uniform_int_distribution<std::size_t> pick(0, finished.size() - 1);
              resubmit(client, finished[pick(rng)], *pass_, tally, op++);
            }
          }
        } catch (const std::exception& error) {
          tally.record({tenant + ": " + error.what()});
        }
      });
    }
    for (std::thread& client : clients) client.join();
    pass_->seconds = std::chrono::duration<double>(Clock::now() - begin).count();
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!daemon_error_.empty()) tally.record({"daemon: " + daemon_error_});
  }

  double verdict_seconds() const override { return pass_->fresh_s.median(); }
  std::string verdict_name() const override { return "fresh_job_p50_s"; }

  void end_to_end(MetricMap& metrics, std::vector<Line>& lines) const override {
    const Pass& p = *pass_;
    const auto per_min = [&](std::size_t jobs) {
      return p.seconds <= 0.0 ? 0.0 : 60.0 * static_cast<double>(jobs) / p.seconds;
    };
    // The verdicts the fleet solved; the hit rate follows from kResubmits.
    const double fresh_per_min = per_min(p.fresh_s.size());
    put(metrics, "verdict_s", p.fresh_s.median(), "s");
    put(metrics, "verdicts_per_min", fresh_per_min, "1/min");
    lines.push_back({"jobs_per_min", per_min(p.fresh_s.size() + p.hit_ms.size()), "1/min",
                     std::to_string(p.fresh_s.size()) + " fresh + " +
                         std::to_string(p.hit_ms.size()) + " resubmitted, " +
                         std::to_string(kClients) + " closed-loop clients"});
    lines.push_back({"fresh_jobs_per_min", fresh_per_min, "1/min", "cache-missing jobs"});
    lines.push_back({"hit_jobs_per_min", per_min(p.hit_ms.size()), "1/min",
                     std::to_string(kResubmits) + " resubmissions per fresh job"});
    lines.push_back({"fresh_job_p50_s", p.fresh_s.median(), "s",
                     "median of " + std::to_string(p.fresh_s.size()) + " cache-missing jobs"});
    lines.push_back({"cache_hit_p50_ms", p.hit_ms.median(), "ms",
                     "median of " + std::to_string(p.hit_ms.size()) + " resubmissions"});
    const std::size_t beyond = p.hit_ms.size() / 10;
    lines.push_back({"cache_hit_p90_ms", p.hit_ms.quantile(0.9), "ms",
                     std::to_string(beyond) + " samples beyond it" +
                         (beyond < 10 ? " (fewer than 10: not a resolved p90)" : "")});
  }

  void per_layer(MetricMap& metrics) const override {
    const Pass& p = *pass_;
    if (p.fleet_work) put_work(metrics, *p.fleet_work);
    put(metrics, "checker.property_s", reference_s_.median(), "s");
    put(metrics, "dist.solve_s", p.solve_s.median(), "s");
    put(metrics, "dist.fleet_overhead_s", p.fleet_overhead_s.median(), "s");
    put(metrics, "service.submit_ms", p.submit_ms.median(), "ms");
    put(metrics, "service.queue_wait_s", p.queue_wait_s.median(), "s");
    put(metrics, "service.result_wait_s", p.result_wait_s.median(), "s");
    put(metrics, "service.hit_ratio",
        p.resubmissions == 0 ? 0.0
                             : static_cast<double>(p.hits) / static_cast<double>(p.resubmissions),
        "ratio");
    put(metrics, "service.jobs_failed", static_cast<double>(p.jobs_failed), "count");
    put(metrics, "service.cache_hit_p50_ms", p.hit_ms.median(), "ms");
    put(metrics, "service.cache_hit_p90_ms", p.hit_ms.quantile(0.9), "ms");
  }

 private:
  /// Submits and waits; returns the result frame (or an error frame).
  /// `submit_ms` receives the submit round trip.
  hv::cert::Json submit_and_wait(hv::service::Client& client,
                                 const hv::service::SubmitRequest& request, std::int64_t op,
                                 double& submit_ms, bool& submitted_cached,
                                 Clock::time_point& submitted_at) {
    hv::cert::Json submitted;
    {
      Span call("service.Client.submit", "service", op);
      submitted = client.submit(request);
      submit_ms = call.seconds() * 1000.0;
    }
    submitted_at = Clock::now();
    submitted_cached = submitted.at("cached").as_bool();
    Span call("service.Client.result", "service", op);
    return client.result(submitted.at("job").as_int(), /*wait=*/true);
  }

  void fresh(hv::service::Client& client, const std::string& tenant, Pass& pass,
             std::vector<Finished>& finished, Tally& tally, std::int64_t op) {
    hv::service::SubmitRequest request;
    request.tenant = tenant;
    request.model_text = model_text_;
    request.specs = specs_;
    request.options.branch_budget =
        1'000'000 + static_cast<std::int64_t>(seed_ % 1000) * 10'000 + budget_seq_.fetch_add(1);
    std::vector<std::string> errors;
    Span job("service.fresh_job", "bench", op);
    double submit_ms = 0.0;
    bool submitted_cached = false;
    Clock::time_point submitted_at;
    hv::cert::Json result;
    try {
      result = submit_and_wait(client, request, op, submit_ms, submitted_cached, submitted_at);
    } catch (const std::exception& error) {
      record_failure(pass, tally, "fresh job refused: " + std::string(error.what()));
      return;
    }
    const double latency = job.seconds();
    const Clock::time_point received = Clock::now();
    if (submitted_cached) errors.push_back("fresh job was served from the cache");
    const hv::cert::Json* type = result.find("type");
    if (type == nullptr || type->as_string() != "result" ||
        result.at("state").as_string() != "done") {
      record_failure(pass, tally, "fresh job did not finish: " + result.to_string());
      return;
    }
    if (result.at("cached").as_bool()) errors.push_back("fresh job result is marked cached");
    const std::string response = result.at("response").as_string();
    Work work;
    check_response(response, errors, work);

    // The daemon's own account of the job: elapsed = dispatch to finish.
    // Everything else of the latency is admission, queueing and delivery.
    hv::cert::Json status;
    {
      Span call("service.Client.status", "service", op);
      status = client.status(result.at("job").as_int());
    }
    const hv::cert::Json::Array& rows = status.at("jobs").as_array();
    if (rows.size() != 1) {
      record_failure(pass, tally, "status of a finished job has " + std::to_string(rows.size()) +
                                      " rows");
      return;
    }
    const double elapsed = rows[0].at("elapsed").as_double();
    const Clock::time_point dispatched = received - from_seconds(elapsed);
    const std::int64_t fleet =
        record_reported("dist.check_distributed_local", "dist", op, job.id(), dispatched, elapsed);
    if (errors.empty()) record_response(response, op, fleet, dispatched);
    {
      std::lock_guard<std::mutex> lock(pass.mutex);
      pass.fresh_s.add(latency);
      pass.submit_ms.add(submit_ms);
      pass.result_wait_s.add(std::chrono::duration<double>(received - submitted_at).count());
      pass.queue_wait_s.add(latency - elapsed);
      pass.solve_s.add(work.seconds);
      pass.fleet_overhead_s.add(elapsed - work.seconds);
      if (!pass.fleet_work) pass.fleet_work = std::make_unique<Work>(work);
    }
    if (errors.empty()) {
      finished.push_back({request, response, result.at("code").as_int()});
    }
    tally.record(errors);
  }

  void resubmit(hv::service::Client& client, const Finished& original, Pass& pass, Tally& tally,
                std::int64_t op) {
    std::vector<std::string> errors;
    Span job("service.resubmission", "bench", op);
    double submit_ms = 0.0;
    bool submitted_cached = false;
    Clock::time_point submitted_at;
    hv::cert::Json result;
    try {
      result = submit_and_wait(client, original.request, op, submit_ms, submitted_cached,
                               submitted_at);
    } catch (const std::exception& error) {
      record_failure(pass, tally, "resubmission refused: " + std::string(error.what()));
      return;
    }
    const double latency = job.seconds();
    const hv::cert::Json* type = result.find("type");
    const bool done = type != nullptr && type->as_string() == "result" &&
                      result.at("state").as_string() == "done";
    const bool hit = done && submitted_cached && result.at("cached").as_bool();
    if (!done) {
      errors.push_back("resubmission did not finish: " + result.to_string());
    } else {
      if (!hit) errors.push_back("resubmission of a finished job was not a cache hit");
      if (result.at("response").as_string() != original.response ||
          result.at("code").as_int() != original.code) {
        errors.push_back("cache hit response differs from the original job's");
      }
    }
    {
      std::lock_guard<std::mutex> lock(pass.mutex);
      ++pass.resubmissions;
      if (hit) ++pass.hits;
      if (!done) ++pass.jobs_failed;
      pass.submit_ms.add(submit_ms);
      if (done) pass.hit_ms.add(latency * 1000.0);
    }
    tally.record(errors);
  }

  /// The per-property objects of a job response (`hvc check --json`: one
  /// bare object, or an array of them).
  static std::vector<hv::cert::Json> response_rows(const std::string& response) {
    hv::cert::Json parsed = hv::cert::Json::parse(response);
    if (parsed.find("property") != nullptr) return {parsed};
    return parsed.as_array();
  }

  /// Places each property's reported solve time inside the job's fleet
  /// span, end to end, with its simplex counters as an smt counter event.
  static void record_response(const std::string& response, std::int64_t op, std::int64_t parent,
                              Clock::time_point start) {
    if (!Tracer::global().enabled()) return;
    Clock::time_point at = start;
    for (const hv::cert::Json& row : response_rows(response)) {
      const double seconds = row.at("seconds").as_double();
      record_reported("checker.check_property " + row.at("property").as_string(), "checker", op,
                      parent, at, seconds);
      at += from_seconds(seconds);
      record_smt(at, row.at("pivots").as_double(), row.at("rational_fast_ops").as_double(),
                 row.at("rational_big_ops").as_double());
    }
  }

  void record_failure(Pass& pass, Tally& tally, const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(pass.mutex);
      ++pass.jobs_failed;
    }
    tally.record({why});
  }

  /// A fresh job's response must carry the in-process reference verdicts
  /// and schema counts, property by property.
  void check_response(const std::string& response, std::vector<std::string>& errors,
                      Work& work) const {
    std::vector<hv::cert::Json> rows;
    try {
      rows = response_rows(response);
    } catch (const std::exception& error) {
      errors.push_back(std::string("unparsable job response: ") + error.what());
      return;
    }
    if (rows.size() != reference_.size()) {
      errors.push_back("job answered " + std::to_string(rows.size()) + " properties, expected " +
                       std::to_string(reference_.size()));
      return;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const hv::checker::PropertyResult& expected = reference_[i];
      const hv::cert::Json& row = rows[i];
      work.add_json(row);
      const std::string name = row.at("property").as_string();
      if (name != expected.property ||
          row.at("verdict").as_string() != hv::checker::to_string(expected.verdict) ||
          expected.verdict != hv::checker::Verdict::kHolds) {
        errors.push_back(name + ": " + row.at("verdict").as_string() + ", in-process " +
                         expected.property + ": " + hv::checker::to_string(expected.verdict));
      }
      if (row.at("schemas").as_int() != expected.schemas_checked ||
          row.at("pruned").as_int() != expected.schemas_pruned) {
        errors.push_back(name + ": schema counts differ from the in-process run");
      }
    }
  }

  std::uint64_t seed_;
  std::string work_dir_;
  std::string model_text_;
  std::vector<hv::dist::PropertySpec> specs_;
  std::vector<hv::checker::PropertyResult> reference_;
  Samples reference_s_;
  std::atomic<std::int64_t> budget_seq_{0};

  int daemons_ = 0;
  std::string address_;
  std::atomic<bool> stop_{false};
  std::ostringstream daemon_log_;
  std::mutex error_mutex_;
  std::string daemon_error_;  // guarded by error_mutex_
  std::thread daemon_;  // last: joined before the members it uses go away

  std::unique_ptr<Pass> pass_;
};

}  // namespace

std::unique_ptr<Workload> make_service(const Settings& settings) {
  return std::make_unique<Service>(settings);
}

}  // namespace perfbench

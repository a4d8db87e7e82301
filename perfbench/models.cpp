// The three in-process workloads: redbelly (the paper's holistic pipeline),
// certify_audit (certified pipeline, certificate text, sharded audit) and
// naive (the naive automaton's Inv1_0). Their inputs are the paper's fixed
// automata, so the seed does not change them.
#include <functional>

#include "bench.h"
#include "hv/cert/audit.h"
#include "hv/cert/certificate.h"
#include "hv/checker/parameterized.h"
#include "hv/models/bv_broadcast.h"
#include "hv/models/naive_consensus.h"
#include "hv/models/simplified_consensus.h"
#include "hv/pipeline/certify.h"
#include "hv/pipeline/holistic.h"
#include "hv/ta/parser.h"
#include "hv/util/error.h"

namespace perfbench {
namespace {

using hv::checker::PropertyResult;
using hv::checker::Verdict;

/// Parses the shipped .ta sources and builds the automata and properties
/// the workload's operations use, timing the ta and spec calls.
class ModelWorkload : public Workload {
 protected:
  /// Set-up shared by every model workload: parse `sources` (ta), then run
  /// `build` (models::* factories and property compilers, spec).
  void set_up_models(const std::vector<std::string>& sources,
                     const std::function<void()>& build) {
    std::vector<std::string> texts;
    for (const std::string& source : sources) texts.push_back(read_file(source));
    {
      Span parse("ta.parse_ta", "ta");
      for (const std::string& text : texts) {
        const hv::ta::ThresholdAutomaton ta = hv::ta::parse_ta(text).one_round_reduction();
        if (ta.locations().empty()) throw hv::Error("parsed an empty automaton");
      }
      parse_seconds.add(parse.seconds());
    }
    Span compile("models.build_and_compile", "spec");
    build();
    compile_seconds.add(compile.seconds());
  }

  /// The pipeline's automata and properties: bv broadcast and simplified
  /// consensus.
  void set_up_pipeline_models() {
    set_up_models({"models/bv_broadcast.ta", "models/simplified_consensus.ta"}, [] {
      const auto bv = hv::models::bv_broadcast();
      const auto consensus = hv::models::simplified_consensus_one_round();
      if (hv::models::bv_properties(bv).empty() ||
          hv::models::simplified_properties(consensus).empty()) {
        throw hv::Error("model factories produced no properties");
      }
    });
  }

  /// Runs `operation` back to back until `seconds` elapse (at least once),
  /// each after a fresh set-up, as a user's `hvc` run sets up before it
  /// verifies. Set-up takes under a millisecond, so its time moves with
  /// the host's slow and fast stretches; setup_s, ta.parse_s and
  /// spec.compile_s therefore take only the set-ups timed inside the pass,
  /// spread over it, and drop the burst before warm-up.
  void run_for(double seconds, const std::function<void()>& operation) {
    verdict_s_.clear();
    for (Samples* samples : {&setup_seconds, &parse_seconds, &compile_seconds}) samples->clear();
    const Clock::time_point begin = Clock::now();
    do {
      timed_set_up();
      operation();
    } while (std::chrono::duration<double>(Clock::now() - begin).count() < seconds);
  }

  /// Gate shared by every operation: its work counts repeat those of the
  /// run's first operation exactly.
  void check_counts(const Work& work, std::vector<std::string>& errors) {
    if (!reference_) {
      reference_ = std::make_unique<Work>(work);
      return;
    }
    if (!reference_->same_counts(work)) {
      errors.push_back("work counters differ between operations: " + work.counts_text() +
                       " vs " + reference_->counts_text());
    }
  }

  void put_checker(MetricMap& metrics) const {
    if (reference_) put_work(metrics, *reference_);
    put(metrics, "checker.property_s", property_s_.median(), "s");
  }

  // The host's other tenants slow these single-threaded, memory-bound
  // operations by up to half for stretches of tens of seconds, longer than
  // a run, so a run's median depends on the phase it happened to hit. The
  // fastest operation of the run is the steadiest estimate of the
  // program's own speed; the median is still printed beside it.
  double verdict_seconds() const override { return verdict_s_.quantile(0.0); }

  /// verdict_s and verdicts_per_min, plus the report line under the
  /// workload's own name. One verdict at a time, so verdicts_per_min is
  /// 60 / verdict_s here, not a separate measurement.
  void put_verdict(MetricMap& metrics, std::vector<Line>& lines, const std::string& what) const {
    put(metrics, "verdict_s", verdict_seconds(), "s");
    put(metrics, "verdicts_per_min", 60.0 / verdict_seconds(), "1/min");
    lines.push_back({verdict_name(), verdict_seconds(), "s",
                     "fastest of " + std::to_string(verdict_s_.size()) + " " + what +
                         ", median " + std::to_string(verdict_s_.median()) + " s"});
  }

  Samples verdict_s_;
  Samples property_s_;
  std::int64_t next_op_ = 1;
  std::unique_ptr<Work> reference_;
};

/// Places each property's reported solve time under the call that ran it,
/// end to end from `start`, with its simplex counters as an smt counter
/// event. Returns the properties' summed work.
Work report_properties(const std::vector<const std::vector<PropertyResult>*>& stages,
                       std::int64_t op, std::int64_t parent, Clock::time_point start) {
  Work work;
  Clock::time_point at = start;
  for (const auto* stage : stages) {
    for (const PropertyResult& result : *stage) {
      work.add(result);
      record_reported("checker.check_property " + result.property, "checker", op, parent, at,
                      result.seconds);
      at += from_seconds(result.seconds);
      record_smt(at, static_cast<double>(result.simplex_pivots),
                 static_cast<double>(result.rational_fast_ops),
                 static_cast<double>(result.rational_big_ops));
    }
  }
  return work;
}

/// Gate on a holistic report: every checked property and every composed
/// consensus property holds.
void check_report(const hv::pipeline::HolisticReport& report, std::vector<std::string>& errors) {
  if (report.bv_results.size() != 7 || report.consensus_results.size() != 9) {
    errors.push_back("pipeline checked " + std::to_string(report.bv_results.size()) + " + " +
                     std::to_string(report.consensus_results.size()) +
                     " properties, expected 7 + 9");
  }
  for (const auto* stage : {&report.bv_results, &report.consensus_results}) {
    for (const PropertyResult& result : *stage) {
      if (result.verdict != Verdict::kHolds) {
        errors.push_back(result.property + " is " + hv::checker::to_string(result.verdict));
      }
    }
  }
  if (report.agreement != Verdict::kHolds || report.validity != Verdict::kHolds ||
      report.termination != Verdict::kHolds) {
    errors.push_back("Agreement/Validity/Termination not all composed to holds");
  }
}

// --- redbelly -----------------------------------------------------------------

class Redbelly final : public ModelWorkload {
 public:
  std::string verdict_name() const override { return "pipeline_s"; }

  void set_up() override { set_up_pipeline_models(); }

  void warm_up(Tally& tally) override { one(tally); }

  void measure(double seconds, Tally& tally) override {
    property_s_.clear();
    glue_s_.clear();
    run_for(seconds, [&] { one(tally); });
  }

  void end_to_end(MetricMap& metrics, std::vector<Line>& lines) const override {
    put_verdict(metrics, lines, "pipelines");
  }

  void per_layer(MetricMap& metrics) const override {
    put_checker(metrics);
    put(metrics, "pipeline.glue_s", glue_s_.median(), "s");
  }

 private:
  void one(Tally& tally) {
    const std::int64_t op = next_op_++;
    std::vector<std::string> errors;
    hv::pipeline::HolisticReport report;
    Work work;
    double seconds = 0.0;
    {
      Span call("pipeline.verify_red_belly_consensus", "pipeline", op);
      report = hv::pipeline::verify_red_belly_consensus({});
      seconds = call.seconds();
      work = report_properties({&report.bv_results, &report.consensus_results}, op, call.id(),
                               call.start());
    }
    check_report(report, errors);
    check_counts(work, errors);
    verdict_s_.add(seconds);
    property_s_.add(work.seconds);
    glue_s_.add(seconds - work.seconds);
    tally.record(errors);
  }

  Samples glue_s_;
};

// --- certify_audit --------------------------------------------------------------

std::int64_t farkas_leaves(const hv::smt::proof::Node& node) {
  std::int64_t leaves = node.kind == hv::smt::proof::NodeKind::kFarkas ? 1 : 0;
  if (node.first) leaves += farkas_leaves(*node.first);
  if (node.second) leaves += farkas_leaves(*node.second);
  return leaves;
}

class CertifyAudit final : public ModelWorkload {
 public:
  std::string verdict_name() const override { return "certify_audit_s"; }

  void set_up() override { set_up_pipeline_models(); }

  // One certify-and-audit round trip costs as much as the whole measuring
  // pass, so there is no warm-up operation; the first measured one sets
  // the reference counts.
  void warm_up(Tally&) override {}

  void measure(double seconds, Tally& tally) override {
    for (Samples* samples : {&property_s_, &glue_s_, &emit_s_, &serialise_s_, &parse_s_,
                             &audit_s_, &certify_s_, &audit_total_s_}) {
      samples->clear();
    }
    run_for(seconds, [&] { one(tally); });
  }

  void end_to_end(MetricMap& metrics, std::vector<Line>& lines) const override {
    put_verdict(metrics, lines, "certify + audit round trips");
    const std::string n = " (fastest of " + std::to_string(verdict_s_.size()) + ")";
    lines.push_back(
        {"certify_s", certify_s_.quantile(0.0), "s", "certified pipeline + emit + text" + n});
    lines.push_back({"cert_mb", static_cast<double>(bytes_) / 1e6, "MB", "certificate text"});
    lines.push_back({"audit_s", audit_total_s_.quantile(0.0), "s", "parse + audit, 2 lanes" + n});
  }

  void per_layer(MetricMap& metrics) const override {
    put_checker(metrics);
    put(metrics, "pipeline.glue_s", glue_s_.median(), "s");
    put(metrics, "pipeline.emit_s", emit_s_.median(), "s");
    put(metrics, "cert.serialise_s", serialise_s_.median(), "s");
    put(metrics, "cert.bytes", static_cast<double>(bytes_), "B");
    put(metrics, "cert.parse_s", parse_s_.median(), "s");
    put(metrics, "cert.audit_s", audit_s_.median(), "s");
    put(metrics, "cert.farkas_leaves", static_cast<double>(audit_.farkas_nodes), "count");
    put(metrics, "cert.schemas_covered", static_cast<double>(audit_.schemas_covered), "count");
    put(metrics, "cert.cone_replays", static_cast<double>(audit_.schemas_pruned), "count");
    const double audit_s = audit_s_.median();
    put(metrics, "cert.farkas_leaves_per_s",
        audit_s <= 0.0 ? 0.0 : static_cast<double>(audit_.farkas_nodes) / audit_s, "1/s");
  }

 private:
  void one(Tally& tally) {
    const std::int64_t op = next_op_++;
    std::vector<std::string> errors;
    std::string text;
    hv::cert::AuditReport audit;
    std::int64_t leaves = 0;
    std::int64_t unsat_schemas = 0;
    Span round_trip("certify_audit", "bench", op);
    {
      hv::pipeline::HolisticOptions options;
      options.check.certify = true;
      hv::pipeline::HolisticReport report;
      Work work;
      {
        Span call("pipeline.verify_red_belly_consensus", "pipeline", op);
        report = hv::pipeline::verify_red_belly_consensus(options);
        const double seconds = call.seconds();
        work = report_properties({&report.bv_results, &report.consensus_results}, op, call.id(),
                                 call.start());
        property_s_.add(work.seconds);
        glue_s_.add(seconds - work.seconds);
      }
      check_report(report, errors);
      check_counts(work, errors);
      hv::cert::Certificate certificate;
      {
        Span emit("pipeline.certify_report", "pipeline", op);
        certificate = hv::pipeline::certify_report(report);
        emit_s_.add(emit.seconds());
      }
      {
        Span serialise("cert.to_json_text", "cert", op);
        text = hv::cert::to_json_text(certificate);
        serialise_s_.add(serialise.seconds());
      }
    }  // the run's evidence is freed here, as when `hvc audit` runs in its own process
    const double certify_seconds = round_trip.seconds();
    certify_s_.add(certify_seconds);
    // A round trip is about half a run, so a set-up between its halves
    // keeps setup_s's samples spread over the run. It is outside both
    // halves' times.
    timed_set_up();
    const Clock::time_point audit_start = Clock::now();
    {
      hv::cert::Certificate parsed;
      {
        Span parse("cert.parse_certificate", "cert", op);
        parsed = hv::cert::parse_certificate(text);
        parse_s_.add(parse.seconds());
      }
      for (const auto& component : parsed.components) {
        for (const auto& property : component.properties) {
          for (const auto& schema : property.schemas) {
            if (schema.sat || !schema.proof) continue;
            ++unsat_schemas;
            leaves += farkas_leaves(*schema.proof);
          }
        }
      }
      Span call("cert.audit_certificate", "cert", op);
      hv::cert::AuditOptions options;
      options.jobs = 2;
      audit = hv::cert::audit_certificate(parsed, options);
      audit_s_.add(call.seconds());
    }
    const double audit_seconds = std::chrono::duration<double>(Clock::now() - audit_start).count();
    audit_total_s_.add(audit_seconds);
    verdict_s_.add(certify_seconds + audit_seconds);

    if (!audit.ok) {
      errors.push_back("audit FAILED: " +
                       (audit.issues.empty() ? std::string("no issue listed") : audit.issues[0]));
    }
    if (audit.farkas_nodes != leaves) {
      errors.push_back("audit checked " + std::to_string(audit.farkas_nodes) +
                       " Farkas leaves, the certificate holds " + std::to_string(leaves));
    }
    if (audit.schemas_covered != unsat_schemas) {
      errors.push_back("audit covered " + std::to_string(audit.schemas_covered) +
                       " refuted schemas, the certificate holds " + std::to_string(unsat_schemas));
    }
    const std::size_t digest = std::hash<std::string>{}(text);
    if (bytes_ == 0) {
      bytes_ = static_cast<std::int64_t>(text.size());
      digest_ = digest;
    } else if (digest != digest_ || static_cast<std::int64_t>(text.size()) != bytes_) {
      errors.push_back("certificate text differs between operations");
    }
    audit_ = audit;
    tally.record(errors);
  }

  Samples glue_s_, emit_s_, serialise_s_, parse_s_, audit_s_, certify_s_, audit_total_s_;
  std::int64_t bytes_ = 0;
  std::size_t digest_ = 0;
  hv::cert::AuditReport audit_;
};

// --- naive ----------------------------------------------------------------------

class Naive final : public ModelWorkload {
 public:
  std::string verdict_name() const override { return "naive_inv1_s"; }

  void set_up() override {
    set_up_models({"models/naive_consensus.ta"}, [this] {
      ta_ = hv::models::naive_consensus_one_round();
      for (hv::spec::Property& property : hv::models::naive_table2_properties(ta_)) {
        if (property.name == "Inv1_0") property_ = std::move(property);
      }
      if (property_.name != "Inv1_0") throw hv::Error("naive model has no Inv1_0");
    });
  }

  // One Inv1_0 check costs most of the measuring pass; the first measured
  // check sets the reference counts.
  void warm_up(Tally&) override {}

  void measure(double seconds, Tally& tally) override {
    property_s_.clear();
    run_for(seconds, [&] { one(tally); });
  }

  void end_to_end(MetricMap& metrics, std::vector<Line>& lines) const override {
    put_verdict(metrics, lines, "checks");
  }

  void per_layer(MetricMap& metrics) const override { put_checker(metrics); }

 private:
  void one(Tally& tally) {
    const std::int64_t op = next_op_++;
    std::vector<std::string> errors;
    PropertyResult result;
    double seconds = 0.0;
    {
      Span call("checker.check_property Inv1_0", "checker", op);
      hv::checker::CheckOptions options;
      // A hang degrades to unknown (a failed operation) before the
      // benchmark's own time limit.
      options.timeout_seconds = 120.0;
      result = hv::checker::check_property(ta_, property_, options);
      seconds = call.seconds();
    }
    record_smt(Clock::now(), static_cast<double>(result.simplex_pivots),
               static_cast<double>(result.rational_fast_ops),
               static_cast<double>(result.rational_big_ops));
    if (result.verdict != Verdict::kHolds) {
      errors.push_back("Inv1_0 is " + hv::checker::to_string(result.verdict) + ": " + result.note);
    }
    Work work;
    work.add(result);
    check_counts(work, errors);
    verdict_s_.add(seconds);
    property_s_.add(result.seconds);
    tally.record(errors);
  }

  hv::ta::ThresholdAutomaton ta_{"unset"};
  hv::spec::Property property_;
};

}  // namespace

std::unique_ptr<Workload> make_redbelly(const Settings&) { return std::make_unique<Redbelly>(); }
std::unique_ptr<Workload> make_certify_audit(const Settings&) {
  return std::make_unique<CertifyAudit>();
}
std::unique_ptr<Workload> make_naive(const Settings&) { return std::make_unique<Naive>(); }

}  // namespace perfbench

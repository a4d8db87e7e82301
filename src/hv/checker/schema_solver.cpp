#include "hv/checker/schema_solver.h"

#include <algorithm>

#include "hv/util/error.h"

namespace hv::checker {

SchemaSolver::SchemaSolver(const GuardAnalysis& analysis, const spec::Property& property,
                           const CheckOptions& options, SolveHooks hooks)
    : analysis_(analysis),
      property_(property),
      options_(options),
      hooks_(hooks),
      mode_(options.certify ? EncoderMode::kCertify : EncoderMode::kSolve),
      encoders_(property.queries.size()) {}

SchemaSolver::~SchemaSolver() = default;

EncodeResult SchemaSolver::attempt(std::size_t query_index, const Schema& schema,
                                   const QueryCone* cone, double remaining_seconds,
                                   bool incremental) {
  const spec::ReachQuery& query = property_.queries[query_index];
  const Stopwatch schema_watch;
  if (hooks_.injector != nullptr) hooks_.injector->before_solve();
  // Schema wall-clock watchdog: an attempt that stalls before reaching the
  // solver (injected stall, pathological setup) is caught here; once
  // solving, the solver's own deadline polling enforces the rest.
  if (options_.schema_timeout_seconds > 0.0 &&
      schema_watch.seconds() > options_.schema_timeout_seconds) {
    throw Error("checker: schema watchdog cancelled a stalled attempt");
  }
  double budget = remaining_seconds;
  if (options_.schema_timeout_seconds > 0.0) {
    double left = options_.schema_timeout_seconds - schema_watch.seconds();
    left = std::max(left, 0.001);
    budget = budget > 0.0 ? std::min(budget, left) : left;
  }
  if (incremental) {
    // Poll the soft RSS budget on a stride: the first attempt always, then
    // every 16th. A trip can lag by at most 15 schemas, which a *soft*
    // budget tolerates.
    if (options_.memory_budget_mb > 0 && hooks_.memory_polls != nullptr &&
        hooks_.memory_polls->fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
      const std::int64_t rss = current_rss_bytes();
      if (rss > options_.memory_budget_mb * 1024 * 1024) {
        throw Error("checker: memory budget exceeded (rss " +
                    std::to_string(rss / (1024 * 1024)) + " MB > " +
                    std::to_string(options_.memory_budget_mb) + " MB)");
      }
    }
    auto& slot = encoders_[query_index];
    if (!slot) {
      smt::LemmaPool* lemmas = nullptr;
      if (hooks_.learning != nullptr && lemmas_enabled(options_)) {
        lemmas = &hooks_.learning->queries[query_index].lemmas;
      }
      slot = std::make_unique<IncrementalSchemaEncoder>(
          analysis_, query, options_.branch_budget, cone, mode_, lemmas);
    }
    slot->set_time_budget(budget);
    slot->set_pivot_budget(options_.pivot_budget);
    slot->set_cancel_flag(options_.cancel);
    return slot->check(schema);
  }
  return solve_schema(analysis_, schema, query, options_.branch_budget, cone, budget, mode_,
                      options_.pivot_budget, options_.cancel);
}

void SchemaSolver::retire(std::size_t query_index) {
  auto& slot = encoders_[query_index];
  if (!slot) return;
  retired_ += slot->stats();
  slot.reset();
}

SchemaRecord SchemaSolver::settle(std::size_t query_index, const Schema& schema,
                                  const QueryCone* cone, double remaining_seconds) {
  SchemaRecord record;
  PropertyLearning* learning = hooks_.learning;
  if (learning != nullptr && learning->queries[query_index].cuts.covers(schema.unlock_order)) {
    record.kind = SchemaRecord::Kind::kCut;
    return record;
  }
  if (cone != nullptr && !cone->schema_feasible(schema)) {
    record.kind = SchemaRecord::Kind::kPruned;
    return record;
  }
  record = solve(query_index, schema, cone, remaining_seconds);
  // Core-based subtree cut: the refutation only referenced constraints of
  // the first `cut` chain elements, so every schema whose unlock order
  // extends that prefix (any cut placement) is unsat too. The record keeps
  // the cut only if it is new, so it rides on exactly one unsat journal
  // line: a kill never persists the verdict without the cut or vice versa.
  const std::int64_t depth = record.cut;
  record.cut = -1;
  if (learning != nullptr && depth >= 0 &&
      depth <= static_cast<std::int64_t>(schema.unlock_order.size()) &&
      learning->queries[query_index].cuts.add(std::vector<int>(
          schema.unlock_order.begin(), schema.unlock_order.begin() + depth))) {
    record.cut = depth;
  }
  return record;
}

SchemaRecord SchemaSolver::solve(std::size_t query_index, const Schema& schema,
                                const QueryCone* cone, double remaining_seconds) {
  // A non-positive remaining budget would disable the solver deadline;
  // clamp it so a unit started at the deadline still aborts promptly.
  if (options_.timeout_seconds > 0.0 && remaining_seconds <= 0.0) {
    remaining_seconds = 0.01;
  }
  SchemaRecord outcome;

  // True iff the failure is a run-level event (cancel, global timeout) that
  // must not be retried or recorded against the schema.
  const auto fatal_interrupt = [&]() -> bool {
    if (options_.cancel != nullptr && options_.cancel->load(std::memory_order_relaxed)) {
      outcome.kind = SchemaRecord::Kind::kInterrupted;
      outcome.note = "cancelled";
      return true;
    }
    if (options_.timeout_seconds > 0.0 && hooks_.run_watch != nullptr &&
        hooks_.run_watch->seconds() > options_.timeout_seconds) {
      outcome.kind = SchemaRecord::Kind::kInterrupted;
      outcome.note = "timeout";
      return true;
    }
    return false;
  };

  // One attempt; false on a contained failure, which `failure` names. A
  // WorkerAbortFault escapes to the handler below.
  EncodeResult result;
  std::string failure;
  const auto try_attempt = [&](bool incremental) {
    try {
      result = attempt(query_index, schema, cone, remaining_seconds, incremental);
      return true;
    } catch (const Error& error) {
      failure = error.what();
    } catch (const std::bad_alloc&) {
      failure = "allocation failure (std::bad_alloc)";
    }
    return false;
  };
  bool solved = false;
  try {
    solved = try_attempt(options_.incremental);
    if (!solved) {
      // The throw poisoned any incremental encoder; fold its stats and drop
      // it (also the release valve of the memory budget).
      retire(query_index);
      if (fatal_interrupt()) return outcome;
      if (options_.retry_fresh) {
        outcome.retries = 1;
        solved = try_attempt(false);
        if (!solved && fatal_interrupt()) return outcome;
      }
    }
  } catch (const WorkerAbortFault&) {
    retire(query_index);
    outcome.kind = SchemaRecord::Kind::kAborted;
    outcome.note = "worker aborted mid-schema";
    return outcome;
  }
  if (!solved) {
    // Retry ladder exhausted: the unit degrades to a recorded unknown.
    outcome.kind = SchemaRecord::Kind::kUnknown;
    outcome.note = failure;
    return outcome;
  }

  outcome.length = result.length;
  outcome.pivots = result.pivots;
  outcome.fast_ops = result.rational_fast_ops;
  outcome.big_ops = result.rational_big_ops;
  outcome.hits = result.lemma_hits;
  outcome.learned = result.lemmas_learned;
  outcome.decisions = result.decisions;
  outcome.backjumps = result.backjumps;
  outcome.proof = result.proof;
  outcome.model = result.model_values;
  if (!result.sat) {
    outcome.kind = SchemaRecord::Kind::kUnsat;
    outcome.cut = result.cut_prefix;
    return outcome;
  }
  outcome.kind = SchemaRecord::Kind::kSat;
  const spec::ReachQuery& query = property_.queries[query_index];
  result.counterexample->property = property_.name;
  if (options_.validate_counterexamples) {
    outcome.validation_error =
        validate_counterexample(analysis_.automaton(), *result.counterexample, query);
    if (!outcome.validation_error.empty()) {
      outcome.counterexample = std::move(*result.counterexample);
      return outcome;
    }
  }
  if (options_.minimize_counterexamples) {
    *result.counterexample =
        minimize_counterexample(analysis_.automaton(), *result.counterexample, query);
  }
  outcome.counterexample = std::move(*result.counterexample);
  return outcome;
}

IncrementalStats SchemaSolver::stats() const {
  IncrementalStats total = retired_;
  for (const auto& encoder : encoders_) {
    if (encoder) total += encoder->stats();
  }
  return total;
}

}  // namespace hv::checker

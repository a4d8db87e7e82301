#include "hv/checker/parameterized.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "hv/checker/guard_analysis.h"
#include "hv/checker/schema_solver.h"
#include "hv/util/error.h"
#include "hv/util/rational.h"
#include "hv/util/stopwatch.h"

namespace hv::checker {

namespace {

// Shared state of one property run; the workers communicate through it.
struct RunState {
  std::atomic<bool> stop{false};  // no worker claims or visits anything more
  std::atomic<bool> timed_out{false};
  std::atomic<bool> budget_exhausted{false};
  std::atomic<bool> interrupted{false};
  std::atomic<std::int64_t> schemas_enumerated{0};  // admitted under the budget
  // Counts incremental attempts so the soft memory budget can poll RSS on a
  // stride (reading /proc per attempt is measurable on schema-heavy runs).
  std::atomic<std::int64_t> memory_polls{0};

  std::mutex mutex;  // guards everything below
  // Each worker counts into its own tally and folds it in when it retires.
  SchemaTally tally;
  IncrementalStats incremental;
  std::int64_t workers_aborted = 0;
  std::exception_ptr failure;  // an unexpected exception from a worker
  // First witness and first notes win. Certificate material arrives in
  // worker-interleaved order — the auditor's coverage check is set-based.
  Settlement settlement;
};

}  // namespace

bool lemmas_enabled(const CheckOptions& options) {
  if (!options.lemmas || !options.incremental) return false;
  const char* value = std::getenv("HV_NO_LEMMAS");
  return value == nullptr || value[0] == '\0' || std::string_view(value) == "0";
}

PropertyResult check_property(const ta::ThresholdAutomaton& ta, const spec::Property& property,
                              const CheckOptions& options_in) {
  CheckOptions options = options_in;
  // Proofs cite atoms/clauses by index in the incremental encoding; the
  // one-shot path asserts the same set in a different order, so certifying
  // runs always ride the incremental encoders (verdict-identical either
  // way, and the auditor re-encodes incrementally).
  if (options.certify) options.incremental = true;
  if (options.certify && !options.resume_path.empty()) {
    throw InvalidArgument(
        "checker: resume is incompatible with certify (resumed schemas carry no proofs)");
  }
  const Stopwatch stopwatch;

  FaultInjector injector(options.fault);
  const bool need_identity = !options.resume_path.empty() || !options.journal_path.empty();
  const std::string model_hash = need_identity ? model_content_hash(ta) : std::string();
  std::optional<ResumeState> resume;
  if (!options.resume_path.empty()) {
    resume = load_journal(options.resume_path);
    require_resume_compatible(*resume, ta.name(), model_hash, options.journal_node);
  }
  std::unique_ptr<ProgressJournal> journal;
  if (!options.journal_path.empty()) {
    JournalHeader header(ta.name(), model_hash);
    header.node = options.journal_node;
    journal = std::make_unique<ProgressJournal>(options.journal_path, header,
                                                options.journal_flush_batch);
  }
  // Re-append resumed records iff they come from a different file than the
  // one being written (same-file resume already holds them).
  const bool copy_resumed = journal != nullptr && options.journal_path != options.resume_path;
  const bool need_cursor = journal != nullptr || resume.has_value();

  const GuardAnalysis analysis(ta);
  // deque: QueryCone is immovable (it owns a mutex) and references must
  // stay stable while workers use them.
  std::deque<QueryCone> cones;
  for (const spec::ReachQuery& query : property.queries) cones.emplace_back(analysis, query);
  const auto cone_for = [&](std::size_t query) -> const QueryCone* {
    return options.property_directed_pruning ? &cones[query] : nullptr;
  };
  RunState state;

  const auto out_of_time = [&] {
    return options.timeout_seconds > 0.0 && stopwatch.seconds() > options.timeout_seconds;
  };
  const auto remaining_time = [&] {
    return options.timeout_seconds > 0.0 ? options.timeout_seconds - stopwatch.seconds() : 0.0;
  };
  const auto cancelled = [&] {
    return options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed);
  };

  SolveHooks hooks;
  hooks.run_watch = &stopwatch;
  hooks.injector = &injector;
  hooks.memory_polls = &state.memory_polls;

  // Cross-schema learning state shared by every worker of this run: one
  // lemma pool and one subtree-cut index per query.
  std::optional<PropertyLearning> learning;
  if (lemmas_enabled(options)) learning.emplace(property.queries.size());
  PropertyLearning* learn = learning ? &*learning : nullptr;
  hooks.learning = learn;

  // Replay journaled subtree cuts before solving anything: a resumed run
  // skips the same subtrees the interrupted run proved infeasible instead of
  // re-deriving the refutations.
  if (learn != nullptr && resume) {
    for (const auto& [key, record] : resume->settled) {
      if (record.verdict != "unsat" || record.cut < 0 || record.property != property.name) {
        continue;
      }
      std::size_t q = 0;
      Schema schema;
      if (!parse_schema_cursor(record.cursor, &q, &schema) ||
          q >= property.queries.size() ||
          record.cut > static_cast<std::int64_t>(schema.unlock_order.size())) {
        continue;
      }
      schema.unlock_order.resize(static_cast<std::size_t>(record.cut));
      learn->queries[q].cuts.add(schema.unlock_order);
    }
  }

  // The work is a fixed list of (query, subtree) units, numbered in
  // enumerate_schemas' DFS order (query-major). Each worker claims the next
  // unit and expands it locally, so its consecutive schemas share chain
  // prefixes and its persistent encoders mostly pop and re-push only the
  // deepest scopes; one worker settles every schema in enumeration order.
  const int workers = std::max(1, options.workers);
  const std::vector<SubtreeTask> subtrees =
      plan_subtrees(analysis, workers, options.enumeration);
  const std::size_t unit_count = property.queries.size() * subtrees.size();
  std::atomic<std::size_t> next_unit{0};
  // The schema budget counts admitted schemas across all workers, so it is
  // stripped from the per-unit enumeration.
  EnumerationOptions per_unit = options.enumeration;
  per_unit.max_schemas = std::numeric_limits<std::int64_t>::max();
  const auto admit = [&] {
    std::int64_t admitted = state.schemas_enumerated.load();
    do {
      if (admitted >= options.enumeration.max_schemas) return false;
    } while (!state.schemas_enumerated.compare_exchange_weak(admitted, admitted + 1));
    return true;
  };

  const auto halt = [&](std::atomic<bool>& reason) {
    reason.store(true);
    state.stop.store(true);
    return false;
  };
  // One schema: cancellation, deadline and budget first (each stops the
  // run), then a resumed verdict or the shared settle step, then the record
  // goes to the worker's tally, the journal and the shared settlement. False
  // ends the unit.
  const auto visit = [&](SchemaSolver& solver, SchemaTally& tally, std::size_t q,
                         const Schema& schema) {
    if (state.stop.load()) return false;
    if (cancelled()) return halt(state.interrupted);
    if (out_of_time()) return halt(state.timed_out);
    if (!admit()) return halt(state.budget_exhausted);
    if (options.progress != nullptr) {
      options.progress->enumerated.fetch_add(1, std::memory_order_relaxed);
    }
    const std::string cursor = need_cursor ? schema_cursor(q, schema) : std::string();
    // Resume replays a journaled verdict instead of solving; sat records are
    // re-solved (the counterexample itself is not journaled).
    const JournalRecord* line = resume ? resume->find(property.name, cursor) : nullptr;
    const bool replay = line != nullptr && line->verdict != "sat";
    const SchemaRecord record = replay ? resumed_record(*line)
                                       : solver.settle(q, schema, cone_for(q), remaining_time());
    tally.add(record);
    publish(options.progress, record);
    if (record.kind == SchemaRecord::Kind::kInterrupted) {
      if (record.note == "cancelled") return halt(state.interrupted);
      state.timed_out.store(true);
      return !state.stop.load();
    }
    if (!replay || copy_resumed) journal_record(journal.get(), property.name, cursor, record);
    if (Settlement::touches(record, options.certify)) {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (state.settlement.absorb(q, schema, record, options.certify)) state.stop.store(true);
    }
    if (record.kind == SchemaRecord::Kind::kAborted) throw WorkerAbortFault{};
    return !state.stop.load();
  };
  const auto work = [&] {
    SchemaSolver solver(analysis, property, options, hooks);
    SchemaTally tally;
    std::int64_t aborted = 0;
    try {
      for (std::size_t unit = next_unit++; unit < unit_count && !state.stop.load();
           unit = next_unit++) {
        const std::size_t q = unit / subtrees.size();
        enumerate_schemas_under(
            analysis, subtrees[unit % subtrees.size()],
            static_cast<int>(property.queries[q].cuts.size()), per_unit,
            [&](const Schema& schema) { return visit(solver, tally, q, schema); });
      }
    } catch (const WorkerAbortFault&) {
      // Contained: this worker retires; the others keep claiming units.
      aborted = 1;
    } catch (...) {
      // Anything else stops the run and reaches the caller once every
      // worker has joined.
      std::lock_guard<std::mutex> lock(state.mutex);
      if (!state.failure) state.failure = std::current_exception();
      state.stop.store(true);
    }
    std::lock_guard<std::mutex> lock(state.mutex);
    state.tally += tally;
    state.incremental += solver.stats();
    state.workers_aborted += aborted;
  };
  {
    // The calling thread is worker 0.
    std::vector<std::jthread> helpers;
    for (int w = 1; w < workers; ++w) helpers.emplace_back(work);
    work();
  }
  if (state.failure) std::rethrow_exception(state.failure);
  if (cancelled()) state.interrupted.store(true);
  if (journal) journal->flush();

  RunEnd end;
  end.enumerated = state.schemas_enumerated.load();
  end.seconds = stopwatch.seconds();
  end.interrupted = state.interrupted.load();
  end.timed_out = state.timed_out.load();
  end.budget_exhausted = state.budget_exhausted.load();
  end.workers_aborted = state.workers_aborted;
  end.incremental = state.incremental;
  return build_result(property.name, state.tally, std::move(state.settlement), end, options,
                      learn);
}

PropertyResult check_property(const ta::MultiRoundTa& ta, const spec::Property& property,
                              const CheckOptions& options) {
  return check_property(ta.one_round_reduction(), property, options);
}

std::vector<PropertyResult> check_properties(const ta::ThresholdAutomaton& ta,
                                             const std::vector<spec::Property>& properties,
                                             const CheckOptions& options) {
  std::vector<PropertyResult> results;
  results.reserve(properties.size());
  for (const spec::Property& property : properties) {
    results.push_back(check_property(ta, property, options));
    if (options.progress != nullptr) {
      options.progress->properties_done.fetch_add(1, std::memory_order_relaxed);
    }
    // A SIGINT/SIGTERM'd run reports what it has instead of starting the
    // next property.
    if (results.back().interrupted) break;
  }
  return results;
}

std::string options_fingerprint(const CheckOptions& options) {
  std::string fp;
  const auto field = [&](const char* key, const std::string& value) {
    fp += key;
    fp += '=';
    fp += value;
    fp += ';';
  };
  const auto num = [&](const char* key, std::int64_t value) {
    field(key, std::to_string(value));
  };
  const auto flag = [&](const char* key, bool value) { field(key, value ? "1" : "0"); };
  num("max_schemas", options.enumeration.max_schemas);
  flag("prune_implications", options.enumeration.prune_implications);
  flag("prune_dead_unlocks", options.enumeration.prune_dead_unlocks);
  field("timeout", std::to_string(options.timeout_seconds));
  num("workers", options.workers);
  num("branch_budget", options.branch_budget);
  flag("incremental", options.incremental);
  flag("pdp", options.property_directed_pruning);
  flag("validate", options.validate_counterexamples);
  flag("minimize", options.minimize_counterexamples);
  flag("certify", options.certify);
  // The *effective* mode, not the raw switch: folds incremental/certify
  // interactions and HV_NO_LEMMAS, so env-only changes get their own key.
  flag("lemmas", lemmas_enabled(options));
  field("schema_timeout", std::to_string(options.schema_timeout_seconds));
  num("pivot_budget", options.pivot_budget);
  num("memory_budget_mb", options.memory_budget_mb);
  flag("retry_fresh", options.retry_fresh);
  flag("fast_rational", Rational::fast_path_enabled());
  if (options.fault.armed()) {
    num("fault_kind", static_cast<std::int64_t>(options.fault.kind));
    num("fault_at", options.fault.at);
    num("fault_every", options.fault.every);
    field("fault_stall", std::to_string(options.fault.stall_seconds));
  }
  return fp;
}

}  // namespace hv::checker

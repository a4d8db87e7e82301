#include "hv/checker/parameterized.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>
#include <thread>
#include <utility>

#include "hv/checker/cone.h"
#include "hv/checker/encoder.h"
#include "hv/checker/guard_analysis.h"
#include "hv/checker/journal.h"
#include "hv/checker/learning.h"
#include "hv/checker/schema_solver.h"
#include "hv/util/error.h"
#include "hv/util/rational.h"
#include "hv/util/stopwatch.h"

namespace hv::checker {

namespace {

// Shared state of one property run; the workers communicate through it.
struct RunState {
  std::mutex mutex;
  std::atomic<bool> stop{false};  // no worker claims or visits anything more
  std::atomic<bool> timed_out{false};
  std::atomic<bool> budget_exhausted{false};
  std::atomic<bool> interrupted{false};
  std::atomic<std::int64_t> schemas_enumerated{0};  // admitted under the budget
  std::atomic<std::int64_t> schemas_checked{0};
  std::atomic<std::int64_t> schemas_pruned{0};
  std::atomic<std::int64_t> schemas_cut{0};
  std::atomic<std::int64_t> lemma_hits{0};
  std::atomic<std::int64_t> lemmas_learned{0};
  std::atomic<std::int64_t> decisions{0};
  std::atomic<std::int64_t> backjumps{0};
  std::atomic<std::int64_t> schemas_unknown{0};
  std::atomic<std::int64_t> schemas_resumed{0};
  std::atomic<std::int64_t> retries{0};
  std::atomic<std::int64_t> workers_aborted{0};
  std::atomic<std::int64_t> total_length{0};
  std::atomic<std::int64_t> simplex_pivots{0};
  std::atomic<std::int64_t> rational_fast_ops{0};
  std::atomic<std::int64_t> rational_big_ops{0};
  // Counts incremental attempts so the soft memory budget can poll RSS on a
  // stride (reading /proc per attempt is measurable on schema-heavy runs).
  std::atomic<std::int64_t> memory_polls{0};

  // First failure wins; guarded by mutex.
  std::optional<Counterexample> counterexample;
  std::exception_ptr failure;  // an unexpected exception from a worker
  std::string error_note;    // fatal (stops the run): replay validation only
  std::string degrade_note;  // first schema degraded to unknown
  // Aggregated when workers retire their encoders; guarded by mutex.
  IncrementalStats incremental;
  // Certificate raw material (certify mode); guarded by mutex. Order is
  // worker-interleaved — the auditor's coverage check is set-based.
  std::vector<SchemaEvidence> evidence;
  std::vector<PrunedSchema> pruned_schemas;
  std::vector<CutEvidence> cuts;
};

// Run-wide fault-tolerance plumbing, shared read-only across workers
// (the journal is internally synchronized).
struct RunContext {
  ProgressJournal* journal = nullptr;
  const ResumeState* resume = nullptr;
  // Re-append resumed records iff they come from a different file than the
  // one being written (same-file resume already holds them).
  bool copy_resumed = false;
  // Live observer counters (CheckOptions::progress); null when nobody is
  // watching.
  ProgressCounters* progress = nullptr;
};

void bump(std::atomic<std::int64_t> ProgressCounters::* counter, const RunContext& ctx) {
  if (ctx.progress != nullptr) (ctx.progress->*counter).fetch_add(1, std::memory_order_relaxed);
}

void accumulate(IncrementalStats& into, const IncrementalStats& from) {
  into.segments_pushed += from.segments_pushed;
  into.segments_popped += from.segments_popped;
  into.segments_reused += from.segments_reused;
  into.schemas_encoded += from.schemas_encoded;
}

void journal_append(const RunContext& ctx, const std::string& property,
                    const std::string& cursor, const char* verdict, std::int64_t length = 0,
                    std::int64_t pivots = 0, const std::string& note = {},
                    std::int64_t cut = -1) {
  if (ctx.journal == nullptr) return;
  JournalRecord record;
  record.property = property;
  record.cursor = cursor;
  record.verdict = verdict;
  record.length = length;
  record.pivots = pivots;
  record.cut = cut;
  record.note = note;
  ctx.journal->append(record);
}

std::string format_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", seconds);
  return buffer;
}

// Settles one schema through the shared SchemaSolver retry ladder
// (schema_solver.h) and applies its outcome to the run: statistics, journal,
// certificate evidence, counterexample selection. Throws WorkerAbortFault on
// an injected worker death so the caller retires that worker.
void settle_unit(SchemaSolver& solver, const spec::Property& property,
                 std::size_t query_index, const Schema& schema, const std::string& cursor,
                 const CheckOptions& options, const QueryCone* cone, double remaining_seconds,
                 RunState& state, const RunContext& ctx, PropertyLearning* learning) {
  UnitOutcome outcome = solver.solve(query_index, schema, cone, remaining_seconds);
  if (outcome.retries > 0) state.retries.fetch_add(outcome.retries);
  state.lemma_hits.fetch_add(outcome.lemma_hits);
  state.lemmas_learned.fetch_add(outcome.lemmas_learned);
  state.decisions.fetch_add(outcome.decisions);
  state.backjumps.fetch_add(outcome.backjumps);
  switch (outcome.kind) {
    case UnitOutcome::Kind::kAborted: {
      state.schemas_unknown.fetch_add(1);
      bump(&ProgressCounters::unknown, ctx);
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        if (state.degrade_note.empty()) state.degrade_note = outcome.note;
      }
      journal_append(ctx, property.name, cursor, "unknown", 0, 0, outcome.note);
      throw WorkerAbortFault{};
    }
    case UnitOutcome::Kind::kInterrupted: {
      if (outcome.note == "cancelled") {
        state.interrupted.store(true);
        state.stop.store(true);
      } else {
        state.timed_out.store(true);
      }
      return;
    }
    case UnitOutcome::Kind::kUnknown: {
      // Retry ladder exhausted: record the schema as unknown and keep going.
      state.schemas_unknown.fetch_add(1);
      bump(&ProgressCounters::unknown, ctx);
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        if (state.degrade_note.empty()) {
          state.degrade_note = "schema degraded to unknown: " + outcome.note;
        }
      }
      journal_append(ctx, property.name, cursor, "unknown", 0, 0, outcome.note);
      return;
    }
    case UnitOutcome::Kind::kUnsat:
    case UnitOutcome::Kind::kSat:
      break;
  }

  const bool sat = outcome.kind == UnitOutcome::Kind::kSat;
  state.schemas_checked.fetch_add(1);
  bump(&ProgressCounters::solved, ctx);
  state.total_length.fetch_add(outcome.length);
  state.simplex_pivots.fetch_add(outcome.pivots);
  state.rational_fast_ops.fetch_add(outcome.rational_fast_ops);
  state.rational_big_ops.fetch_add(outcome.rational_big_ops);
  // Core-based subtree cut: the refutation only referenced constraints of
  // the first cut_prefix chain elements, so every schema whose unlock order
  // extends that prefix (any cut placement) is unsat too. The cut rides on
  // the unsat journal record itself so a kill can never persist the verdict
  // without the cut (or vice versa) and a resumed run replays the skip.
  std::int64_t cut_field = -1;
  if (!sat && learning != nullptr && outcome.cut_prefix >= 0 &&
      outcome.cut_prefix <= static_cast<int>(schema.unlock_order.size())) {
    std::vector<int> prefix(schema.unlock_order.begin(),
                            schema.unlock_order.begin() + outcome.cut_prefix);
    if (learning->queries[query_index].cuts.add(prefix)) cut_field = outcome.cut_prefix;
  }
  journal_append(ctx, property.name, cursor, sat ? "sat" : "unsat", outcome.length,
                 outcome.pivots, {}, cut_field);
  if (options.certify) {
    SchemaEvidence item;
    item.query_index = query_index;
    item.schema = schema;
    item.sat = sat;
    item.proof = outcome.proof;
    item.model = outcome.model;
    std::lock_guard<std::mutex> lock(state.mutex);
    state.evidence.push_back(std::move(item));
    if (cut_field >= 0) {
      // This schema's refutation is the cut's witness.
      state.cuts.push_back({query_index,
                            std::vector<int>(schema.unlock_order.begin(),
                                             schema.unlock_order.begin() + cut_field),
                            schema});
    }
  }
  if (!sat) return;
  if (!outcome.validation_error.empty()) {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (state.error_note.empty()) {
      state.error_note =
          "internal: counterexample failed replay validation: " + outcome.validation_error;
    }
    state.stop.store(true);
    return;
  }
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.counterexample) state.counterexample = std::move(*outcome.counterexample);
  state.stop.store(true);
}

// Resume fast path: when the journal settled this (property, schema), replay
// its verdict into the statistics and skip the solve. Sat records are
// re-solved (the counterexample itself is not journaled). Returns true iff
// the schema was settled here.
bool try_resume(const spec::Property& property, const std::string& cursor, RunState& state,
                const RunContext& ctx) {
  if (ctx.resume == nullptr) return false;
  const JournalRecord* record = ctx.resume->find(property.name, cursor);
  if (record == nullptr || record->verdict == "sat") return false;
  state.schemas_resumed.fetch_add(1);
  bump(&ProgressCounters::resumed, ctx);
  if (record->verdict == "unsat") {
    state.schemas_checked.fetch_add(1);
    state.total_length.fetch_add(record->length);
    state.simplex_pivots.fetch_add(record->pivots);
    bump(&ProgressCounters::solved, ctx);
  } else if (record->verdict == "pruned") {
    state.schemas_pruned.fetch_add(1);
    bump(&ProgressCounters::pruned, ctx);
  } else {  // "unknown"
    state.schemas_unknown.fetch_add(1);
    bump(&ProgressCounters::unknown, ctx);
    std::lock_guard<std::mutex> lock(state.mutex);
    if (state.degrade_note.empty()) {
      state.degrade_note = "schema degraded to unknown (resumed): " + record->note;
    }
  }
  if (ctx.copy_resumed) {
    journal_append(ctx, property.name, cursor, record->verdict.c_str(), record->length,
                   record->pivots, record->note, record->cut);
  }
  return true;
}

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
  PropertyResult result;
  result.property = property.name;

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
  RunContext ctx;
  ctx.journal = journal.get();
  ctx.resume = resume ? &*resume : nullptr;
  ctx.copy_resumed = journal != nullptr && options.journal_path != options.resume_path;
  ctx.progress = options.progress;
  const bool need_cursor = ctx.journal != nullptr || ctx.resume != nullptr;

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
  if (learn != nullptr && ctx.resume != nullptr) {
    for (const auto& [key, record] : ctx.resume->settled) {
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
  // run), then the resume, cut and cone short-cuts, then the solve. False
  // ends the unit.
  const auto visit = [&](SchemaSolver& solver, std::size_t q, const Schema& schema) {
    if (state.stop.load()) return false;
    if (cancelled()) return halt(state.interrupted);
    if (out_of_time()) return halt(state.timed_out);
    if (!admit()) return halt(state.budget_exhausted);
    bump(&ProgressCounters::enumerated, ctx);
    const std::string cursor = need_cursor ? schema_cursor(q, schema) : std::string();
    if (try_resume(property, cursor, state, ctx)) return true;
    if (learn != nullptr && learn->queries[q].cuts.covers(schema.unlock_order)) {
      state.schemas_cut.fetch_add(1);
      bump(&ProgressCounters::cut, ctx);
      return true;
    }
    if (options.property_directed_pruning && !cones[q].schema_feasible(schema)) {
      state.schemas_pruned.fetch_add(1);
      bump(&ProgressCounters::pruned, ctx);
      journal_append(ctx, property.name, cursor, "pruned");
      if (options.certify) {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.pruned_schemas.push_back({q, schema});
      }
      return true;
    }
    settle_unit(solver, property, q, schema, cursor, options, cone_for(q), remaining_time(),
                state, ctx, learn);
    return !state.stop.load();
  };
  const auto work = [&] {
    SchemaSolver solver(analysis, property, options, hooks);
    try {
      for (std::size_t unit = next_unit++; unit < unit_count && !state.stop.load();
           unit = next_unit++) {
        const std::size_t q = unit / subtrees.size();
        enumerate_schemas_under(analysis, subtrees[unit % subtrees.size()],
                                static_cast<int>(property.queries[q].cuts.size()), per_unit,
                                [&](const Schema& schema) { return visit(solver, q, schema); });
      }
    } catch (const WorkerAbortFault&) {
      // Contained: this worker retires; the others keep claiming units.
      state.workers_aborted.fetch_add(1);
    } catch (...) {
      // Anything else stops the run and reaches the caller once every
      // worker has joined.
      std::lock_guard<std::mutex> lock(state.mutex);
      if (!state.failure) state.failure = std::current_exception();
      state.stop.store(true);
    }
    std::lock_guard<std::mutex> lock(state.mutex);
    accumulate(state.incremental, solver.stats());
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

  result.schemas_checked = state.schemas_checked.load();
  result.schemas_pruned = state.schemas_pruned.load();
  result.schemas_cut = state.schemas_cut.load();
  result.lemma_hits = state.lemma_hits.load();
  result.lemmas_learned = state.lemmas_learned.load();
  result.decisions = state.decisions.load();
  result.backjumps = state.backjumps.load();
  result.schemas_unknown = state.schemas_unknown.load();
  result.schemas_resumed = state.schemas_resumed.load();
  result.retries = state.retries.load();
  result.interrupted = state.interrupted.load();
  result.avg_schema_length =
      result.schemas_checked == 0
          ? 0.0
          : static_cast<double>(state.total_length.load()) /
                static_cast<double>(result.schemas_checked);
  result.seconds = stopwatch.seconds();
  result.simplex_pivots = state.simplex_pivots.load();
  result.rational_fast_ops = state.rational_fast_ops.load();
  result.rational_big_ops = state.rational_big_ops.load();
  if (options.incremental) result.incremental = state.incremental;

  // Every kUnknown note carries the actual elapsed time and how far the run
  // got, so a stalled campaign is diagnosable from the Table-2 row alone.
  const auto progress = [&] {
    return " after " + format_seconds(result.seconds) + "s; solved " +
           std::to_string(result.schemas_checked) + "/" +
           std::to_string(state.schemas_enumerated.load()) + " enumerated schemas, " +
           std::to_string(result.schemas_pruned) + " pruned";
  };
  if (state.counterexample) {
    result.verdict = Verdict::kViolated;
    result.counterexample = std::move(state.counterexample);
  } else if (!state.error_note.empty()) {
    result.verdict = Verdict::kUnknown;
    result.note = state.error_note + progress();
  } else if (result.interrupted) {
    result.verdict = Verdict::kUnknown;
    result.note = "interrupted" + progress();
  } else if (state.timed_out.load()) {
    result.verdict = Verdict::kUnknown;
    result.note = "timeout (limit " + format_seconds(options.timeout_seconds) + "s)" + progress();
  } else if (state.budget_exhausted.load()) {
    result.verdict = Verdict::kUnknown;
    result.note = "schema budget exhausted (" +
                  std::to_string(options.enumeration.max_schemas) + ")" + progress();
  } else if (state.workers_aborted.load() > 0) {
    result.verdict = Verdict::kUnknown;
    result.note = std::to_string(state.workers_aborted.load()) + " worker(s) aborted" +
                  progress();
  } else if (result.schemas_unknown > 0) {
    result.verdict = Verdict::kUnknown;
    std::string degrade;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      degrade = state.degrade_note;
    }
    result.note = degrade + " (" + std::to_string(result.schemas_unknown) +
                  " schemas unknown)" + progress();
  } else {
    result.verdict = Verdict::kHolds;
  }
  if (options.certify) {
    auto evidence = std::make_shared<PropertyEvidence>();
    evidence->schemas = std::move(state.evidence);
    evidence->pruned = std::move(state.pruned_schemas);
    // Keep only the cuts the index still holds: a prefix a later, shorter
    // cut subsumed covers nothing the shorter one does not.
    std::vector<std::set<std::vector<int>>> live(property.queries.size());
    for (std::size_t q = 0; learn != nullptr && q < live.size(); ++q) {
      for (std::vector<int>& prefix : learn->queries[q].cuts.snapshot()) {
        live[q].insert(std::move(prefix));
      }
    }
    for (CutEvidence& cut : state.cuts) {
      if (live[cut.query_index].contains(cut.prefix)) evidence->cuts.push_back(std::move(cut));
    }
    evidence->enumeration = options.enumeration;
    evidence->property_directed_pruning = options.property_directed_pruning;
    // Only a holds verdict claims exhaustive coverage; violated stops at the
    // first witness and unknown certifies nothing.
    evidence->complete = result.verdict == Verdict::kHolds;
    result.evidence = std::move(evidence);
  }
  return result;
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

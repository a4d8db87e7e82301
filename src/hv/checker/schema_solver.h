// The shared settle step: every execution engine — the thread pool (one
// worker is the sequential checker), the coordinator's self-solve and spot
// checks, and the distributed worker process (hv/dist) — settles a
// (query, schema) unit through SchemaSolver::settle and nothing else:
//
//   1. a schema a learned subtree cut covers is settled as cut, one the
//      property-directed cone rules out as pruned, neither solved;
//   2. otherwise the first attempt runs on the persistent incremental
//      encoder (when enabled), under the per-schema watchdogs (wall-clock,
//      pivot budget, soft RSS);
//   3. a failed or cancelled attempt retires the poisoned encoder and is
//      retried once on a fresh non-incremental solver;
//   4. only then is the unit reported as unknown — the run continues.
//
// The result is a SchemaRecord (settle.h); counting, journaling and the
// verdict ladder are settle.h's too, so the callers only decide where a
// record goes. Run-level interrupts (external cancellation, global timeout)
// come back as kInterrupted, never retried and never charged against the
// schema.
#ifndef HV_CHECKER_SCHEMA_SOLVER_H
#define HV_CHECKER_SCHEMA_SOLVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "hv/checker/encoder.h"
#include "hv/checker/fault.h"
#include "hv/checker/schema.h"
#include "hv/checker/settle.h"
#include "hv/spec/query.h"
#include "hv/util/stopwatch.h"

namespace hv::checker {

/// Run-level services shared by all SchemaSolvers of one run. All pointees
/// must outlive the solver; null members disable the corresponding feature.
struct SolveHooks {
  /// Run stopwatch backing CheckOptions::timeout_seconds classification.
  const Stopwatch* run_watch = nullptr;
  /// Deterministic fault injection (internally synchronized).
  FaultInjector* injector = nullptr;
  /// Shared attempt counter striding the soft-RSS polls across workers.
  std::atomic<std::int64_t>* memory_polls = nullptr;
  /// Cross-schema learning state (per-query lemma pools + cut indexes);
  /// null disables learning regardless of CheckOptions::lemmas.
  PropertyLearning* learning = nullptr;
};

/// One worker's solving state: persistent incremental encoders (one per
/// query of the property) plus the retry ladder. Not thread-safe — each
/// worker owns one.
class SchemaSolver {
 public:
  /// `analysis`, `property`, `options` and `hooks` members must outlive the
  /// solver. Respects options.incremental / certify / watchdog settings the
  /// same way the in-process pool does.
  SchemaSolver(const GuardAnalysis& analysis, const spec::Property& property,
               const CheckOptions& options, SolveHooks hooks);
  ~SchemaSolver();
  SchemaSolver(const SchemaSolver&) = delete;
  SchemaSolver& operator=(const SchemaSolver&) = delete;

  /// Settles one unit: cut, then cone, then the retry ladder. `cone` may be
  /// null (pruning disabled); `remaining_seconds` is the run's remaining
  /// global budget (<= 0 with an armed timeout means "already at the
  /// deadline"). An unsat refutation's subtree cut enters the learning
  /// hooks, and the record carries it iff it is new. On Kind::kAborted the
  /// failing encoder's stats are already folded; the caller decides whether
  /// the worker dies (pool) or the process exits (dist).
  SchemaRecord settle(std::size_t query_index, const Schema& schema, const QueryCone* cone,
                      double remaining_seconds);

  /// Incremental-encoding counters accumulated so far: retired encoders plus
  /// the live ones. Call once when the worker finishes.
  IncrementalStats stats() const;

 private:
  SchemaRecord solve(std::size_t query_index, const Schema& schema, const QueryCone* cone,
                     double remaining_seconds);
  EncodeResult attempt(std::size_t query_index, const Schema& schema, const QueryCone* cone,
                       double remaining_seconds, bool incremental);
  void retire(std::size_t query_index);

  const GuardAnalysis& analysis_;
  const spec::Property& property_;
  const CheckOptions& options_;
  SolveHooks hooks_;
  EncoderMode mode_;
  std::vector<std::unique_ptr<IncrementalSchemaEncoder>> encoders_;
  IncrementalStats retired_;
};

}  // namespace hv::checker

#endif  // HV_CHECKER_SCHEMA_SOLVER_H

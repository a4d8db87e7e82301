// One settled schema, counted and turned into a verdict the same way by
// every execution path: the in-process thread pool (parameterized.cpp), the
// distributed coordinator's handlers and self-solve, and the fleet worker.
//
//   * SchemaSolver::settle (schema_solver.h) classifies one schema into a
//     SchemaRecord, which travels as a record/sat frame (dist/protocol.h)
//     and persists as a journal line (journal.h);
//   * SchemaTally counts records; subtract() exactly undoes add(), so a
//     spot-check revocation reverses a merge field for field;
//   * Settlement keeps the first-wins notes, the witness and the
//     certificate material; build_result holds the one verdict ladder.
#ifndef HV_CHECKER_SETTLE_H
#define HV_CHECKER_SETTLE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hv/checker/journal.h"
#include "hv/checker/learning.h"
#include "hv/checker/parameterized.h"
#include "hv/checker/result.h"

namespace hv::checker {

/// How one (query, schema) unit was settled, with its solver effort.
struct SchemaRecord {
  enum class Kind {
    kCut,          // covered by a learned subtree cut; not solved
    kPruned,       // statically infeasible (property-directed cone)
    kUnsat,        // the verdict the property wants
    kSat,          // a counterexample (validated, minimized)
    kUnknown,      // retry ladder exhausted; `note` says why
    kInterrupted,  // run-level cancel or global timeout; nothing settled
    kAborted,      // injected worker death; counted unknown, the worker dies
  };
  Kind kind = Kind::kUnknown;
  /// Replayed from a resume journal instead of settled by this run.
  bool resumed = false;
  std::int64_t length = 0;
  std::int64_t pivots = 0;
  /// Rational ops on the machine-word fast path vs. BigInt fallbacks.
  std::int64_t fast_ops = 0;
  std::int64_t big_ops = 0;
  std::int64_t retries = 0;  // fresh-solver retries (0 or 1)
  std::int64_t decisions = 0;
  std::int64_t backjumps = 0;
  std::int64_t hits = 0;     // lemma-pool hits
  std::int64_t learned = 0;  // lemmas banked
  /// kUnsat: the new subtree cut this refutation proves, as a prefix length
  /// of the unlock order (-1: none).
  std::int64_t cut = -1;
  /// kUnknown/kAborted: the failure; kInterrupted: "cancelled" or "timeout".
  std::string note;
  /// Certify mode: proof tree (kUnsat) / named integer model (kSat).
  std::shared_ptr<const smt::proof::Node> proof;
  std::shared_ptr<const std::vector<std::pair<std::string, BigInt>>> model;
  std::optional<Counterexample> counterexample;  // kSat
  /// kSat: non-empty iff the witness failed replay validation — an encoder
  /// bug the run must surface instead of the verdict.
  std::string validation_error;
};

/// Journal and wire name of a verdict: "pruned", "unsat", "sat" or
/// "unknown" (kAborted too); nullptr for kCut and kInterrupted, which are
/// never journaled.
const char* verdict_name(SchemaRecord::Kind kind);

/// A journal line replayed as a resumed record.
SchemaRecord resumed_record(const JournalRecord& line);

/// Appends `record` to `journal` (null: no journal). kCut and kInterrupted
/// leave no line; a cut rides on its unsat record.
void journal_record(ProgressJournal* journal, const std::string& property,
                    const std::string& cursor, const SchemaRecord& record);

/// Mirrors one record into live observer counters (null: nobody watching);
/// `sign` -1 takes it back out.
void publish(ProgressCounters* progress, const SchemaRecord& record, std::int64_t sign = 1);

/// Plain counters of a set of records.
struct SchemaTally {
  std::int64_t checked = 0;  // unsat + sat
  std::int64_t pruned = 0;
  std::int64_t cut = 0;
  std::int64_t unknown = 0;
  std::int64_t resumed = 0;
  std::int64_t retries = 0;
  std::int64_t hits = 0;
  std::int64_t learned = 0;
  std::int64_t decisions = 0;
  std::int64_t backjumps = 0;
  std::int64_t total_length = 0;
  std::int64_t pivots = 0;
  std::int64_t fast_ops = 0;
  std::int64_t big_ops = 0;

  void add(const SchemaRecord& record) { count(record, 1); }
  void subtract(const SchemaRecord& record) { count(record, -1); }
  SchemaTally& operator+=(const SchemaTally& other);
  /// Records that settled a verdict: checked + pruned + unknown.
  std::int64_t settled() const noexcept { return checked + pruned + unknown; }

 private:
  void count(const SchemaRecord& record, std::int64_t sign);
};

/// What a property's records leave beyond counters. Not synchronized:
/// callers serialize absorb().
struct Settlement {
  std::optional<Counterexample> counterexample;  // first valid witness
  std::string error_note;    // first witness that failed replay validation
  std::string degrade_note;  // first schema degraded to unknown
  // Certificate material (certify mode).
  std::vector<SchemaEvidence> evidence;
  std::vector<PrunedSchema> pruned;
  std::vector<CutEvidence> cuts;

  /// True iff absorb() can change anything for this record.
  static bool touches(const SchemaRecord& record, bool certify);
  /// Folds one record in. Returns true iff it is a witness (valid or not),
  /// which settles the property.
  bool absorb(std::size_t query_index, const Schema& schema, const SchemaRecord& record,
              bool certify);
};

/// How a property run ended beyond its records: the rest of the ladder.
struct RunEnd {
  /// Schemas admitted under the budget (in-process) or merged (fleet).
  std::int64_t enumerated = 0;
  double seconds = 0.0;
  bool interrupted = false;
  bool timed_out = false;
  bool budget_exhausted = false;
  std::int64_t workers_aborted = 0;
  bool incomplete = false;   // fleet: some lease never finished
  std::string disagreement;  // fleet: a spot check caught a worker lying
  IncrementalStats incremental;
};

/// The one PropertyResult assembly. Verdict ladder: counterexample, replay
/// validation error, interrupted, timeout, budget, aborted workers, unknown
/// schemas, incomplete coverage, else holds; every unknown note ends with
/// " after <seconds>s; solved …" progress. In certify mode the evidence
/// keeps only the cuts `learning` (if any) still holds.
PropertyResult build_result(const std::string& property, const SchemaTally& tally,
                            Settlement settlement, const RunEnd& end,
                            const CheckOptions& options, const PropertyLearning* learning);

/// "%.2f" — the seconds format of every note.
std::string format_seconds(double seconds);

}  // namespace hv::checker

#endif  // HV_CHECKER_SETTLE_H

#include "hv/checker/settle.h"

#include <cstdio>
#include <set>
#include <utility>

namespace hv::checker {

using Kind = SchemaRecord::Kind;

const char* verdict_name(Kind kind) {
  // Indexed by Kind: cut, pruned, unsat, sat, unknown, interrupted, aborted.
  static constexpr const char* kNames[] = {nullptr, "pruned", "unsat",  "sat",
                                           "unknown", nullptr, "unknown"};
  return kNames[static_cast<int>(kind)];
}

SchemaRecord resumed_record(const JournalRecord& line) {
  SchemaRecord record;
  record.kind = line.verdict == "unsat"    ? Kind::kUnsat
                : line.verdict == "pruned" ? Kind::kPruned
                : line.verdict == "sat"    ? Kind::kSat
                                           : Kind::kUnknown;
  record.resumed = true;
  record.length = line.length;
  record.pivots = line.pivots;
  record.cut = line.cut;
  record.note = line.note;
  return record;
}

void journal_record(ProgressJournal* journal, const std::string& property,
                    const std::string& cursor, const SchemaRecord& record) {
  const char* verdict = verdict_name(record.kind);
  if (journal == nullptr || verdict == nullptr) return;
  journal->append({property, cursor, verdict, record.length, record.pivots, record.cut,
                   record.note});
}

void publish(ProgressCounters* progress, const SchemaRecord& record, std::int64_t sign) {
  if (progress == nullptr) return;
  SchemaTally delta;
  delta.add(record);
  for (const auto& [counter, value] :
       {std::pair{&progress->solved, delta.checked}, {&progress->pruned, delta.pruned},
        {&progress->cut, delta.cut}, {&progress->unknown, delta.unknown},
        {&progress->resumed, delta.resumed}}) {
    if (value != 0) counter->fetch_add(sign * value, std::memory_order_relaxed);
  }
}

void SchemaTally::count(const SchemaRecord& record, std::int64_t sign) {
  retries += sign * record.retries;
  hits += sign * record.hits;
  learned += sign * record.learned;
  decisions += sign * record.decisions;
  backjumps += sign * record.backjumps;
  if (record.resumed) resumed += sign;
  switch (record.kind) {
    case Kind::kCut:
      cut += sign;
      break;
    case Kind::kPruned:
      pruned += sign;
      break;
    case Kind::kUnsat:
    case Kind::kSat:
      checked += sign;
      total_length += sign * record.length;
      pivots += sign * record.pivots;
      fast_ops += sign * record.fast_ops;
      big_ops += sign * record.big_ops;
      break;
    case Kind::kUnknown:
    case Kind::kAborted:
      unknown += sign;
      break;
    case Kind::kInterrupted:
      break;
  }
}

SchemaTally& SchemaTally::operator+=(const SchemaTally& other) {
  checked += other.checked;
  pruned += other.pruned;
  cut += other.cut;
  unknown += other.unknown;
  resumed += other.resumed;
  retries += other.retries;
  hits += other.hits;
  learned += other.learned;
  decisions += other.decisions;
  backjumps += other.backjumps;
  total_length += other.total_length;
  pivots += other.pivots;
  fast_ops += other.fast_ops;
  big_ops += other.big_ops;
  return *this;
}

bool Settlement::touches(const SchemaRecord& record, bool certify) {
  return record.kind == Kind::kSat || record.kind == Kind::kUnknown ||
         record.kind == Kind::kAborted ||
         (certify && (record.kind == Kind::kPruned || record.kind == Kind::kUnsat));
}

bool Settlement::absorb(std::size_t query_index, const Schema& schema,
                        const SchemaRecord& record, bool certify) {
  switch (record.kind) {
    case Kind::kCut:
    case Kind::kInterrupted:
      return false;
    case Kind::kAborted:
      if (degrade_note.empty()) degrade_note = record.note;
      return false;
    case Kind::kUnknown:
      if (degrade_note.empty()) {
        degrade_note = (record.resumed ? "schema degraded to unknown (resumed): "
                                       : "schema degraded to unknown: ") +
                       record.note;
      }
      return false;
    case Kind::kPruned:
      if (certify) pruned.push_back({query_index, schema});
      return false;
    case Kind::kUnsat:
    case Kind::kSat:
      break;
  }
  const bool sat = record.kind == Kind::kSat;
  if (certify) {
    evidence.push_back({query_index, schema, sat, record.proof, record.model});
    if (record.cut >= 0) {
      // This schema's refutation is the cut's witness.
      cuts.push_back({query_index,
                      std::vector<int>(schema.unlock_order.begin(),
                                       schema.unlock_order.begin() + record.cut),
                      schema});
    }
  }
  if (!sat) return false;
  if (!record.validation_error.empty()) {
    if (error_note.empty()) {
      error_note =
          "internal: counterexample failed replay validation: " + record.validation_error;
    }
  } else if (record.counterexample && !counterexample) {
    counterexample = record.counterexample;
  }
  return true;
}

std::string format_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", seconds);
  return buffer;
}

PropertyResult build_result(const std::string& property, const SchemaTally& tally,
                            Settlement settlement, const RunEnd& end,
                            const CheckOptions& options, const PropertyLearning* learning) {
  PropertyResult result;
  result.property = property;
  result.schemas_checked = tally.checked;
  result.schemas_pruned = tally.pruned;
  result.schemas_cut = tally.cut;
  result.lemma_hits = tally.hits;
  result.lemmas_learned = tally.learned;
  result.decisions = tally.decisions;
  result.backjumps = tally.backjumps;
  result.schemas_unknown = tally.unknown;
  result.schemas_resumed = tally.resumed;
  result.retries = tally.retries;
  result.interrupted = end.interrupted;
  result.avg_schema_length =
      tally.checked == 0
          ? 0.0
          : static_cast<double>(tally.total_length) / static_cast<double>(tally.checked);
  result.seconds = end.seconds;
  result.simplex_pivots = tally.pivots;
  result.rational_fast_ops = tally.fast_ops;
  result.rational_big_ops = tally.big_ops;
  if (options.incremental) result.incremental = end.incremental;

  // Every kUnknown note carries the actual elapsed time and how far the run
  // got, so a stalled campaign is diagnosable from the Table-2 row alone.
  const std::string progress = " after " + format_seconds(end.seconds) + "s; solved " +
                               std::to_string(tally.checked) + "/" +
                               std::to_string(end.enumerated) + " enumerated schemas, " +
                               std::to_string(tally.pruned) + " pruned";
  std::string unknown;
  if (settlement.counterexample) {
    result.verdict = Verdict::kViolated;
    result.counterexample = std::move(settlement.counterexample);
  } else if (!settlement.error_note.empty()) {
    unknown = settlement.error_note;
  } else if (end.interrupted) {
    unknown = "interrupted";
  } else if (end.timed_out) {
    unknown = "timeout (limit " + format_seconds(options.timeout_seconds) + "s)";
  } else if (end.budget_exhausted) {
    unknown =
        "schema budget exhausted (" + std::to_string(options.enumeration.max_schemas) + ")";
  } else if (end.workers_aborted > 0) {
    unknown = std::to_string(end.workers_aborted) + " worker(s) aborted";
  } else if (tally.unknown > 0) {
    unknown = settlement.degrade_note + " (" + std::to_string(tally.unknown) +
              " schemas unknown)";
  } else if (end.incomplete) {
    unknown = "run stopped before full coverage";
  } else {
    result.verdict = Verdict::kHolds;
  }
  if (!unknown.empty()) {
    result.verdict = Verdict::kUnknown;
    result.note = unknown + progress;
  }
  if (!end.disagreement.empty()) {
    result.note = result.note.empty() ? end.disagreement : result.note + "; " + end.disagreement;
  }
  if (options.certify) {
    auto evidence = std::make_shared<PropertyEvidence>();
    evidence->schemas = std::move(settlement.evidence);
    evidence->pruned = std::move(settlement.pruned);
    // Keep only the cuts the index still holds: a prefix a later, shorter
    // cut subsumed covers nothing the shorter one does not.
    std::vector<std::set<std::vector<int>>> live(learning ? learning->queries.size() : 0);
    for (std::size_t q = 0; q < live.size(); ++q) {
      for (std::vector<int>& prefix : learning->queries[q].cuts.snapshot()) {
        live[q].insert(std::move(prefix));
      }
    }
    for (CutEvidence& cut : settlement.cuts) {
      if (cut.query_index < live.size() && live[cut.query_index].contains(cut.prefix)) {
        evidence->cuts.push_back(std::move(cut));
      }
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

}  // namespace hv::checker

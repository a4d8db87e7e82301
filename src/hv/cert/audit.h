// The independent auditor: re-validates a certificate without running any
// solver.
//
// Trust boundary. The audited core is pure bigint/rational arithmetic
// (hv/util): every Farkas combination is re-derived premise by premise and
// checked to cancel to a contradictory constant, every case split is
// checked exhaustive, and every sat model is evaluated against the
// re-encoded constraints. The auditor does re-run the *deterministic,
// solver-free* front end to know what the premises are — the .ta parser,
// the LTL compiler, schema enumeration and the trace-mode encoder (which
// records assertions but never solves) — plus the guard analysis backing
// enumeration. Those components are shared with the checker and are trusted
// analysis; the simplex core, the DPLL search and branch-and-bound — where
// verification effort is actually spent and where a soundness bug would
// hide — are entirely out of the audit path.
//
// Learned facts. A lemma-hit schema carries the pooled Farkas leaf as its
// proof; it is audited like any other proof, against that schema's own
// re-encoding. A subtree cut (query, prefix, witness) is accepted only if
// the witness is a covered unsat schema whose proof audits green, the
// witness chain starts with the prefix, the witness's first cut segment is
// not inside the prefix, and every constraint premise (constant-false ones
// included, at the shallowest depth asserting that premise) and every
// conflict or propagation clause the proof cites was asserted at scope
// depth <= |prefix| of the re-encoding — i.e. the refutation only uses the
// prefix's levels, which every schema extending the prefix asserts
// verbatim. The trace-mode encoder that records those depths is the same
// trusted front end as above. A verified cut covers every schema whose
// chain starts with its prefix, for any cut placement — the predicate the
// checker's CutIndex uses. Schemas whose cuts fall inside the prefix are
// encoded with split segments rather than the prefix's levels; their
// coverage rests on the acceleration lemma (one topological pass per
// context captures every execution of that context), which the auditor
// already trusts for schema completeness.
//
// What a green audit establishes, per property:
//   * verdict "holds": every schema the enumerator produces for every
//     violation query is covered by a checked Farkas/DPLL refutation, lies
//     under a verified subtree cut, or is excluded by the (re-computed)
//     query cone, the enumeration ran to completion within its budget, and
//     every refutation is arithmetically valid — so no execution in schema
//     form violates the property.
//   * verdict "violated": at least one recorded model satisfies its
//     re-encoded violation query exactly.
//   * verdict "unknown": nothing (reported as a warning, not a failure).
// A theorem6 section is re-composed from the audited per-property verdicts
// using the paper's composition table (Proposition 2 + Theorem 6).
#ifndef HV_CERT_AUDIT_H
#define HV_CERT_AUDIT_H

#include <cstdint>
#include <string>
#include <vector>

#include "hv/cert/certificate.h"

namespace hv::cert {

struct AuditReport {
  /// True iff no issue was found (warnings do not fail an audit).
  bool ok = false;
  /// Hard failures: each names the component/property/schema it concerns.
  std::vector<std::string> issues;
  /// Non-failing observations (e.g. unknown verdicts certify nothing).
  std::vector<std::string> warnings;

  std::int64_t properties_audited = 0;
  std::int64_t schemas_covered = 0;   // proof-carrying unsat schemas checked
  std::int64_t schemas_pruned = 0;    // cone decisions reproduced (manifest entries)
  std::int64_t schemas_cut = 0;       // schemas under a verified subtree cut
  std::int64_t models_checked = 0;    // sat models evaluated
  std::int64_t farkas_nodes = 0;      // Farkas leaves arithmetically verified

  std::string to_string() const;
};

struct AuditOptions {
  /// Concurrent audit lanes. 1 is the classic single-process walk. N >= 2
  /// schedules the audit as a DAG (hv/pipeline/dag): per-component model
  /// reconstruction gates per-property shape validation, which gates N
  /// contiguous shards of that property's (query-grouped, prefix-sorted)
  /// evidence list — each shard re-encodes with its own trace encoder —
  /// which gate the property's coverage re-enumeration. Shard reports are
  /// merged back in canonical (component, property, shard) order, so the
  /// merged report is byte-equivalent to the single-process one: same
  /// issues in the same order (including the suppression cap), same
  /// warnings, same counters, same ok. The trust boundary is unchanged —
  /// every leaf is still checked by the same pure-arithmetic core, only
  /// scheduled differently.
  int jobs = 1;
};

/// Audits a certificate end to end. Never throws on malformed content —
/// every defect becomes an issue in the report.
AuditReport audit_certificate(const Certificate& certificate);
AuditReport audit_certificate(const Certificate& certificate, const AuditOptions& options);

/// Audits one refutation against the assertion trace it claims to refute
/// (a trace-mode smt::Solver's snapshot_trace()): the check every covered
/// unsat schema of a certificate gets, without the schema-space layer.
AuditReport audit_refutation(const smt::proof::Trace& trace, const smt::proof::Node& proof);

}  // namespace hv::cert

#endif  // HV_CERT_AUDIT_H

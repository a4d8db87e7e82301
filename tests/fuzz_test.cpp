// Differential fuzzing of the parameterized checker against explicit-state
// enumeration on randomly generated threshold automata.
//
// The contract under test (the core soundness/completeness claim):
//   * verdict "violated" comes with a counterexample that replays under
//     concrete semantics (checked inside check_property already) AND whose
//     parameter valuation makes the explicit checker find a violation too;
//   * verdict "holds" means no violation exists for ANY parameters, so the
//     explicit checker must find none at every sampled valuation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hv/cert/audit.h"
#include "hv/cert/certificate.h"
#include "hv/cert/emit.h"
#include "hv/checker/explicit_checker.h"
#include "hv/checker/parameterized.h"
#include "hv/spec/compile.h"
#include "hv/spec/ltl.h"
#include "hv/ta/parser.h"
#include "hv/ta/random.h"
#include "hv/util/error.h"

namespace hv::checker {
namespace {

// Random state predicates built from the automaton's vocabulary.
std::vector<std::string> candidate_predicates(const ta::ThresholdAutomaton& ta,
                                              std::mt19937_64& rng) {
  std::vector<std::string> location_atoms;
  for (const auto& location : ta.locations()) {
    location_atoms.push_back("loc" + location.name + (rng() % 2 == 0 ? " == 0" : " != 0"));
  }
  std::shuffle(location_atoms.begin(), location_atoms.end(), rng);
  return location_atoms;
}

// Builds a random property within the supported safety fragment (shapes
// 1-3); liveness shapes need persistence, which random predicates rarely
// satisfy, so liveness is fuzzed separately with <>(sink emptiness).
std::string random_safety_property(const ta::ThresholdAutomaton& ta, std::mt19937_64& rng) {
  const auto atoms = candidate_predicates(ta, rng);
  const std::string& a = atoms[0];
  const std::string& b = atoms[1 % atoms.size()];
  switch (rng() % 3) {
    case 0:
      return a + " -> [](" + b + ")";
    case 1: {
      // Shape 2 needs an emptiness conjunction premise.
      const std::string premise = "loc" + ta.location(0).name + " == 0";
      return "[](" + premise + ") -> [](" + b + ")";
    }
    default:
      return "<>(" + a + ") -> [](" + b + ")";
  }
}

// <>(every non-sink location empties) — the generic termination shape, and
// the one whose justice clauses make the solver decide. Empty when every
// location is a sink.
std::string sink_draining_property(const ta::ThresholdAutomaton& automaton) {
  std::string text;
  for (ta::LocationId id = 0; id < automaton.location_count(); ++id) {
    bool has_exit = false;
    for (const auto& rule : automaton.rules()) {
      has_exit = has_exit || (!rule.is_self_loop() && rule.from == id);
    }
    if (!has_exit) continue;
    text += text.empty() ? "<>(" : " && ";
    text += "loc" + automaton.location(id).name + " == 0";
  }
  return text.empty() ? text : text + ")";
}

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, ParameterizedAgreesWithExplicit) {
  std::mt19937_64 rng(GetParam() * 7919 + 13);
  const ta::ThresholdAutomaton automaton = ta::random_automaton({}, GetParam());

  const auto v = [&](const char* name) { return *automaton.find_variable(name); };
  const std::vector<ta::ParamValuation> samples = {
      {{v("n"), 4}, {v("t"), 1}, {v("f"), 0}},
      {{v("n"), 4}, {v("t"), 1}, {v("f"), 1}},
      {{v("n"), 7}, {v("t"), 2}, {v("f"), 2}},
  };

  for (int round = 0; round < 6; ++round) {
    const std::string text = random_safety_property(automaton, rng);
    spec::Property property;
    try {
      property = spec::compile(automaton, "fuzz", text);
    } catch (const hv::InvalidArgument&) {
      continue;  // outside the supported fragment (e.g. non-emptiness premise)
    }
    CheckOptions options;
    options.enumeration.max_schemas = 200'000;
    options.timeout_seconds = 20.0;
    const PropertyResult result = check_property(automaton, property, options);
    if (result.verdict == Verdict::kUnknown) continue;

    if (result.verdict == Verdict::kViolated) {
      ASSERT_TRUE(result.counterexample.has_value()) << text;
      ExplicitOptions explicit_options;
      explicit_options.max_states = 2'000'000;
      const ExplicitResult explicit_result =
          check_explicit(automaton, property, result.counterexample->params, explicit_options);
      EXPECT_EQ(explicit_result.verdict, Verdict::kViolated)
          << "seed=" << GetParam() << " property=" << text << "\n"
          << result.counterexample->to_string(automaton);
    } else {
      for (const ta::ParamValuation& params : samples) {
        ExplicitOptions explicit_options;
        explicit_options.max_states = 500'000;
        const ExplicitResult explicit_result =
            check_explicit(automaton, property, params, explicit_options);
        if (explicit_result.verdict == Verdict::kUnknown) continue;  // state budget
        EXPECT_EQ(explicit_result.verdict, Verdict::kHolds)
            << "seed=" << GetParam() << " property=" << text;
      }
    }
  }
}

TEST_P(DifferentialFuzz, LivenessAgreesOnSinkDraining) {
  const ta::ThresholdAutomaton automaton = ta::random_automaton({}, GetParam() + 1000);
  const std::string text = sink_draining_property(automaton);
  if (text.empty()) GTEST_SKIP() << "degenerate automaton";

  spec::Property property;
  try {
    property = spec::compile(automaton, "drain", text);
  } catch (const hv::InvalidArgument&) {
    GTEST_SKIP() << "goal not persistent for this automaton";
  }
  CheckOptions options;
  options.enumeration.max_schemas = 200'000;
  options.timeout_seconds = 20.0;
  const PropertyResult result = check_property(automaton, property, options);
  if (result.verdict == Verdict::kUnknown) GTEST_SKIP() << "budget";

  const auto v = [&](const char* name) { return *automaton.find_variable(name); };
  if (result.verdict == Verdict::kViolated) {
    const ExplicitResult explicit_result =
        check_explicit(automaton, property, result.counterexample->params);
    EXPECT_EQ(explicit_result.verdict, Verdict::kViolated) << text;
  } else {
    const ExplicitResult explicit_result = check_explicit(
        automaton, property, {{v("n"), 4}, {v("t"), 1}, {v("f"), 1}});
    if (explicit_result.verdict != Verdict::kUnknown) {
      EXPECT_EQ(explicit_result.verdict, Verdict::kHolds) << text;
    }
  }
}

TEST_P(DifferentialFuzz, CertificateAuditsGreen) {
  // Every verdict the certifying checker produces on a random automaton must
  // survive the independent audit: UNSAT refutations re-derive, and models
  // backing explicit-state-confirmed counterexamples evaluate true.
  std::mt19937_64 rng(GetParam() * 104729 + 7);
  const ta::ThresholdAutomaton generated = ta::random_automaton({}, GetParam() + 2000);
  // Round-trip through .ta text first: the certificate embeds the text and
  // the auditor reconstructs the automaton from it, so the certifying run
  // must see the same reconstruction.
  const std::string text = ta::to_text(ta::MultiRoundTa(generated, {}));
  const ta::ThresholdAutomaton automaton = ta::parse_ta(text).one_round_reduction();

  std::vector<spec::Property> properties;
  std::vector<PropertyResult> results;
  for (int round = 0; round < 4; ++round) {
    const std::string formula = random_safety_property(automaton, rng);
    spec::Property property;
    try {
      property = spec::compile(automaton, "fuzz" + std::to_string(round), formula);
    } catch (const hv::InvalidArgument&) {
      continue;  // outside the supported fragment
    }
    CheckOptions options;
    options.certify = true;
    options.enumeration.max_schemas = 200'000;
    options.timeout_seconds = 20.0;
    PropertyResult result = check_property(automaton, property, options);
    if (result.verdict == Verdict::kViolated) {
      // Keep only counterexamples the explicit checker confirms; the sat
      // model behind each must then audit green.
      ASSERT_TRUE(result.counterexample.has_value()) << formula;
      ExplicitOptions explicit_options;
      explicit_options.max_states = 500'000;
      const ExplicitResult confirmed = check_explicit(
          automaton, property, result.counterexample->params, explicit_options);
      if (confirmed.verdict != Verdict::kViolated) continue;
    }
    properties.push_back(property);
    results.push_back(std::move(result));
  }
  if (properties.empty()) GTEST_SKIP() << "no checkable properties for this seed";

  cert::Certificate certificate;
  certificate.components.push_back(
      cert::make_component_cert(cert::text_model_source(text), properties, results, "ltl"));
  const cert::Certificate parsed = cert::parse_certificate(cert::to_json_text(certificate));
  const cert::AuditReport report = cert::audit_certificate(parsed);
  EXPECT_TRUE(report.ok) << "seed=" << GetParam() << "\n" << report.to_string();
  const std::int64_t expected = static_cast<std::int64_t>(properties.size());
  EXPECT_EQ(report.properties_audited, expected);
}

TEST_P(DifferentialFuzz, LearningOnAndOffAgree) {
  // Cross-schema learning (Farkas lemma pool + core-based subtree cuts) must
  // be verdict-preserving on arbitrary automata: a learned fact only ever
  // skips solver work whose unsat outcome is already entailed, so the
  // verdict, and for complete runs the schema accounting, must agree with a
  // learning-free run. Learning also tags premises, so its search
  // backjumps; the learning-free run is the chronological oracle, and
  // backjumping only ever skips refuted branches of the same trees.
  std::mt19937_64 rng(GetParam() * 31337 + 3);
  const ta::ThresholdAutomaton automaton = ta::random_automaton({}, GetParam() + 2000);
  // The last round is the sink-draining liveness property: safety queries
  // carry no clauses, so only it makes either search decide.
  for (int round = 0; round < 5; ++round) {
    const std::string text =
        round < 4 ? random_safety_property(automaton, rng) : sink_draining_property(automaton);
    if (text.empty()) continue;
    spec::Property property;
    try {
      property = spec::compile(automaton, "learned", text);
    } catch (const hv::InvalidArgument&) {
      continue;
    }
    CheckOptions learning;
    learning.enumeration.max_schemas = 200'000;
    learning.timeout_seconds = 20.0;
    CheckOptions plain = learning;
    plain.lemmas = false;
    const PropertyResult on = check_property(automaton, property, learning);
    const PropertyResult off = check_property(automaton, property, plain);
    if (on.verdict == Verdict::kUnknown || off.verdict == Verdict::kUnknown) continue;
    EXPECT_EQ(on.verdict, off.verdict) << "seed=" << GetParam() << " property=" << text;
    // The learning-free run must not report learning activity.
    EXPECT_EQ(off.schemas_cut, 0) << text;
    EXPECT_EQ(off.lemma_hits, 0) << text;
    EXPECT_EQ(off.lemmas_learned, 0) << text;
    EXPECT_EQ(off.backjumps, 0) << text;
    EXPECT_LE(on.decisions, off.decisions) << "seed=" << GetParam() << " property=" << text;
    // Learning only skips solves; it can never add them.
    EXPECT_LE(on.schemas_checked, off.schemas_checked)
        << "seed=" << GetParam() << " property=" << text;
    if (on.verdict == Verdict::kHolds) {
      // Both runs enumerate the identical schema sequence to completion, so
      // every schema is either solved, cone-pruned or cut.
      EXPECT_EQ(on.schemas_checked + on.schemas_pruned + on.schemas_cut,
                off.schemas_checked + off.schemas_pruned)
          << "seed=" << GetParam() << " property=" << text;
    }
  }
}

/// Certifies one property into a one-component certificate and audits its
/// wire form.
cert::AuditReport certify_and_audit(const std::string& text, const spec::Property& property,
                                    const PropertyResult& result) {
  cert::Certificate certificate;
  certificate.components.push_back(
      cert::make_component_cert(cert::text_model_source(text), {property}, {result}, "ltl"));
  return cert::audit_certificate(cert::parse_certificate(cert::to_json_text(certificate)));
}

TEST_P(DifferentialFuzz, CertifiedLearningAgreesWithOracles) {
  // Certified learning turns lemma hits and subtree cuts into audited
  // evidence. Three oracles must agree on every verdict: certify with
  // learning, certify without it (the per-schema certificate), and the
  // explicit checker at small (n, t, f). Both certificates must audit
  // green, and so must one from the in-process thread pool, whose cuts
  // land in a nondeterministic order. Certifying search backjumps; a
  // plain learning-free run searches chronologically and must agree with
  // the per-schema certificate's run schema for schema, with at least as
  // many decisions as either certifying run.
  std::mt19937_64 rng(GetParam() * 65537 + 11);
  // Larger and more guarded than the default automata, so that schemas
  // reach the solver and learning has refutations to reuse.
  ta::RandomTaOptions shape;
  shape.min_locations = 5;
  shape.max_locations = 8;
  shape.min_rules = 6;
  shape.max_rules = 12;
  shape.guard_probability = 0.8;
  const ta::ThresholdAutomaton generated = ta::random_automaton(shape, GetParam() + 3000);
  const std::string text = ta::to_text(ta::MultiRoundTa(generated, {}));
  const ta::ThresholdAutomaton automaton = ta::parse_ta(text).one_round_reduction();
  const auto v = [&](const char* name) { return *automaton.find_variable(name); };
  const std::vector<ta::ParamValuation> samples = {
      {{v("n"), 4}, {v("t"), 1}, {v("f"), 0}},
      {{v("n"), 4}, {v("t"), 1}, {v("f"), 1}},
  };

  // Rounds 4 and 5 check the sink-draining liveness property (with and
  // without the cone), whose clauses make the searches decide and backjump.
  for (int round = 0; round < 6; ++round) {
    const std::string formula =
        round < 4 ? random_safety_property(automaton, rng) : sink_draining_property(automaton);
    if (formula.empty()) continue;
    spec::Property property;
    try {
      property = spec::compile(automaton, "oracle" + std::to_string(round), formula);
    } catch (const hv::InvalidArgument&) {
      continue;
    }
    CheckOptions learning;
    learning.certify = true;
    learning.enumeration.max_schemas = 200'000;
    learning.timeout_seconds = 20.0;
    // Every other round without the cone, so the solver (and learning)
    // sees the schemas the cone would have discharged.
    learning.property_directed_pruning = round % 2 == 0;
    CheckOptions plain = learning;
    plain.lemmas = false;
    CheckOptions threads = learning;
    threads.workers = 2;
    CheckOptions chronological = plain;
    chronological.certify = false;
    const PropertyResult on = check_property(automaton, property, learning);
    const PropertyResult off = check_property(automaton, property, plain);
    const PropertyResult pooled = check_property(automaton, property, threads);
    const PropertyResult chrono = check_property(automaton, property, chronological);
    if (on.verdict == Verdict::kUnknown || off.verdict == Verdict::kUnknown ||
        pooled.verdict == Verdict::kUnknown || chrono.verdict == Verdict::kUnknown) {
      continue;
    }
    const std::string where = "seed=" + std::to_string(GetParam()) + " property=" + formula;
    EXPECT_EQ(on.verdict, off.verdict) << where;
    EXPECT_EQ(pooled.verdict, off.verdict) << where;
    EXPECT_EQ(chrono.verdict, off.verdict) << where;
    EXPECT_EQ(off.schemas_checked, chrono.schemas_checked) << where;
    EXPECT_EQ(off.schemas_pruned, chrono.schemas_pruned) << where;
    EXPECT_EQ(chrono.backjumps, 0) << where;
    EXPECT_LE(off.decisions, chrono.decisions) << where;
    EXPECT_LE(on.decisions, chrono.decisions) << where;

    const cert::AuditReport on_audit = certify_and_audit(text, property, on);
    const cert::AuditReport off_audit = certify_and_audit(text, property, off);
    const cert::AuditReport pooled_audit = certify_and_audit(text, property, pooled);
    EXPECT_TRUE(on_audit.ok) << where << "\n" << on_audit.to_string();
    EXPECT_TRUE(off_audit.ok) << where << "\n" << off_audit.to_string();
    EXPECT_TRUE(pooled_audit.ok) << where << "\n" << pooled_audit.to_string();
    EXPECT_EQ(off_audit.schemas_cut, 0) << where;
    if (on.verdict == Verdict::kHolds) {
      // Both audits re-enumerate the same schema space: what the learning
      // certificate covers by refutation, manifest or cut, the per-schema
      // one covers by refutation or manifest.
      EXPECT_EQ(on_audit.schemas_covered + on_audit.schemas_pruned + on_audit.schemas_cut,
                off_audit.schemas_covered + off_audit.schemas_pruned)
          << where;
    }

    for (const ta::ParamValuation& params : samples) {
      ExplicitOptions explicit_options;
      explicit_options.max_states = 500'000;
      const ExplicitResult explicit_result =
          check_explicit(automaton, property, params, explicit_options);
      if (explicit_result.verdict == Verdict::kUnknown) continue;  // state budget
      // A violation at these parameters refutes "holds"; "violated" may
      // need other parameters, so only holds is checked here.
      if (on.verdict == Verdict::kHolds) {
        EXPECT_EQ(explicit_result.verdict, Verdict::kHolds) << where;
      }
    }
    if (on.verdict == Verdict::kViolated) {
      ASSERT_TRUE(on.counterexample.has_value()) << where;
      ExplicitOptions explicit_options;
      explicit_options.max_states = 500'000;
      const ExplicitResult confirmed =
          check_explicit(automaton, property, on.counterexample->params, explicit_options);
      if (confirmed.verdict != Verdict::kUnknown) {
        EXPECT_EQ(confirmed.verdict, Verdict::kViolated) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace hv::checker

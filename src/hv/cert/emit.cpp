#include "hv/cert/emit.h"

#include <utility>

#include "hv/util/error.h"

namespace hv::cert {

ModelSource text_model_source(std::string ta_text) {
  ModelSource source;
  source.kind = "text";
  source.text = std::move(ta_text);
  return source;
}

ModelSource builtin_model_source(std::string key) {
  ModelSource source;
  source.kind = "builtin";
  source.key = std::move(key);
  return source;
}

PropertyCert make_property_cert(const spec::Property& property,
                                const checker::PropertyResult& result, PropertySource source) {
  if (result.property != property.name) {
    throw InvalidArgument("certificate: result/property mismatch: '" + result.property +
                          "' vs '" + property.name + "'");
  }
  if (result.evidence == nullptr) {
    throw InvalidArgument("certificate: result for '" + property.name +
                          "' carries no evidence (run with CheckOptions::certify)");
  }
  PropertyCert cert;
  cert.name = property.name;
  cert.source = std::move(source);
  if (cert.source.kind == "ltl") cert.source.formula = property.formula_text;
  cert.verdict = checker::to_string(result.verdict);
  cert.note = result.note;
  cert.enumeration = result.evidence->enumeration;
  cert.property_directed_pruning = result.evidence->property_directed_pruning;
  cert.complete = result.evidence->complete;
  cert.schemas.reserve(result.evidence->schemas.size());
  for (const checker::SchemaEvidence& evidence : result.evidence->schemas) {
    SchemaCert entry;
    entry.query_index = static_cast<std::int64_t>(evidence.query_index);
    entry.schema = evidence.schema;
    entry.sat = evidence.sat;
    if (evidence.sat) {
      if (evidence.model == nullptr) {
        throw InvalidArgument("certificate: sat evidence without a model");
      }
      entry.model = *evidence.model;
    } else {
      if (evidence.proof == nullptr) {
        throw InvalidArgument("certificate: unsat evidence without a proof");
      }
      entry.proof = evidence.proof;
    }
    cert.schemas.push_back(std::move(entry));
  }
  cert.pruned.reserve(result.evidence->pruned.size());
  for (const checker::PrunedSchema& pruned : result.evidence->pruned) {
    cert.pruned.push_back({static_cast<std::int64_t>(pruned.query_index), pruned.schema});
  }
  cert.cuts.reserve(result.evidence->cuts.size());
  for (const checker::CutEvidence& cut : result.evidence->cuts) {
    cert.cuts.push_back({static_cast<std::int64_t>(cut.query_index), cut.prefix, cut.witness});
  }
  return cert;
}

ComponentCert make_component_cert(ModelSource model, const std::vector<spec::Property>& properties,
                                  const std::vector<checker::PropertyResult>& results,
                                  const std::string& source_kind) {
  if (properties.size() != results.size()) {
    throw InvalidArgument("certificate: property/result count mismatch");
  }
  ComponentCert component;
  component.model = std::move(model);
  component.properties.reserve(properties.size());
  for (std::size_t i = 0; i < properties.size(); ++i) {
    PropertySource source;
    source.kind = source_kind;
    source.formula = properties[i].formula_text;
    component.properties.push_back(make_property_cert(properties[i], results[i], std::move(source)));
  }
  return component;
}

}  // namespace hv::cert

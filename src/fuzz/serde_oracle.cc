#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/model_serde.h"
#include "src/core/synthetic.h"
#include "src/fuzz/oracles.h"
#include "src/runtime/deployed_model.h"

namespace neuroc {

namespace {

// v2 image -> its v1 (pre-CRC) form: version byte back to '1', trailer dropped. Mirrors
// what a v1-era writer produced; the deserializer keeps accepting both.
std::vector<uint8_t> ToLegacyV1(std::vector<uint8_t> bytes) {
  if (bytes.size() < 8 || bytes[3] != '2') {
    return bytes;
  }
  bytes[3] = '1';
  bytes.resize(bytes.size() - 4);
  return bytes;
}

bool IsDenseCase(const FuzzCase& c) {
  for (int e : c.layer_encodings) {
    if (e == kDenseBaselineEncoding) return true;
  }
  return false;
}

template <typename Model>
Model BuildSerdeModel(const FuzzCase& c, Rng& rng);

template <>
MlpModel BuildSerdeModel<MlpModel>(const FuzzCase& c, Rng& rng) {
  std::vector<QuantDenseLayer> layers;
  for (size_t l = 0; l + 1 < c.dims.size(); ++l) {
    const bool last = l + 2 == c.dims.size();
    layers.push_back(MakeSyntheticDenseLayer(c.dims[l], c.dims[l + 1], /*relu=*/!last,
                                             c.requant_shift, rng));
  }
  return MlpModel::FromLayers(std::move(layers));
}

template <>
NeuroCModel BuildSerdeModel<NeuroCModel>(const FuzzCase& c, Rng& rng) {
  std::vector<QuantNeuroCLayer> layers;
  for (size_t l = 0; l + 1 < c.dims.size(); ++l) {
    SyntheticNeuroCLayerSpec spec;
    spec.in_dim = c.dims[l];
    spec.out_dim = c.dims[l + 1];
    spec.density = static_cast<double>(c.density_ppm) * 1e-6;
    spec.encoding = static_cast<EncodingKind>(c.layer_encodings[l]);
    spec.encoding_options.block_size = c.block_size;
    spec.has_scale = c.has_scale;
    spec.relu = l + 2 < c.dims.size();
    spec.requant_shift = c.requant_shift;
    layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  }
  return NeuroCModel::FromLayers(std::move(layers));
}

template <typename Model>
StatusOr<Model> DeserializeAs(std::span<const uint8_t> bytes);
template <>
StatusOr<MlpModel> DeserializeAs<MlpModel>(std::span<const uint8_t> bytes) {
  return DeserializeMlpModel(bytes);
}
template <>
StatusOr<NeuroCModel> DeserializeAs<NeuroCModel>(std::span<const uint8_t> bytes) {
  return DeserializeNeuroCModel(bytes);
}

template <typename Model>
CaseResult RunSerdeCaseT(const FuzzCase& c) {
  Rng mrng(SubSeed(c.case_seed, 1));
  const Model model = BuildSerdeModel<Model>(c, mrng);
  const std::vector<uint8_t> v2 = SerializeModel(model);
  Rng srng(SubSeed(c.case_seed, 3));  // mutation positions + parity inputs

  if (c.mutate) {
    std::vector<uint8_t> mutated = c.legacy_v1 ? ToLegacyV1(v2) : v2;
    const size_t pos = srng.NextBounded(mutated.size());
    const uint8_t mask = static_cast<uint8_t>(1u << srng.NextBounded(8));
    mutated[pos] ^= mask;
    const std::string where =
        " (byte " + std::to_string(pos) + " ^ " + std::to_string(mask) + ")";
    StatusOr<Model> des = DeserializeAs<Model>(mutated);
    if (!c.legacy_v1) {
      // Every v2 byte is covered by the CRC-32 trailer (or *is* the trailer): a single
      // bit flip must never load.
      if (des.ok()) {
        return {FuzzVerdict::kFail, "corrupted v2 image accepted" + where};
      }
      if (des.status().code() != ErrorCode::kIntegrityFailure &&
          des.status().code() != ErrorCode::kMalformedImage) {
        return {FuzzVerdict::kFail, "corrupted v2 image raised wrong error" + where +
                                        ": " + des.status().ToString()};
      }
      return {};
    }
    // v1 has no integrity trailer: a flip may load as a structurally plausible model.
    // The contract is weaker but still structural — either a structured rejection, or a
    // model that can run and re-serialize without host crashes.
    if (!des.ok()) {
      if (des.status().code() != ErrorCode::kMalformedImage &&
          des.status().code() != ErrorCode::kIntegrityFailure) {
        return {FuzzVerdict::kFail, "corrupted v1 image raised wrong error" + where +
                                        ": " + des.status().ToString()};
      }
      return {};
    }
    if (des->in_dim() > 0) {
      const std::vector<int8_t> probe = MakeRandomInput(des->in_dim(), srng);
      std::vector<int8_t> out;
      des->Forward(probe, out);
    }
    (void)SerializeModel(*des);
    return {};
  }

  // Round-trip leg: load (v2 or v1 form) -> re-serialize losslessly -> predict and deploy
  // identically to the original.
  const std::vector<uint8_t> working = c.legacy_v1 ? ToLegacyV1(v2) : v2;
  StatusOr<Model> des = DeserializeAs<Model>(working);
  if (!des.ok()) {
    return {FuzzVerdict::kFail, "round-trip load failed: " + des.status().ToString()};
  }
  if (SerializeModel(*des) != v2) {
    return {FuzzVerdict::kFail, "serialize(deserialize(image)) != image"};
  }
  std::vector<int8_t> expected;
  std::vector<int8_t> got;
  std::vector<int8_t> first_input;
  for (int i = 0; i < 2; ++i) {
    const std::vector<int8_t> input = MakeRandomInput(model.in_dim(), srng);
    if (i == 0) first_input = input;
    model.Forward(input, expected);
    des->Forward(input, got);
    if (got != expected) {
      return {FuzzVerdict::kFail,
              "reloaded model output != original (input " + std::to_string(i) + ")"};
    }
  }
  auto deployed_or = DeployedModel::TryDeploy(*des);
  if (!deployed_or.ok()) {
    if (deployed_or.status().code() == ErrorCode::kResourceExhausted) {
      return {FuzzVerdict::kSkip, "resource_exhausted: model does not fit the device"};
    }
    return {FuzzVerdict::kFail,
            "reloaded model failed to deploy: " + deployed_or.status().ToString()};
  }
  DeployedModel deployed = std::move(*deployed_or);
  model.Forward(first_input, expected);
  const StatusOr<int> pred = deployed.TryPredict(first_input);
  if (!pred.ok()) {
    return {FuzzVerdict::kFail,
            "reloaded model faulted on device: " + pred.status().ToString()};
  }
  if (deployed.LastOutput() != expected) {
    return {FuzzVerdict::kFail, "deployed reloaded model output != host original"};
  }
  return {};
}

}  // namespace

FuzzCase GenerateSerdeCase(uint64_t case_seed) {
  FuzzCase c;
  c.oracle = FuzzOracle::kSerde;
  c.case_seed = case_seed;
  Rng g(SubSeed(case_seed, 0));

  const bool dense = g.NextBool(0.2);
  const size_t n_layers = 1 + g.NextBounded(3);
  c.dims.push_back(static_cast<uint32_t>(1 + g.NextBounded(96)));
  for (size_t l = 0; l < n_layers; ++l) {
    c.dims.push_back(static_cast<uint32_t>(1 + g.NextBounded(64)));
    c.layer_encodings.push_back(dense ? kDenseBaselineEncoding
                                      : static_cast<int>(g.NextBounded(5)));
  }
  c.density_ppm = static_cast<uint32_t>(50'000 + g.NextBounded(700'001));
  c.block_size = static_cast<uint32_t>(16 + g.NextBounded(240));
  c.has_scale = g.NextBool(0.8);
  c.requant_shift = static_cast<int>(g.NextInt(4, 10));
  c.legacy_v1 = g.NextBool(0.25);
  c.mutate = g.NextBool(0.5);
  return c;
}

CaseResult RunSerdeCase(const FuzzCase& c) {
  if (c.dims.size() < 2 || c.layer_encodings.size() != c.dims.size() - 1) {
    return {FuzzVerdict::kFail, "invalid serde case: bad dimension chain"};
  }
  if (IsDenseCase(c)) {
    for (int e : c.layer_encodings) {
      if (e != kDenseBaselineEncoding) {
        return {FuzzVerdict::kFail, "invalid serde case: mixed dense/sparse layers"};
      }
    }
    return RunSerdeCaseT<MlpModel>(c);
  }
  return RunSerdeCaseT<NeuroCModel>(c);
}

}  // namespace neuroc

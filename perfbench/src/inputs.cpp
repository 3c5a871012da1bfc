#include "inputs.h"

#include <filesystem>

#include "nn/train.h"
#include "util/rng.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (stream + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

FleetInputs make_fleet_inputs(std::uint64_t seed, std::size_t edges,
                              std::size_t slots, double mean_samples,
                              cea::util::ThreadPool* pool) {
  cea::data::WorkloadConfig config;
  config.num_slots = slots;
  config.mean_samples = mean_samples;
  config.kind = cea::data::WorkloadKind::kHeavyTail;
  cea::Rng workload_rng(derive_seed(seed, 1));
  cea::Rng price_rng(derive_seed(seed, 2));
  FleetInputs inputs;
  inputs.workload =
      cea::data::generate_workload_pooled(edges, config, workload_rng, pool);
  inputs.prices = cea::data::generate_prices(slots, cea::data::MarketConfig{},
                                             price_rng);
  return inputs;
}

std::vector<cea::serve::SlotInput> make_serve_inputs(std::uint64_t seed,
                                                     std::size_t edges,
                                                     std::size_t slots,
                                                     double mean_samples) {
  cea::data::WorkloadConfig config;
  config.num_slots = slots;
  config.mean_samples = mean_samples;
  config.kind = cea::data::WorkloadKind::kHeavyTail;
  cea::Rng workload_rng(derive_seed(seed, 3));
  cea::Rng price_rng(derive_seed(seed, 4));
  const auto workload = cea::data::generate_workload(edges, config, workload_rng);
  const auto prices = cea::data::generate_prices(
      slots, cea::data::MarketConfig{}, price_rng);
  std::vector<cea::serve::SlotInput> inputs(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    inputs[t].quote = {prices.buy[t], prices.sell[t]};
    inputs[t].workload.resize(edges);
    for (std::size_t e = 0; e < edges; ++e) inputs[t].workload[e] = workload[e][t];
  }
  return inputs;
}

std::size_t publish_slot_files(
    const std::string& directory,
    const std::vector<cea::serve::SlotInput>& inputs) {
  const std::size_t edges = inputs.empty() ? 0 : inputs.front().workload.size();
  const cea::serve::DirectoryTailFeed feed(directory, edges);
  std::size_t bytes = 0;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    cea::serve::DirectoryTailFeed::publish_slot(feed, t, inputs[t]);
    bytes += static_cast<std::size_t>(
        std::filesystem::file_size(feed.slot_path(t)));
  }
  return bytes;
}

std::vector<cea::data::Dataset> make_held_out_batches(
    std::uint64_t seed, const cea::data::SyntheticSpec& spec,
    std::size_t batches, std::size_t batch) {
  const cea::data::SyntheticDistribution distribution(spec);
  cea::Rng rng(derive_seed(seed, 5 + spec.input.channels));
  const cea::data::Dataset all = distribution.sample(batches * batch, rng);
  std::vector<cea::data::Dataset> out;
  std::vector<std::size_t> indices(batch);
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t i = 0; i < batch; ++i) indices[i] = b * batch + i;
    cea::data::Dataset part;
    part.samples = cea::nn::gather_rows(all.samples, indices);
    part.labels = cea::nn::gather_labels(all.labels, indices);
    out.push_back(std::move(part));
  }
  return out;
}

}  // namespace perfbench

#pragma once

// The benchmark-owned input generator. Every input of every workload is a
// pure function of the --seed argument: the same seed gives byte-identical
// traces, slot files and held-out samples. The program under test only
// receives the generated inputs; scenario and run seeds are derived here
// too, so a new seed is a new (but equally shaped) problem.

#include <cstdint>
#include <string>
#include <vector>

#include "data/carbon_market.h"
#include "data/synthetic_dataset.h"
#include "data/workload.h"
#include "serve/feed.h"

namespace cea::util {
class ThreadPool;
}

namespace perfbench {

/// Independent 64-bit stream seed for input `stream` of run seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// fleet_catchup: a keyed heavy-tail workload trace ([edge][slot]) plus a
/// carbon-market price series, recorded as a backlog for a ReplayFeed.
struct FleetInputs {
  cea::data::WorkloadTraces workload;
  cea::data::PriceSeries prices;
};
FleetInputs make_fleet_inputs(std::uint64_t seed, std::size_t edges,
                              std::size_t slots, double mean_samples,
                              cea::util::ThreadPool* pool);

/// serve_observed: per-slot inputs (quote + the concatenated per-edge
/// counts of every tenant) for a DirectoryTailFeed.
std::vector<cea::serve::SlotInput> make_serve_inputs(std::uint64_t seed,
                                                     std::size_t edges,
                                                     std::size_t slots,
                                                     double mean_samples);

/// Publish every slot file into `directory` (which must exist); returns
/// the total bytes written.
std::size_t publish_slot_files(const std::string& directory,
                               const std::vector<cea::serve::SlotInput>& inputs);

/// edge_inference: a held-out set of one synthetic family, cut into
/// batches of `batch` samples.
std::vector<cea::data::Dataset> make_held_out_batches(
    std::uint64_t seed, const cea::data::SyntheticSpec& spec,
    std::size_t batches, std::size_t batch);

}  // namespace perfbench

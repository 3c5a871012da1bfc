// edge_inference: data::profile_model over a seeded held-out synthetic set
// for all 12 zoo models (6 MNIST-like, 6 CIFAR-like), in fp32 and as int8
// nn::QuantizedModel twins (ComputeBackend::kGemmInt8), with the nn compute
// pool set to the global pool. This is the inference the edges serve; it
// exercises the nn GEMM kernels (fp32 and int8), im2col and layers, and
// bypasses the controller entirely.
//
// One "slot" here is one (model, precision, 64-sample batch) profile call,
// the unit an edge serves; a round is every model of the zoo in both
// precisions on the next batch of each family.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "data/loss_profile.h"
#include "inputs.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kBatch = 64;
constexpr std::size_t kBatchesPerFamily = 8;
constexpr std::size_t kFamilies = 2;
/// Rounds of 24 profile calls needed for >= 1000 latency samples, so the
/// reported p99 has at least ten samples beyond it.
constexpr std::size_t kMinRounds = 42;
constexpr int kSetups = 5;
constexpr std::size_t kRoundsPerRestore = 5;
constexpr std::size_t kMinRestores = 5;
/// Lowest top-1 agreement of the int8 twins with their fp32 models over
/// the held-out set accepted as correct (the untrained seeded zoo measured
/// at or above this on every seed tried when the benchmark was defined).
constexpr double kAgreementFloor = 0.80;

using cea::nn::Sequential;

struct Zoo {
  std::vector<Sequential> fp32;                     // family-major
  std::vector<std::unique_ptr<cea::nn::QuantizedModel>> int8;
  std::vector<std::size_t> family;                  // per model
};

std::vector<Sequential> make_family(std::size_t f, std::uint64_t seed) {
  cea::Rng rng(derive_seed(seed, 40 + f));
  return f == 0 ? cea::nn::make_mnist_zoo(rng) : cea::nn::make_cifar_zoo(rng);
}

bool same_tensor(const cea::nn::Tensor& a, const cea::nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// Build the zoo, its int8 twins and their packed panels (one warm-up
/// forward each). Returns the construction time in seconds.
double build_zoo(Zoo& zoo, std::uint64_t seed,
                 const std::vector<std::vector<cea::data::Dataset>>& held_out) {
  const std::int64_t start = now_ns();
  Zoo built;
  for (std::size_t f = 0; f < kFamilies; ++f) {
    for (auto& model : make_family(f, seed)) {
      model.set_training(false);
      built.fp32.push_back(std::move(model));
      built.family.push_back(f);
    }
    for (auto& model : make_family(f, seed)) {
      built.int8.push_back(
          std::make_unique<cea::nn::QuantizedModel>(std::move(model)));
    }
  }
  for (std::size_t m = 0; m < built.fp32.size(); ++m) {
    const auto& batch = held_out[built.family[m]][0].samples;
    built.fp32[m].forward(batch);
    built.int8[m]->forward(batch);
  }
  zoo = std::move(built);
  return static_cast<double>(now_ns() - start) * 1e-9;
}

void digest_profile(Digest& digest, const cea::data::LossProfile& profile) {
  digest.add_double(profile.mean_loss());
  digest.add_double(profile.loss_stddev());
  digest.add_double(profile.accuracy());
}

const char* kind_of(const cea::nn::Layer& layer, bool int8) {
  const std::string name = layer.name();
  if (name == "dense") return int8 ? "nn.int8.dense" : "nn.fp32.dense";
  if (name == "conv2d") return int8 ? "nn.int8.conv" : "nn.fp32.conv";
  if (name == "depthwise_conv2d") {
    return int8 ? "nn.int8.depthwise" : "nn.fp32.depthwise";
  }
  return int8 ? "nn.int8.other" : "nn.fp32.other";
}

/// Multiply-accumulates of one layer forward, computed from its shapes:
/// output elements x (weight block / output channels).
double layer_macs(cea::nn::Layer& layer, const cea::nn::Tensor& output) {
  const std::size_t channels = layer.output_channels();
  if (channels == 0) return 0.0;
  std::size_t weights = 0;
  bool first = true;
  layer.visit_parameters([&](std::span<float> block) {
    if (first) weights = block.size();
    first = false;
  });
  return static_cast<double>(output.size()) *
         static_cast<double>(weights / channels);
}

/// Traced replacement of profile_model: the same forward, one span per
/// Layer::forward, then the same loss/correctness post-processing.
cea::data::LossProfile traced_profile(Sequential& model,
                                      const cea::data::Dataset& batch,
                                      bool int8, std::int64_t id,
                                      std::map<std::string, double>& macs) {
  Tracer& trace = tracer();
  cea::nn::Tensor activation = batch.samples;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    cea::nn::Layer& layer = model.layer(i);
    const char* kind = kind_of(layer, int8);
    const Tracer::Scope span(trace, kind, id);
    activation = layer.forward(activation);
    macs[kind] += layer_macs(layer, activation);
  }
  const Tracer::Scope span(trace, "data.profile", id);
  const cea::nn::Tensor probs = cea::nn::softmax(activation);
  const auto losses = cea::nn::squared_losses(probs, batch.labels);
  std::vector<std::uint8_t> correct;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < activation.dim(1); ++c) {
      if (activation.at(i, c) > activation.at(i, best)) best = c;
    }
    correct.push_back(best == batch.labels[i] ? 1 : 0);
  }
  return cea::data::LossProfile(model.name(), losses, std::move(correct),
                                model.size_mb());
}

}  // namespace

RunResult run_edge_inference(const RunOptions& options) {
  RunResult result;
  add_run_facts(result, options);
  result.facts["workload"] = "edge_inference";
  result.facts["shape"] =
      "12 models x {fp32, int8} x 64-sample batches, 512 held-out samples "
      "per family";
  cea::nn::set_compute_pool(&cea::util::ThreadPool::global());

  std::vector<std::vector<cea::data::Dataset>> held_out;
  held_out.push_back(make_held_out_batches(
      options.seed, cea::data::mnist_like_spec(), kBatchesPerFamily, kBatch));
  held_out.push_back(make_held_out_batches(
      options.seed, cea::data::cifar_like_spec(), kBatchesPerFamily, kBatch));

  std::vector<double> setups;
  Zoo zoo;
  for (int rep = 0; rep < kSetups; ++rep) {
    setups.push_back(build_zoo(zoo, options.seed, held_out));
  }
  const std::size_t models = zoo.fp32.size();

  // Gate: Layer::forward in sequence is bit-equal to Sequential::forward.
  for (std::size_t m = 0; m < models; ++m) {
    const auto& batch = held_out[zoo.family[m]][0].samples;
    for (const bool int8 : {false, true}) {
      Sequential& model = int8 ? zoo.int8[m]->model() : zoo.fp32[m];
      cea::nn::ScopedComputeBackend backend(
          int8 ? cea::nn::ComputeBackend::kGemmInt8
               : cea::nn::ComputeBackend::kGemm);
      cea::nn::Tensor activation = batch;
      for (std::size_t i = 0; i < model.layer_count(); ++i) {
        activation = model.layer(i).forward(activation);
      }
      result.check(same_tensor(activation, model.forward(batch)),
                   "layer-by-layer forward differs for " + model.name());
    }
  }

  // Gate: int8 top-1 agreement with fp32 over the held-out set.
  {
    std::size_t agree = 0, total = 0;
    for (std::size_t m = 0; m < models; ++m) {
      for (const auto& batch : held_out[zoo.family[m]]) {
        const auto fp32 = zoo.fp32[m].predict(batch.samples);
        const auto int8 = zoo.int8[m]->predict(batch.samples);
        for (std::size_t i = 0; i < fp32.size(); ++i) agree += fp32[i] == int8[i];
        total += fp32.size();
      }
    }
    const double agreement =
        static_cast<double>(agree) / static_cast<double>(total);
    result.facts["int8_agreement"] = std::to_string(agreement);
    result.check(agreement >= kAgreementFloor,
                 "int8 top-1 agreement " + std::to_string(agreement) +
                     " below the floor");
    if (options.trace) result.set("nn.int8_agreement", agreement, "ratio");
  }

  // One round: the next batch of each family through every model of the
  // zoo in both precisions. Per-(model, precision, batch) digests from the
  // first pass are the reference every later pass must reproduce.
  std::vector<std::string> reference(kBatchesPerFamily);
  std::vector<double> latencies;
  double inferred = 0.0, busy_seconds = 0.0;
  std::size_t rounds = 0;
  auto round = [&](std::size_t b, bool traced,
                   std::map<std::string, double>* macs,
                   std::map<std::string, std::vector<double>>* per_model) {
    Digest digest;
    for (std::size_t m = 0; m < models; ++m) {
      const cea::data::Dataset& batch = held_out[zoo.family[m]][b];
      for (const bool int8 : {false, true}) {
        Sequential& model = int8 ? zoo.int8[m]->model() : zoo.fp32[m];
        cea::nn::ScopedComputeBackend backend(
            int8 ? cea::nn::ComputeBackend::kGemmInt8
                 : cea::nn::ComputeBackend::kGemm);
        const std::int64_t start = now_ns();
        const cea::data::LossProfile profile =
            traced ? traced_profile(model, batch, int8,
                                    static_cast<std::int64_t>(rounds), *macs)
                   : cea::data::profile_model(model, batch, kBatch);
        const double elapsed = static_cast<double>(now_ns() - start);
        digest_profile(digest, profile);
        latencies.push_back(ns_to_ms(elapsed));
        busy_seconds += elapsed * 1e-9;
        inferred += static_cast<double>(batch.size());
        if (per_model != nullptr) {
          (*per_model)[std::string("nn.") + zoo.fp32[m].name() +
                       (int8 ? ".int8" : ".fp32") + ".samples_per_s"]
              .push_back(static_cast<double>(batch.size()) / (elapsed * 1e-9));
        }
      }
    }
    return digest.hex();
  };

  // restore_s: an edge restarting from its saved weights — reload every
  // model into a fresh shell, rebuild the int8 twins, and answer one
  // sample on every model in both precisions (which packs the panels).
  // Samples are spread over the run, between rounds, so the median sees
  // the whole run rather than one moment of the host.
  std::vector<double> restores;
  std::vector<cea::nn::Tensor> first_sample;
  for (std::size_t f = 0; f < kFamilies; ++f) {
    const std::size_t row[] = {0};
    first_sample.push_back(cea::nn::gather_rows(held_out[f][0].samples, row));
  }
  std::vector<std::string> paths;
  for (std::size_t m = 0; m < models; ++m) {
    paths.push_back(options.out_dir + "/model-" + std::to_string(m) + ".bin");
    cea::nn::save_model(zoo.fp32[m], paths.back());
  }
  auto restore_sample = [&] {
    std::vector<Sequential> shells, twin_shells;
    for (std::size_t f = 0; f < kFamilies; ++f) {
      for (auto& model : make_family(f, options.seed + 1)) {
        shells.push_back(std::move(model));
      }
      for (auto& model : make_family(f, options.seed + 1)) {
        twin_shells.push_back(std::move(model));
      }
    }
    std::vector<std::unique_ptr<cea::nn::QuantizedModel>> twins;
    const std::int64_t start = now_ns();
    for (std::size_t m = 0; m < models; ++m) {
      cea::nn::load_model(shells[m], paths[m]);
      shells[m].set_training(false);
      cea::nn::load_model(twin_shells[m], paths[m]);
      twins.push_back(
          std::make_unique<cea::nn::QuantizedModel>(std::move(twin_shells[m])));
      shells[m].forward(first_sample[zoo.family[m]]);
      twins[m]->forward(first_sample[zoo.family[m]]);
    }
    restores.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    if (restores.size() > 1) return;  // one equality check covers the path
    bool equal = true;
    for (std::size_t m = 0; m < models; ++m) {
      const auto& batch = held_out[zoo.family[m]][0].samples;
      equal = equal && same_tensor(shells[m].forward(batch),
                                   zoo.fp32[m].forward(batch)) &&
              same_tensor(twins[m]->forward(batch), zoo.int8[m]->forward(batch));
    }
    result.check(equal, "restored models infer differently");
  };

  // Rounds during which the hypervisor took more than StealMeter::kMaxShare
  // of the guest are set aside, and used only if too few quiet ones remain.
  Budget budget(options.seconds * (options.trace ? 0.4 : 1.0));
  const std::size_t min_rounds = options.trace ? kBatchesPerFamily : kMinRounds;
  std::size_t quiet_rounds = 0;
  std::vector<double> contended_latencies;
  double contended_inferred = 0.0, contended_busy = 0.0;
  do {
    const StealMeter steal;
    const std::int64_t window_start = now_ns();
    const std::size_t mark = latencies.size();
    const double inferred_before = inferred, busy_before = busy_seconds;
    const std::size_t b = rounds % kBatchesPerFamily;
    const std::string digest = round(b, false, nullptr, nullptr);
    if (reference[b].empty()) reference[b] = digest;
    result.check(digest == reference[b], "round digest differs on batch " +
                                             std::to_string(b));
    ++rounds;
    const bool contended = steal.contended();
    if (contended) {
      contended_latencies.insert(contended_latencies.end(),
                                 latencies.begin() + mark, latencies.end());
      latencies.resize(mark);
      contended_inferred += inferred - inferred_before;
      contended_busy += busy_seconds - busy_before;
      inferred = inferred_before;
      busy_seconds = busy_before;
    } else {
      ++quiet_rounds;
    }
    budget.add(now_ns() - window_start, contended);
    if (rounds % kRoundsPerRestore == 0) restore_sample();
  } while (budget.more() || rounds < min_rounds ||
           (quiet_rounds < min_rounds && !budget.capped()));
  if (quiet_rounds < min_rounds) {
    latencies.insert(latencies.end(), contended_latencies.begin(),
                     contended_latencies.end());
    inferred += contended_inferred;
    busy_seconds += contended_busy;
  }
  result.facts["host_contended_rounds"] =
      std::to_string(budget.contended_windows());
  while (restores.size() < kMinRestores) restore_sample();
  Digest run_digest;
  for (const auto& d : reference) run_digest.add_bytes(d);
  result.facts["digest"] = run_digest.hex();
  result.facts["rounds"] = std::to_string(rounds);

  if (!options.trace) {
    const double rate = inferred / busy_seconds;
    result.set("samples_per_s", rate, "1/s");
    result.set("decisions_per_s", rate, "1/s");
    add_slot_latency(result, latencies);
    result.set("restore_s", median(restores), "s");
    result.set("setup_s", median(setups), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    cea::nn::set_compute_pool(nullptr);
    return result;
  }

  // Traced run: every Layer::forward in sequence under its own span.
  const double untraced_p50 = median(latencies);
  latencies.clear();
  Tracer& trace = tracer();
  trace.clear();
  trace.set_enabled(true);
  std::map<std::string, double> macs;
  std::map<std::string, std::vector<double>> per_model;
  const std::size_t first_traced = rounds;
  const std::int64_t traced_start = now_ns();
  do {
    const std::size_t b = rounds % kBatchesPerFamily;
    const std::string digest = round(b, true, &macs, &per_model);
    result.check(digest == reference[b],
                 "traced digest differs from the untraced digest on batch " +
                     std::to_string(b));
    ++rounds;
  } while (now_ns() - traced_start <
               static_cast<std::int64_t>(options.seconds * 0.4 * 1e9) ||
           rounds < first_traced + kBatchesPerFamily);
  trace.set_enabled(false);
  trace.attach_program_profile(
      cea::obs::profile_json(cea::obs::snapshot(), {}));
  const double traced_rounds = static_cast<double>(rounds - first_traced);

  for (const char* precision : {"fp32", "int8"}) {
    double gemm_ns = 0.0, gemm_macs = 0.0;
    for (const char* kind : {"dense", "conv", "depthwise", "other"}) {
      const std::string span = std::string("nn.") + precision + "." + kind;
      const double total = trace.total(span);
      result.set(span + "_ms", ns_to_ms(total) / traced_rounds, "ms");
      if (std::strcmp(kind, "dense") == 0 || std::strcmp(kind, "conv") == 0) {
        gemm_ns += total;
        gemm_macs += macs[span];
      }
    }
    result.set(std::string("nn.") + precision + ".gflops",
               2.0 * gemm_macs / std::max(1.0, gemm_ns), "GFLOP/s");
  }
  for (const auto& [name, rates] : per_model) result.set(name, median(rates), "1/s");
  result.set("trace.overhead_pct",
             100.0 * (median(latencies) / untraced_p50 - 1.0), "%");
  cea::nn::set_compute_pool(nullptr);
  zero_fill_per_layer(result);
  return result;
}

}  // namespace perfbench

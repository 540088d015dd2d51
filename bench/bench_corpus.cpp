// Corpus & checkpoint regression harness: the mmap trace store's bulk-read
// path against TraceSet::load, append/commit throughput, checkpoint
// kill/resume identity, and the multi-process shard merge identity.
//
// Modes:
//   * default / --json [--smoke]: run the harness, emit BENCH_corpus.json,
//     and exit nonzero if an identity gate fails (always) or the read
//     speedup gate fails (full runs only; --smoke shrinks the corpus far
//     below the regime the ISSUE's 100k-trace floor is specified at).
//
// The read leg is the headline number: at 100k stored traces the zero-copy
// mmap scan must beat the stream-parsing TraceSet::load by >= 5x. Identity
// legs assert the DESIGN.md §8 contract — kill/resume and 1/2/4-shard runs
// are byte-identical to the plain in-memory campaign.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_checkpoint.hpp"
#include "core/campaign_runner.hpp"
#include "core/corpus_campaign.hpp"
#include "core/shard_driver.hpp"
#include "corpus/trace_store.hpp"
#include "lwe/dbdd.hpp"
#include "obs/diagnostics.hpp"
#include "sca/trace.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

constexpr double kReadSpeedupGate = 5.0;  // corpus scan vs TraceSet::load

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }
};

template <typename F>
double time_best_ms(F&& f, int passes) {
  double best = std::numeric_limits<double>::infinity();
  for (int p = 0; p < passes; ++p) {
    Timer t;
    f();
    best = std::min(best, t.ms());
  }
  return best;
}

CampaignConfig degraded_config() {
  CampaignConfig cfg;
  cfg.n = 64;
  cfg.faults.jitter_sigma = 0.4;
  cfg.faults.dropout_rate = 0.02;
  cfg.faults.glitch_count = 2;
  return cfg;
}

bool reports_identical(const sca::RecoveryReport& a, const sca::RecoveryReport& b) {
  return a == b;
}

std::string diag_json(const obs::Registry& registry,
                      const sca::ConfusionMatrix& confusion) {
  return obs::make_report(registry, nullptr, &confusion).to_json();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  return bytes;
}

// Bitwise content digest over one trace: XOR-folds the sample bit patterns
// across four lanes (bandwidth-bound, no serial FP dependency chain), mixed
// with the label and length. Equal digests in the same trace order certify
// the two stores served byte-identical content without adding a shared
// FP-latency floor to both timed legs.
std::uint64_t trace_digest(std::int32_t label, const double* samples,
                           std::size_t count) {
  std::uint64_t lanes[4] = {0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    std::uint64_t bits[4];
    std::memcpy(bits, samples + i, sizeof(bits));
    lanes[0] ^= bits[0];
    lanes[1] ^= bits[1];
    lanes[2] ^= bits[2];
    lanes[3] ^= bits[3];
  }
  for (; i < count; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, samples + i, sizeof(bits));
    lanes[i % 4] ^= bits;
  }
  std::uint64_t digest = (lanes[0] * 3) ^ (lanes[1] * 5) ^ (lanes[2] * 7) ^
                         (lanes[3] * 11);
  return digest ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(label)) *
                   0x9E3779B97F4A7C15ull) ^
         count;
}

int run_json_harness(bool smoke) {
  const char* out_path = "BENCH_corpus.json";
  const std::string scratch = "BENCH_corpus_scratch_";

  // ---- leg 1: bulk read — mmap corpus scan vs TraceSet::load -------------
  // Synthetic traces: the leg measures storage, not acquisition. Both timed
  // loops fold every served sample into an order-sensitive bitwise digest
  // (see trace_digest), so each pass touches all payload bytes and equal
  // digests certify byte-identical content.
  // Smoke still stores enough traces that the timed scan is well above
  // timer noise — the regression diff gates on the speedup ratio.
  const std::size_t read_traces = smoke ? 20000 : 100000;
  const std::size_t samples_per_trace = 64;
  const std::string corpus_path = scratch + "read.rvlc";
  const std::string traceset_path = scratch + "read.trc";
  {
    std::mt19937_64 rng(0xC0FFEE);
    std::normal_distribution<double> gauss;
    corpus::CorpusWriter writer = corpus::CorpusWriter::create(corpus_path);
    sca::TraceSet set;
    std::vector<double> samples(samples_per_trace);
    for (std::size_t i = 0; i < read_traces; ++i) {
      for (double& v : samples) v = gauss(rng);
      writer.add(static_cast<std::int32_t>(i % 7), samples);
      sca::Trace trace;
      trace.label = static_cast<std::int32_t>(i % 7);
      trace.samples = samples;
      set.add(std::move(trace));
    }
    writer.close();
    set.save(traceset_path);
  }
  const int read_passes = smoke ? 3 : 5;
  std::uint64_t corpus_digest = 0;
  std::size_t corpus_count = 0;
  const double corpus_ms = time_best_ms(
      [&] {
        corpus::ReaderOptions options;
        options.verify_payload_crc = false;  // bulk re-read of a local file
        corpus::CorpusReader reader(corpus_path, options);
        std::uint64_t digest = 0;
        for (std::size_t i = 0; i < reader.size(); ++i) {
          const corpus::TraceView view = reader[i];
          digest = digest * 0x100000001B3ull ^
                   trace_digest(view.label, view.samples.data(), view.samples.size());
        }
        corpus_digest = digest;
        corpus_count = reader.size();
      },
      read_passes);
  std::uint64_t traceset_digest = 0;
  std::size_t traceset_count = 0;
  const double traceset_ms = time_best_ms(
      [&] {
        const sca::TraceSet loaded = sca::TraceSet::load(traceset_path);
        std::uint64_t digest = 0;
        for (std::size_t i = 0; i < loaded.size(); ++i) {
          digest = digest * 0x100000001B3ull ^
                   trace_digest(loaded[i].label, loaded[i].samples.data(),
                                loaded[i].samples.size());
        }
        traceset_digest = digest;
        traceset_count = loaded.size();
      },
      read_passes);
  const double read_speedup = traceset_ms / corpus_ms;
  const bool read_identical = corpus_digest == traceset_digest &&
                              corpus_count == traceset_count &&
                              corpus_count == read_traces;

  // ---- leg 2: append/commit throughput + crash-safe reopen ---------------
  const std::size_t append_traces = smoke ? 10000 : 50000;
  const std::string append_path = scratch + "append.rvlc";
  std::vector<double> append_sample(samples_per_trace, 1.25);
  const double append_ms = time_best_ms(
      [&] {
        corpus::CorpusWriter writer = corpus::CorpusWriter::create(append_path);
        for (std::size_t i = 0; i < append_traces; ++i)
          writer.add(static_cast<std::int32_t>(i), append_sample);
        writer.close();
      },
      1);
  bool append_identical = false;
  {
    // Reopen-for-append must resume exactly where the commit pointer left
    // the file, and the reader must see the full sequence afterwards.
    corpus::CorpusWriter writer = corpus::CorpusWriter::append(append_path);
    const bool resumed = writer.committed_traces() == append_traces;
    writer.add(-1, append_sample);
    writer.close();
    corpus::CorpusReader reader(append_path);
    append_identical = resumed && reader.size() == append_traces + 1 &&
                       reader[append_traces].label == -1 &&
                       reader[0].label == 0;
  }
  const double append_per_sec = 1000.0 * static_cast<double>(append_traces) / append_ms;

  // ---- campaign legs share one trained attack and one reference run ------
  const CampaignConfig cfg = degraded_config();
  const HintPolicy policy;
  const std::uint64_t base_seed = 424242;
  const std::size_t captures = smoke ? 6 : 24;
  const lwe::DbddParams params = bench::seal128_params_for(captures, cfg.n);

  RevealAttack attack;
  {
    CampaignConfig clean;
    clean.n = 64;
    clean.num_workers = 0;
    SamplerCampaign profiler(clean);
    attack.train(profiler.collect_windows(120, /*seed_base=*/1));
  }
  CampaignRunner serial(0);
  CampaignDiagnostics reference_diag;
  const RecoveryCampaignResult reference = serial.run_recovery_campaign(
      attack, cfg, CampaignRunner::stream_seeds(base_seed, captures), policy, params,
      &reference_diag);
  const std::string reference_json =
      diag_json(reference_diag.registry, reference_diag.confusion);

  // ---- leg 3: checkpoint kill/resume identity ----------------------------
  const std::string ckpt_path = scratch + "campaign.ckpt";
  std::remove(ckpt_path.c_str());
  CheckpointOptions uninterrupted_options;
  uninterrupted_options.path = ckpt_path;
  uninterrupted_options.batch_size = 4;
  Timer unint_timer;
  const CheckpointedCampaignResult uninterrupted = run_recovery_campaign_checkpointed(
      serial, attack, cfg, base_seed, captures, policy, params, uninterrupted_options);
  const double uninterrupted_ms = unint_timer.ms();

  CheckpointOptions resume_options = uninterrupted_options;
  resume_options.max_batches_per_call = 1;  // simulated kill at every batch
  std::remove(ckpt_path.c_str());
  Timer resume_timer;
  CheckpointedCampaignResult resumed;
  do {
    CampaignRunner runner(0);  // a fresh process every time, in effect
    resumed = run_recovery_campaign_checkpointed(runner, attack, cfg, base_seed,
                                                 captures, policy, params,
                                                 resume_options);
  } while (!resumed.complete);
  const double resumed_ms = resume_timer.ms();

  const bool checkpoint_identical =
      uninterrupted.complete &&
      reports_identical(uninterrupted.campaign.report, reference.report) &&
      uninterrupted.campaign.hints == reference.hints &&
      reports_identical(resumed.campaign.report, reference.report) &&
      resumed.campaign.hints == reference.hints &&
      diag_json(uninterrupted.diagnostics.registry,
                uninterrupted.diagnostics.confusion) == reference_json &&
      diag_json(resumed.diagnostics.registry, resumed.diagnostics.confusion) ==
          reference_json;

  // ---- leg 4: shard merge identity (1/2/4 shards) ------------------------
  bool shard_identical = true;
  Timer shard_timer;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ShardOptions options;
    options.shards = shards;
    options.work_dir = ".";
    options.in_process = true;  // byte-identical to fork mode by contract
    CampaignDiagnostics sharded_diag;
    const RecoveryCampaignResult sharded = run_sharded_campaign(
        attack, cfg, base_seed, captures, policy, params, options, &sharded_diag);
    shard_identical = shard_identical &&
                      reports_identical(sharded.report, reference.report) &&
                      sharded.hints == reference.hints &&
                      diag_json(sharded_diag.registry, sharded_diag.confusion) ==
                          reference_json;
  }
  const double shard_ms = shard_timer.ms();

  // Sharded corpus construction: the merged file must not depend on the
  // shard count.
  bool shard_corpus_identical = true;
  {
    std::string first;
    for (const std::size_t shards : {1u, 2u}) {
      ShardOptions options;
      options.shards = shards;
      options.work_dir = ".";
      options.in_process = true;
      const std::string dest = scratch + "sharded" + std::to_string(shards) + ".rvlc";
      build_sharded_corpus(dest, cfg, base_seed, captures, options);
      const std::string bytes = read_file(dest);
      if (shards == 1) {
        first = bytes;
      } else {
        shard_corpus_identical = shard_corpus_identical && !bytes.empty() &&
                                 bytes == first;
      }
      std::remove(dest.c_str());
    }
  }

  // ---- gates -------------------------------------------------------------
  const bool identity_ok = read_identical && append_identical &&
                           checkpoint_identical && shard_identical &&
                           shard_corpus_identical;
  const bool speedups_ok = smoke || read_speedup >= kReadSpeedupGate;
  const bool passed = identity_ok && speedups_ok;

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_corpus: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"corpus\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(out,
               "  \"corpus_read\": {\"traces\": %zu, \"samples_per_trace\": %zu, "
               "\"corpus_ms\": %.2f, \"traceset_ms\": %.2f, \"speedup\": %.2f, "
               "\"identical\": %s},\n",
               read_traces, samples_per_trace, corpus_ms, traceset_ms, read_speedup,
               read_identical ? "true" : "false");
  std::fprintf(out,
               "  \"corpus_append\": {\"traces\": %zu, \"append_ms\": %.2f, "
               "\"traces_per_sec\": %.0f, \"identical\": %s},\n",
               append_traces, append_ms, append_per_sec,
               append_identical ? "true" : "false");
  std::fprintf(out,
               "  \"checkpoint_resume\": {\"captures\": %zu, \"batch_size\": %zu, "
               "\"uninterrupted_ms\": %.2f, \"resumed_ms\": %.2f, \"identical\": %s},\n",
               captures, uninterrupted_options.batch_size, uninterrupted_ms,
               resumed_ms, checkpoint_identical ? "true" : "false");
  std::fprintf(out,
               "  \"shard_merge\": {\"captures\": %zu, \"shard_counts\": [1, 2, 4], "
               "\"wall_ms\": %.2f, \"identical\": %s, \"corpus_identical\": %s},\n",
               captures, shard_ms, shard_identical ? "true" : "false",
               shard_corpus_identical ? "true" : "false");
  std::fprintf(out,
               "  \"gates\": {\"read_speedup_min\": %.1f, \"enforced\": %s},\n",
               kReadSpeedupGate, smoke ? "false" : "true");
  std::fprintf(out, "  \"passed\": %s\n}\n", passed ? "true" : "false");
  std::fclose(out);

  std::printf("corpus_read       %7zu traces  corpus %8.2f ms  traceset %8.2f ms  "
              "speedup %5.2fx  identical %d\n",
              read_traces, corpus_ms, traceset_ms, read_speedup, read_identical);
  std::printf("corpus_append     %7zu traces  %8.2f ms  (%.0f traces/s)  resume ok %d\n",
              append_traces, append_ms, append_per_sec, append_identical);
  std::printf("checkpoint_resume %7zu captures  uninterrupted %8.2f ms  resumed "
              "%8.2f ms  identical %d\n",
              captures, uninterrupted_ms, resumed_ms, checkpoint_identical);
  std::printf("shard_merge       %7zu captures  1/2/4 shards  %8.2f ms  identical %d  "
              "corpus identical %d\n",
              captures, shard_ms, shard_identical, shard_corpus_identical);

  std::remove(corpus_path.c_str());
  std::remove(traceset_path.c_str());
  std::remove(append_path.c_str());
  std::remove(ckpt_path.c_str());

  if (!passed) {
    std::fprintf(stderr, "bench_corpus: gate FAILED (identity %s, speedups %s)\n",
                 identity_ok ? "ok" : "FAILED", speedups_ok ? "ok" : "FAILED");
    return 1;
  }
  std::printf("bench_corpus: all gates passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {{"--json"}, {"--smoke"}});
  return run_json_harness(cli.has("--smoke"));
}

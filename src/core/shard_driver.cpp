#include "core/shard_driver.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/corpus_campaign.hpp"
#include "numeric/binary_io.hpp"

namespace reveal::core {

namespace {

constexpr std::uint32_t kShardMarker = 0x52'56'53'48;  // "HSVR"
constexpr std::uint32_t kShardVersion = 1;

void save_partial(const std::string& path, std::uint64_t digest, std::size_t shard,
                  std::size_t shards, std::uint64_t begin, std::uint64_t end,
                  const CampaignAccumulator& acc) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("shard driver: cannot write " + path);
  num::io::write_pod<std::uint32_t>(out, kShardMarker);
  num::io::write_pod<std::uint32_t>(out, kShardVersion);
  num::io::write_pod<std::uint64_t>(out, digest);
  num::io::write_pod<std::uint64_t>(out, shard);
  num::io::write_pod<std::uint64_t>(out, shards);
  num::io::write_pod<std::uint64_t>(out, begin);
  num::io::write_pod<std::uint64_t>(out, end);
  acc.save(out);
  out.flush();
  if (!out) throw std::runtime_error("shard driver: write failed for " + path);
}

CampaignAccumulator load_partial(const std::string& path, std::uint64_t digest,
                                 std::size_t shard, std::size_t shards,
                                 std::uint64_t begin, std::uint64_t end) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("shard driver: missing partial " + path);
  num::io::expect_marker(in, kShardMarker, "shard partial");
  if (num::io::read_pod<std::uint32_t>(in) != kShardVersion)
    throw std::runtime_error("shard driver: unsupported partial version in " + path);
  if (num::io::read_pod<std::uint64_t>(in) != digest)
    throw std::runtime_error("shard driver: campaign digest mismatch in " + path);
  if (num::io::read_pod<std::uint64_t>(in) != shard ||
      num::io::read_pod<std::uint64_t>(in) != shards)
    throw std::runtime_error("shard driver: shard identity mismatch in " + path);
  if (num::io::read_pod<std::uint64_t>(in) != begin ||
      num::io::read_pod<std::uint64_t>(in) != end)
    throw std::runtime_error("shard driver: schedule range mismatch in " + path);
  CampaignAccumulator acc = CampaignAccumulator::load(in);
  if (acc.next_index != end - begin)
    throw std::runtime_error("shard driver: partial covers wrong capture count in " +
                             path);
  return acc;
}

/// Runs `work(shard)` once per shard — in fork()ed children, or serially in
/// this process when options.in_process is set. Each child communicates
/// only through its partial file and its exit status; a nonzero status (or
/// abnormal termination) surfaces as a runtime_error after every child has
/// been reaped.
void run_shards(const ShardOptions& options,
                const std::function<void(std::size_t)>& work) {
  if (options.shards == 0)
    throw std::invalid_argument("shard driver: zero shards");
  if (options.in_process) {
    for (std::size_t s = 0; s < options.shards; ++s) work(s);
    return;
  }
  // Flush before forking so buffered stdio is not emitted once per child.
  std::fflush(nullptr);
  std::vector<pid_t> children;
  children.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    const pid_t pid = fork();
    if (pid < 0) {
      for (const pid_t c : children) waitpid(c, nullptr, 0);
      throw std::runtime_error("shard driver: fork failed");
    }
    if (pid == 0) {
      // Child: all state travels through the partial file. _exit skips
      // atexit/static destructors inherited from the parent.
      try {
        work(s);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "shard %zu failed: %s\n", s, e.what());
        std::fflush(stderr);
        _exit(1);
      } catch (...) {
        std::fprintf(stderr, "shard %zu failed: unknown exception\n", s);
        std::fflush(stderr);
        _exit(1);
      }
      _exit(0);
    }
    children.push_back(pid);
  }
  std::size_t failures = 0;
  for (std::size_t s = 0; s < children.size(); ++s) {
    int status = 0;
    if (waitpid(children[s], &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ++failures;
    }
  }
  if (failures > 0)
    throw std::runtime_error("shard driver: " + std::to_string(failures) +
                             " shard process(es) failed");
}

/// A directory of its own under work_dir for one sharded call's files, so
/// concurrent calls sharing a work_dir never read each other's partials.
/// Removed with everything in it when the call ends, unless the caller
/// keeps the partials. Forked children leave through _exit and never run
/// the destructor.
class RunDir {
 public:
  RunDir(const std::string& work_dir, bool keep) : keep_(keep) {
    if (work_dir.empty()) throw std::invalid_argument("shard driver: empty work_dir");
    std::string path = work_dir + "/reveal_shards_XXXXXX";
    if (mkdtemp(path.data()) == nullptr)
      throw std::runtime_error("shard driver: cannot create a run directory in " + work_dir);
    path_ = std::move(path);
  }
  ~RunDir() {
    if (keep_) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  /// `<kind>_<digest>_shard_<k><ext>` inside the run directory.
  [[nodiscard]] std::string file(const char* kind, std::uint64_t digest, std::size_t shard,
                                 const char* ext) const {
    char name[96];
    std::snprintf(name, sizeof name, "/%s_%016llx_shard_%zu%s", kind,
                  static_cast<unsigned long long>(digest), shard, ext);
    return path_ + name;
  }

 private:
  std::string path_;
  bool keep_;
};

}  // namespace

std::pair<std::uint64_t, std::uint64_t> shard_range(std::uint64_t total,
                                                    std::size_t shards,
                                                    std::size_t shard) {
  if (shards == 0) throw std::invalid_argument("shard_range: zero shards");
  if (shard >= shards) throw std::out_of_range("shard_range: shard index");
  const std::uint64_t per = (total + shards - 1) / shards;  // ceil split
  const std::uint64_t begin = std::min<std::uint64_t>(per * shard, total);
  const std::uint64_t end = std::min<std::uint64_t>(begin + per, total);
  return {begin, end};
}

RecoveryCampaignResult run_sharded_campaign(
    const RevealAttack& attack, const CampaignConfig& config,
    std::uint64_t base_seed, std::size_t total_captures, const HintPolicy& policy,
    const lwe::DbddParams& params, const ShardOptions& options, CampaignDiagnostics* diag) {
  require_hint_capacity(total_captures, config.n, params);
  const std::uint64_t digest = campaign_digest(base_seed, total_captures, config);
  const RunDir dir(options.work_dir, options.keep_partials);
  const auto partial = [&](std::size_t shard) {
    return dir.file("campaign", digest, shard, ".partial");
  };
  const std::vector<std::uint64_t> seeds =
      CampaignRunner::stream_seeds(base_seed, total_captures);

  run_shards(options, [&](std::size_t shard) {
    const auto [begin, end] = shard_range(total_captures, options.shards, shard);
    CampaignRunner runner(options.workers_per_shard);
    CampaignAccumulator acc;
    obs::SpanTracer dropped;  // spans never leave a shard (see the header)
    accumulate_campaign_range(runner.pool(), attack, TraceSource{config, seeds}, begin, end,
                              policy, acc, &dropped);
    save_partial(partial(shard), digest, shard, options.shards, begin, end, acc);
  });

  // Fixed shard-order merge: ranges are contiguous by construction, so the
  // concatenated hints/consistency sequences are exactly the capture-order
  // sequences of an unsharded run.
  CampaignAccumulator global;
  for (std::size_t shard = 0; shard < options.shards; ++shard) {
    const auto [begin, end] = shard_range(total_captures, options.shards, shard);
    if (global.next_index != begin)
      throw std::logic_error("run_sharded_campaign: non-contiguous shard ranges");
    global.append(
        load_partial(partial(shard), digest, shard, options.shards, begin, end));
  }
  if (global.next_index != total_captures)
    throw std::logic_error("run_sharded_campaign: merged partials do not cover the "
                           "schedule");

  return finalize_campaign(std::move(global), config.n, params, diag, nullptr);
}

void build_sharded_corpus(const std::string& dest_path, const CampaignConfig& config,
                          std::uint64_t base_seed, std::size_t total_captures,
                          const ShardOptions& options,
                          const corpus::WriterOptions& writer_options) {
  const std::uint64_t digest = campaign_digest(base_seed, total_captures, config);
  const RunDir dir(options.work_dir, options.keep_partials);
  const std::vector<std::uint64_t> seeds =
      CampaignRunner::stream_seeds(base_seed, total_captures);

  run_shards(options, [&](std::size_t shard) {
    const auto [begin, end] = shard_range(total_captures, options.shards, shard);
    CampaignRunner runner(options.workers_per_shard);
    corpus::CorpusWriter writer = corpus::CorpusWriter::create(
        dir.file("corpus", digest, shard, ".rvlc"), writer_options);
    append_campaign_captures(writer, runner, config,
                             std::span(seeds).subspan(begin, end - begin), begin);
    writer.close();
  });

  std::vector<std::string> sources;
  sources.reserve(options.shards);
  for (std::size_t shard = 0; shard < options.shards; ++shard)
    sources.push_back(dir.file("corpus", digest, shard, ".rvlc"));
  corpus::merge_corpora(dest_path, sources, writer_options);
}

}  // namespace reveal::core

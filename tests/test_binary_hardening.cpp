// Fuzz-style corrupt-input suite for every binary loader (run under both
// REVEAL_SANITIZE configs by tests/CMakeLists.txt): truncation sweeps must
// throw on every strict prefix, and single-byte corruption sweeps must
// either throw or return — never crash, over-allocate, or trip a sanitizer.
// Also pins the two hardening fixes this layer grew from: the uint64 wrap
// in seal's n * k element guard and TraceSet::load's remaining-bytes caps.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign_checkpoint.hpp"
#include "numeric/binary_io.hpp"
#include "obs/metrics.hpp"
#include "sca/report.hpp"
#include "sca/trace.hpp"
#include "seal/serialization.hpp"
#include "temp_dir.hpp"

using namespace reveal;

namespace {

using Loader = std::function<void(std::istream&)>;

std::string serialize(const std::function<void(std::ostream&)>& saver) {
  std::ostringstream out(std::ios::binary);
  saver(out);
  return out.str();
}

/// Every strict prefix of a serialized blob must throw (all formats carry
/// enough structure — markers, counts, trailing data — that a cut anywhere
/// is detectable).
void expect_truncations_throw(const std::string& bytes, const Loader& loader) {
  ASSERT_FALSE(bytes.empty());
  const std::size_t stride = bytes.size() > 4096 ? 31 : 1;
  for (std::size_t len = 0; len < bytes.size(); len += stride) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(loader(in), std::exception) << "prefix of " << len << " bytes parsed";
  }
}

/// Byte-corruption sweep: a flipped byte may or may not be detectable (a
/// flipped double payload is just a different value), but the loader must
/// always either throw or return — bounds violations, overflow, and wild
/// allocations show up under the sanitizer configs.
void expect_corruptions_contained(const std::string& bytes, const Loader& loader) {
  const std::size_t stride = bytes.size() > 4096 ? 13 : 1;
  for (const unsigned char pattern : {0xFFu, 0x01u, 0x80u}) {
    for (std::size_t pos = 0; pos < bytes.size(); pos += stride) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ static_cast<char>(pattern));
      std::istringstream in(mutated, std::ios::binary);
      try {
        loader(in);
      } catch (const std::exception&) {
        // rejected — fine; crashing or sanitizer reports are the failures
      }
    }
  }
}

void run_sweeps(const std::string& bytes, const Loader& loader) {
  expect_truncations_throw(bytes, loader);
  expect_corruptions_contained(bytes, loader);
}

using reveal::test::temp_path;

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- numeric/binary_io primitives ------------------------------------------

TEST(BinaryHardening, ReadVecRejectsImplausibleCounts) {
  std::ostringstream out(std::ios::binary);
  num::io::write_pod<std::uint64_t>(out, std::uint64_t{1} << 60);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW((void)num::io::read_vec<double>(in, 1 << 20), std::runtime_error);
}

TEST(BinaryHardening, ReadStringRejectsOversizedLength) {
  std::ostringstream out(std::ios::binary);
  num::io::write_pod<std::uint64_t>(out, std::uint64_t{1} << 40);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW((void)num::io::read_string(in), std::runtime_error);
}

// --- sca::TraceSet (file-based) --------------------------------------------

TEST(BinaryHardening, TraceSetLoadSurvivesCorruptFiles) {
  sca::TraceSet set;
  for (int t = 0; t < 6; ++t) {
    sca::Trace trace;
    trace.label = t;
    trace.samples.resize(32 + 5 * static_cast<std::size_t>(t));
    for (std::size_t i = 0; i < trace.samples.size(); ++i)
      trace.samples[i] = 0.25 * static_cast<double>(i) - t;
    set.add(std::move(trace));
  }
  const std::string path = temp_path("traceset.bin");
  set.save(path);
  const std::string bytes = read_file(path);

  const std::string probe = temp_path("traceset_probe.bin");
  const std::size_t stride = bytes.size() > 4096 ? 31 : 1;
  for (std::size_t len = 0; len < bytes.size(); len += stride) {
    write_file(probe, bytes.substr(0, len));
    EXPECT_THROW((void)sca::TraceSet::load(probe), std::runtime_error)
        << "prefix of " << len << " bytes parsed";
  }
  for (const unsigned char pattern : {0xFFu, 0x01u}) {
    for (std::size_t pos = 0; pos < bytes.size(); pos += stride) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ static_cast<char>(pattern));
      write_file(probe, mutated);
      try {
        (void)sca::TraceSet::load(probe);
      } catch (const std::exception&) {
      }
    }
  }
}

TEST(BinaryHardening, TraceSetLoadRejectsOverdeclaredCountWithoutAllocating) {
  sca::TraceSet set;
  sca::Trace trace;
  trace.samples = {1.0, 2.0, 3.0};
  set.add(std::move(trace));
  const std::string path = temp_path("traceset_count.bin");
  set.save(path);
  std::string bytes = read_file(path);
  // Patch the trace-count field (right after the 4-byte magic) to a count
  // no remaining-bytes budget can cover; load must throw, not reserve.
  const std::uint64_t huge = std::uint64_t{1} << 61;
  std::memcpy(bytes.data() + 4, &huge, sizeof(huge));
  write_file(path, bytes);
  EXPECT_THROW((void)sca::TraceSet::load(path), std::runtime_error);
}

// --- seal serialization -----------------------------------------------------

TEST(BinaryHardening, SealLoadersSurviveCorruptStreams) {
  seal::Poly poly(64, 3);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 64; ++i) poly.at(i, j) = i * 131 + j;
  run_sweeps(serialize([&](std::ostream& out) { seal::save_poly(poly, out); }),
             [](std::istream& in) { (void)seal::load_poly(in); });
}

TEST(BinaryHardening, SealPolyDimensionProductCannotWrap) {
  // Regression for the n * k > kMaxElements guard: with n = k = 2^32 the
  // product wraps uint64 to 0 and the old check passed, sizing a huge
  // resize. The division-form guard must reject it before any allocation.
  seal::Poly poly(4, 1);
  std::string bytes = serialize([&](std::ostream& out) { seal::save_poly(poly, out); });
  const std::uint64_t wrap = std::uint64_t{1} << 32;
  // Layout: u32 tag, u32 version, u64 coeff_count, u64 coeff_mod_count.
  std::memcpy(bytes.data() + 8, &wrap, sizeof(wrap));
  std::memcpy(bytes.data() + 16, &wrap, sizeof(wrap));
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW((void)seal::load_poly(in), std::runtime_error);
}

// --- sca / obs serialized state ---------------------------------------------

TEST(BinaryHardening, RegistryLoadSurvivesCorruptStreams) {
  obs::Registry reg;
  const auto c = reg.counter("capture.count");
  reg.add(c, 41);
  reg.set_max(reg.gauge("queue.depth.max"), 17.5);
  const auto h = reg.histogram("segmentation.quality", 0.0, 1.0, 16);
  for (int i = 0; i < 50; ++i) reg.observe(h, 0.02 * i);
  const std::string bytes = serialize([&](std::ostream& out) { reg.save(out); });
  {
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_TRUE(obs::Registry::load(in).same_metrics(reg));  // exact round-trip
  }
  run_sweeps(bytes, [](std::istream& in) { (void)obs::Registry::load(in); });
}

TEST(BinaryHardening, ConfusionMatrixLoadSurvivesCorruptStreams) {
  sca::ConfusionMatrix confusion;
  for (int t = -3; t <= 3; ++t)
    for (int p = -3; p <= 3; ++p)
      for (int reps = 0; reps <= (t == p ? 6 : 1); ++reps) confusion.add(t, p);
  const std::string bytes = serialize([&](std::ostream& out) { confusion.save(out); });
  {
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_EQ(sca::ConfusionMatrix::load(in), confusion);  // exact round-trip
  }
  run_sweeps(bytes, [](std::istream& in) { (void)sca::ConfusionMatrix::load(in); });
}

TEST(BinaryHardening, CampaignAccumulatorLoadSurvivesCorruptStreams) {
  core::CampaignAccumulator acc;
  acc.next_index = 3;
  acc.hints.resize(3);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t g = 0; g < 2 + c; ++g) {
      core::HintRecord r;
      r.kind = static_cast<core::HintRecord::Kind>((c + g) % 4);
      r.variance = 0.125 * static_cast<double>(g + 1);
      acc.hints[c].push_back(r);
      acc.worker_tally.add(r);
    }
    acc.capture_consistency.push_back(0.5 + 0.1 * static_cast<double>(c));
  }
  acc.recovered_windows = 180;
  acc.segmentation_attempts = 4;
  acc.worst_status = sca::SegmentationStatus::kRecovered;
  acc.ok_guesses = 150;
  acc.low_confidence_guesses = 20;
  acc.abstained_guesses = 10;
  acc.registry.add(acc.registry.counter("capture.count"), 3);
  acc.confusion.add(1, 1);
  acc.confusion.add(1, -1);

  const std::string bytes = serialize([&](std::ostream& out) { acc.save(out); });
  {
    std::istringstream in(bytes, std::ios::binary);
    const core::CampaignAccumulator loaded = core::CampaignAccumulator::load(in);
    EXPECT_EQ(loaded.next_index, acc.next_index);
    EXPECT_EQ(loaded.hints, acc.hints);
    EXPECT_EQ(loaded.capture_consistency, acc.capture_consistency);
    // Only the tally's counts persist (its variance sum is schedule-dependent).
    EXPECT_EQ(loaded.worker_tally.perfect, acc.worker_tally.perfect);
    EXPECT_EQ(loaded.worker_tally.approximate, acc.worker_tally.approximate);
    EXPECT_EQ(loaded.worker_tally.sign_only, acc.worker_tally.sign_only);
    EXPECT_EQ(loaded.worker_tally.skipped, acc.worker_tally.skipped);
    EXPECT_EQ(loaded.worst_status, acc.worst_status);
    EXPECT_TRUE(loaded.registry.same_metrics(acc.registry));
    EXPECT_EQ(loaded.confusion, acc.confusion);
  }
  run_sweeps(bytes, [](std::istream& in) { (void)core::CampaignAccumulator::load(in); });
}

}  // namespace

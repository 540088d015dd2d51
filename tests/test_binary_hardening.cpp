// Fuzz-style corrupt-input suite for every binary loader (run under both
// REVEAL_SANITIZE configs by tests/CMakeLists.txt): truncation sweeps must
// throw on every strict prefix, and single-byte corruption sweeps must
// either throw or return — never crash, over-allocate, or trip a sanitizer.
// Also pins the two hardening fixes this layer grew from: seal's poly shape
// guard (once an n * k product that wrapped uint64) and TraceSet::load's
// remaining-bytes caps.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

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

seal::Poly numbered_poly(std::size_t n, std::uint64_t offset) {
  seal::Poly poly(n);
  for (std::size_t i = 0; i < n; ++i) poly[i] = i * 131 + offset;
  return poly;
}

TEST(BinaryHardening, SealLoadersSurviveCorruptStreams) {
  const seal::Poly poly = numbered_poly(64, 1);
  run_sweeps(serialize([&](std::ostream& out) { seal::save_poly(poly, out); }),
             [](std::istream& in) { (void)seal::load_poly(in); });
  seal::Ciphertext ct;
  ct.push_back(numbered_poly(16, 2));
  ct.push_back(numbered_poly(16, 3));
  run_sweeps(serialize([&](std::ostream& out) { seal::save_ciphertext(ct, out); }),
             [](std::istream& in) { (void)seal::load_ciphertext(in); });
}

TEST(BinaryHardening, SealPolyDimensionProductCannotWrap) {
  // Regression for the old n * k > kMaxElements guard: with n = k = 2^32
  // the product wrapped uint64 to 0 and the check passed, sizing a huge
  // resize. The shape guard must reject these before any allocation.
  const seal::Poly poly = numbered_poly(4, 0);
  const std::string bytes = serialize([&](std::ostream& out) { seal::save_poly(poly, out); });
  // Layout: u32 tag, u32 version, u64 coeff_count, u64 component count.
  const auto patched = [&bytes](std::uint64_t n, std::uint64_t components) {
    std::string out = bytes;
    std::memcpy(out.data() + 8, &n, sizeof(n));
    std::memcpy(out.data() + 16, &components, sizeof(components));
    return out;
  };
  const std::uint64_t wrap = std::uint64_t{1} << 32;
  for (const std::string& shape : {patched(wrap, wrap), patched(wrap, 1)}) {
    std::istringstream in(shape, std::ios::binary);
    EXPECT_THROW((void)seal::load_poly(in), std::runtime_error);
  }
}

TEST(BinaryHardening, SealLoadersRejectOtherComponentCounts) {
  // A poly body holds one component (the residues mod the one coefficient
  // modulus) and a ciphertext exactly two polys. Files written with more
  // components must be rejected, not misread; every payload word is
  // present, so the count alone decides.
  seal::Poly poly = numbered_poly(8, 0);
  std::string bytes = serialize([&](std::ostream& out) { seal::save_poly(poly, out); });
  const std::uint64_t two = 2;
  std::memcpy(bytes.data() + 16, &two, sizeof(two));
  bytes += bytes.substr(24);  // a second component's words
  std::istringstream poly_in(bytes, std::ios::binary);
  EXPECT_THROW((void)seal::load_poly(poly_in), std::runtime_error);

  seal::Ciphertext ct;
  ct.push_back(numbered_poly(8, 1));
  ct.push_back(numbered_poly(8, 2));
  const std::string ct_bytes =
      serialize([&](std::ostream& out) { seal::save_ciphertext(ct, out); });
  // Header (tag, version, size), then each poly's n and component count.
  std::string two_component_polys = ct_bytes;
  std::memcpy(two_component_polys.data() + 16 + 8, &two, sizeof(two));
  two_component_polys += std::string(8 * 8, '\0');
  const std::string path = temp_path("ct_two_components.bin");
  write_file(path, two_component_polys);
  EXPECT_THROW((void)seal::load_ciphertext_file(path), std::runtime_error);

  ct.push_back(numbered_poly(8, 3));  // three polys
  write_file(path, serialize([&](std::ostream& out) { seal::save_ciphertext(ct, out); }));
  EXPECT_THROW((void)seal::load_ciphertext_file(path), std::runtime_error);
  write_file(path, ct_bytes);
  EXPECT_EQ(seal::load_ciphertext_file(path)[1], ct[1]);
}

}  // namespace

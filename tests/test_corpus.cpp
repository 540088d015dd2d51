// Corpus store suite: round-trips, append/reopen, crash-safety (torn chunk
// tails, torn commit slots), bit-flip detection, and the writer-determinism
// contract the shard driver's merge leans on (corpus bytes are a pure
// function of the appended sequence and the chunking options).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "corpus/corpus_format.hpp"
#include "corpus/trace_store.hpp"
#include "temp_dir.hpp"

using namespace reveal::corpus;

namespace {

using reveal::test::temp_path;

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

/// Deterministic ragged test traces: lengths vary (including an empty
/// trace) so record padding and offset-table paths all get exercised.
std::vector<std::vector<double>> make_traces(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<std::vector<double>> traces(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = (i % 7 == 3) ? 0 : 16 + (i * 13) % 90;
    traces[i].resize(len);
    for (double& v : traces[i]) v = dist(rng);
  }
  return traces;
}

void expect_corpus_equals(const CorpusReader& reader,
                          const std::vector<std::vector<double>>& traces,
                          std::size_t base_label = 0) {
  ASSERT_EQ(reader.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const TraceView view = reader[i];
    EXPECT_EQ(view.label, static_cast<std::int32_t>(base_label + i));
    ASSERT_EQ(view.samples.size(), traces[i].size()) << "trace " << i;
    for (std::size_t s = 0; s < traces[i].size(); ++s) {
      EXPECT_EQ(view.samples[s], traces[i][s]);  // bit-equal through the mapping
    }
    // The format guarantees natural alignment for the zero-copy doubles.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.samples.data()) % alignof(double),
              0u);
  }
}

TEST(Corpus, RoundTripAcrossChunkBoundaries) {
  const std::string path = temp_path("roundtrip.rvlc");
  const auto traces = make_traces(100, 42);
  WriterOptions options;
  options.traces_per_chunk = 16;  // force several auto-commits
  {
    CorpusWriter writer = CorpusWriter::create(path, options);
    for (std::size_t i = 0; i < traces.size(); ++i)
      writer.add(static_cast<std::int32_t>(i), traces[i]);
    writer.close();
    EXPECT_EQ(writer.committed_traces(), traces.size());
    EXPECT_GE(writer.committed_chunks(), traces.size() / options.traces_per_chunk);
  }
  CorpusReader reader(path);
  expect_corpus_equals(reader, traces);
  EXPECT_THROW((void)reader.at(traces.size()), std::out_of_range);
}

TEST(Corpus, MaterializeCopiesOutOfTheMapping) {
  const std::string path = temp_path("materialize.rvlc");
  const auto traces = make_traces(5, 7);
  CorpusWriter writer = CorpusWriter::create(path);
  for (std::size_t i = 0; i < traces.size(); ++i)
    writer.add(static_cast<std::int32_t>(i), traces[i]);
  writer.close();
  CorpusReader reader(path);
  const reveal::sca::Trace t = reader.materialize(2);
  EXPECT_EQ(t.label, 2);
  EXPECT_EQ(t.samples, traces[2]);
}

TEST(Corpus, AppendReopensAndExtends) {
  const std::string path = temp_path("append.rvlc");
  const auto traces = make_traces(40, 9);
  {
    CorpusWriter writer = CorpusWriter::create(path);
    for (std::size_t i = 0; i < 25; ++i)
      writer.add(static_cast<std::int32_t>(i), traces[i]);
    writer.close();
  }
  {
    CorpusWriter writer = CorpusWriter::append(path);
    EXPECT_EQ(writer.committed_traces(), 25u);
    for (std::size_t i = 25; i < traces.size(); ++i)
      writer.add(static_cast<std::int32_t>(i), traces[i]);
    writer.close();
  }
  CorpusReader reader(path);
  expect_corpus_equals(reader, traces);
}

TEST(Corpus, TornChunkTailIsInvisibleAndTruncatedOnReopen) {
  const std::string path = temp_path("torn_tail.rvlc");
  const auto traces = make_traces(20, 11);
  {
    CorpusWriter writer = CorpusWriter::create(path);
    for (std::size_t i = 0; i < traces.size(); ++i)
      writer.add(static_cast<std::int32_t>(i), traces[i]);
    writer.close();
  }
  // Simulate a kill mid-append: garbage chunk bytes past the commit pointer.
  auto bytes = read_file(path);
  const std::size_t committed = bytes.size();
  for (int i = 0; i < 200; ++i) bytes.push_back(static_cast<char>(0x5A ^ i));
  write_file(path, bytes);

  {
    CorpusReader reader(path);  // torn tail never reaches the reader
    expect_corpus_equals(reader, traces);
    EXPECT_EQ(reader.committed_bytes(), committed);
  }
  {
    CorpusWriter writer = CorpusWriter::append(path);  // truncates the tail
    writer.add(1000, traces[0]);
    writer.close();
  }
  EXPECT_EQ(read_file(path).size(), committed + kChunkHeaderBytes + 8 +
                                        kTraceRecordHeaderBytes +
                                        traces[0].size() * sizeof(double));
  CorpusReader reader(path);
  ASSERT_EQ(reader.size(), traces.size() + 1);
  EXPECT_EQ(reader[traces.size()].label, 1000);
}

TEST(Corpus, TornCommitSlotFallsBackToPreviousCommit) {
  const std::string path = temp_path("torn_slot.rvlc");
  const auto traces = make_traces(8, 13);
  {
    CorpusWriter writer = CorpusWriter::create(path);
    for (std::size_t i = 0; i < 4; ++i)
      writer.add(static_cast<std::int32_t>(i), traces[i]);
    writer.commit();  // seq 2 -> slot 0
    for (std::size_t i = 4; i < 8; ++i)
      writer.add(static_cast<std::int32_t>(i), traces[i]);
    writer.commit();  // seq 3 -> slot 1
    writer.close();
  }
  {
    CorpusReader full(path);
    ASSERT_EQ(full.size(), 8u);
  }
  // Tear the latest slot (seq 3 lives in slot seq % 2 == 1): its CRC fails
  // and both reader and appender must fall back to the seq-2 state.
  auto bytes = read_file(path);
  const std::size_t slot1 = offsetof(FileHeader, slots) + sizeof(CommitRecord);
  bytes[slot1 + 4] = static_cast<char>(bytes[slot1 + 4] ^ 0xFF);
  write_file(path, bytes);

  CorpusReader reader(path);
  ASSERT_EQ(reader.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(reader[i].label, static_cast<int>(i));

  {
    CorpusWriter writer = CorpusWriter::append(path);
    EXPECT_EQ(writer.committed_traces(), 4u);  // second chunk rolled back
    writer.add(99, traces[0]);
    writer.close();
  }
  CorpusReader after(path);
  ASSERT_EQ(after.size(), 5u);
  EXPECT_EQ(after[4].label, 99);
}

TEST(Corpus, BothSlotsTornIsRejected) {
  const std::string path = temp_path("both_slots.rvlc");
  {
    CorpusWriter writer = CorpusWriter::create(path);
    writer.add(0, std::vector<double>{1.0, 2.0});
    writer.close();
  }
  auto bytes = read_file(path);
  const std::size_t slots = offsetof(FileHeader, slots);
  for (std::size_t s = 0; s < 2; ++s)
    bytes[slots + s * sizeof(CommitRecord)] ^= static_cast<char>(0x41);
  write_file(path, bytes);
  EXPECT_THROW(CorpusReader reader(path), std::runtime_error);
  EXPECT_THROW((void)CorpusWriter::append(path), std::runtime_error);
}

TEST(Corpus, PayloadBitFlipIsDetected) {
  const std::string path = temp_path("bitflip.rvlc");
  const auto traces = make_traces(10, 17);
  {
    CorpusWriter writer = CorpusWriter::create(path);
    for (std::size_t i = 0; i < traces.size(); ++i)
      writer.add(static_cast<std::int32_t>(i), traces[i]);
    writer.close();
  }
  auto bytes = read_file(path);
  // Flip one bit deep in the sample payload of the single chunk.
  bytes[bytes.size() - 24] ^= 0x10;
  write_file(path, bytes);
  EXPECT_THROW(CorpusReader reader(path), std::runtime_error);  // payload CRC
  ReaderOptions trusting;
  trusting.verify_payload_crc = false;
  CorpusReader reader(path, trusting);  // structural walk alone still passes
  EXPECT_EQ(reader.size(), traces.size());
}

TEST(Corpus, WriterBytesAreAPureFunctionOfTheSequence) {
  const auto traces = make_traces(60, 23);
  WriterOptions options;
  options.traces_per_chunk = 8;
  const std::string a = temp_path("pure_a.rvlc");
  const std::string b = temp_path("pure_b.rvlc");
  for (const std::string& path : {a, b}) {
    CorpusWriter writer = CorpusWriter::create(path, options);
    for (std::size_t i = 0; i < traces.size(); ++i)
      writer.add(static_cast<std::int32_t>(i), traces[i]);
    writer.close();
  }
  EXPECT_EQ(read_file(a), read_file(b));
}

TEST(Corpus, MergeMatchesDirectWriteByteForByte) {
  // The shard-merge contract: per-shard corpora over contiguous ranges,
  // merged in shard order, equal the single-writer corpus bit-for-bit.
  const auto traces = make_traces(50, 29);
  WriterOptions options;
  options.traces_per_chunk = 8;

  const std::string direct = temp_path("merge_direct.rvlc");
  {
    CorpusWriter writer = CorpusWriter::create(direct, options);
    for (std::size_t i = 0; i < traces.size(); ++i)
      writer.add(static_cast<std::int32_t>(i), traces[i]);
    writer.close();
  }

  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::vector<std::string> sources;
    const std::size_t per = (traces.size() + shards - 1) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = std::min(per * s, traces.size());
      const std::size_t end = std::min(begin + per, traces.size());
      // Shard files use a *different* chunking than the merge target — the
      // merged bytes must depend only on the trace sequence.
      WriterOptions shard_options;
      shard_options.traces_per_chunk = 3 + s;
      const std::string path =
          temp_path("merge_shard_" + std::to_string(shards) + "_" + std::to_string(s));
      CorpusWriter writer = CorpusWriter::create(path, shard_options);
      for (std::size_t i = begin; i < end; ++i)
        writer.add(static_cast<std::int32_t>(i), traces[i]);
      writer.close();
      sources.push_back(path);
    }
    const std::string merged = temp_path("merged_" + std::to_string(shards) + ".rvlc");
    merge_corpora(merged, sources, options);
    EXPECT_EQ(read_file(merged), read_file(direct));
  }
}

TEST(Corpus, EmptyCorpusRoundTrips) {
  const std::string path = temp_path("empty.rvlc");
  {
    CorpusWriter writer = CorpusWriter::create(path);
    writer.close();
  }
  CorpusReader reader(path);
  EXPECT_TRUE(reader.empty());
  EXPECT_EQ(reader.chunk_count(), 0u);
  merge_corpora(temp_path("empty_merged.rvlc"), {path, path});
  CorpusReader merged(temp_path("empty_merged.rvlc"));
  EXPECT_TRUE(merged.empty());
}

TEST(Corpus, PayloadBudgetForcesEarlyCommits) {
  const std::string path = temp_path("budget.rvlc");
  WriterOptions options;
  options.traces_per_chunk = 1 << 20;  // never reached
  options.chunk_payload_budget = 1024;  // ~1 trace of 90 doubles per chunk
  const auto traces = make_traces(12, 31);
  CorpusWriter writer = CorpusWriter::create(path, options);
  for (std::size_t i = 0; i < traces.size(); ++i)
    writer.add(static_cast<std::int32_t>(i), traces[i]);
  writer.close();
  EXPECT_GT(writer.committed_chunks(), 1u);
  CorpusReader reader(path);
  expect_corpus_equals(reader, traces);
}

}  // namespace

#pragma once
// Basic-block translation cache: the block tier of the victim simulator
// (DESIGN.md §6f).
//
// A translated block is a maximal straight-line instruction run starting at
// a jump/branch target and ending at the first control-transfer or system
// instruction (or the program-region boundary / the first undecodable
// word). Each block is translated once — decode, classify and both timing
// costs are resolved at translation time into a flat array of BlockInstr
// micro-ops — and then executed by Machine::run_translated's threaded
// dispatch loop, one plain handler per Op, without any per-instruction
// fetch, decode or budget checks. Stores into a block's word range drop the
// block; the next dispatch at its entry retranslates from current memory,
// so self-modifying code stays byte-identical to the decode-per-step
// reference.

#include <cstdint>
#include <vector>

#include "riscv/isa.hpp"

namespace reveal::riscv {

struct TimingModel;

/// One translated micro-op: every field the block executor needs, resolved
/// at translation time so the dispatch loop does no decode/classify/timing
/// work per retirement.
struct BlockInstr {
  std::uint32_t pc = 0;
  std::int32_t imm = 0;
  std::uint32_t cycles_taken = 0;  ///< branch micro-ops: the taken-path cost
  std::uint32_t cycles_not_taken = 0;
  /// Op::kInvalid marks the synthetic fallthrough-exit micro-op appended
  /// when a block ends at the region boundary or before an undecodable
  /// word (translated blocks never contain a real invalid instruction, so
  /// the slot is free); its pc is the next fetch address.
  Op op = Op::kInvalid;
  InstrClass klass = InstrClass::kSystem;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
};

/// One discovered straight-line block: a [first, first+count) run of
/// micro-ops in the cache's pool (count excludes the exit sentinel).
struct TranslatedBlock {
  std::uint32_t start_pc = 0;
  std::uint32_t end_pc = 0;  ///< one past the last translated program word
  std::uint32_t first = 0;   ///< pool index of the first micro-op
  std::uint32_t count = 0;   ///< executable micro-ops (sentinel excluded)
  bool valid = false;        ///< false once a store hit the block's range
};

class BlockCache {
 public:
  /// Longest straight-line run translated into one block; longer runs are
  /// chained through fallthrough-exit sentinels.
  static constexpr std::uint32_t kMaxBlockLen = 512;

  /// Packed-entry value meaning "no live block enters at this word".
  static constexpr std::uint64_t kNoBlock = ~0ULL;

  /// (Re)covers a word-aligned program region, dropping every block.
  void reset(std::uint32_t base, std::uint32_t end);

  /// Drops all blocks; the covered region is kept.
  void clear() noexcept;

  /// The covered program region [base, end) (byte addresses, word
  /// aligned; empty when no program is loaded).
  [[nodiscard]] std::uint32_t base() const noexcept { return base_; }
  [[nodiscard]] std::uint32_t end() const noexcept { return end_; }

  /// A packed entry describes the live block entered at one word, or is
  /// kNoBlock: micro-op count in bits [0,10), pool index in bits [10,40),
  /// block id in bits [40,64). One inline load — the chain fast path of
  /// Machine::run_translated reaches the block's micro-ops without touching
  /// the TranslatedBlock record.
  [[nodiscard]] static constexpr std::uint64_t packed_count(std::uint64_t e) noexcept {
    return e & 0x3FFu;
  }
  [[nodiscard]] static constexpr std::uint64_t packed_first(std::uint64_t e) noexcept {
    return (e >> 10) & 0x3FFFFFFFu;
  }

  /// The packed entry of the block entered at `pc` (word-aligned, inside
  /// the covered region), translating it from `memory` on first use.
  /// Returns kNoBlock when no block can start at pc (the first word does
  /// not decode). May reallocate the pool: re-fetch pool_data() after.
  [[nodiscard]] std::uint64_t lookup_packed(std::uint32_t pc, const std::uint8_t* memory,
                                            const TimingModel& timing);

  /// Base of the micro-op pool; stable until the next lookup_packed()/
  /// reset()/clear().
  [[nodiscard]] const BlockInstr* pool_data() const noexcept { return pool_.data(); }

  /// Base of the packed-entry table (indexed by (pc - base) >> 2); stable
  /// until the next reset() — invalidation and collection only overwrite
  /// entries in place, so a run loop can keep this pointer in a register.
  [[nodiscard]] const std::uint64_t* entry_data() const noexcept { return entry_.data(); }

  /// Drops every block whose translated word range covers `address`
  /// (word-aligned store target). No-op outside the covered region.
  void invalidate_word(std::uint32_t address) noexcept;

  /// Live translated blocks (observability/tests).
  [[nodiscard]] std::size_t block_count() const noexcept { return live_blocks_; }

 private:
  const TranslatedBlock* translate(std::uint32_t pc, const std::uint8_t* memory,
                                   const TimingModel& timing);
  void maybe_collect() noexcept;

  std::uint32_t base_ = 0;
  std::uint32_t end_ = 0;
  std::vector<BlockInstr> pool_;
  std::vector<TranslatedBlock> blocks_;
  /// Per program word: packed {id, first, count} of the block *entered* at
  /// that word, or kNoBlock. Invalidation clears the entry, orphaning the
  /// pool slots until maybe_collect() flushes the cache.
  std::vector<std::uint64_t> entry_;
  std::size_t live_blocks_ = 0;
  std::size_t dead_ops_ = 0;
};

}  // namespace reveal::riscv

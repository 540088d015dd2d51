#include "riscv/block_translator.hpp"

#include <cstring>

#include "riscv/machine.hpp"

namespace reveal::riscv {

namespace {

/// Control transfers and halting instructions end a straight-line block.
/// (kFence and kCsrrs stay mid-block: they fall through, and a CSR trap
/// exits the block executor like any other faulting micro-op.)
[[nodiscard]] constexpr bool is_terminator(Op op) noexcept {
  switch (op) {
    case Op::kJal:
    case Op::kJalr:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kEcall:
    case Op::kEbreak:
      return true;
    default:
      return false;
  }
}

/// Pool size below which the cache never compacts (typical firmware
/// translates to well under this; only self-modification churn grows it).
constexpr std::size_t kCollectMinPool = 16384;

[[nodiscard]] constexpr std::uint64_t pack_entry(std::size_t id, std::uint32_t first,
                                                 std::uint32_t count) noexcept {
  return (static_cast<std::uint64_t>(id) << 40) |
         (static_cast<std::uint64_t>(first) << 10) | count;
}

}  // namespace

void BlockCache::reset(std::uint32_t base, std::uint32_t end) {
  base_ = base;
  end_ = end;
  entry_.assign(end > base ? (end - base) >> 2 : 0, kNoBlock);
  pool_.clear();
  blocks_.clear();
  live_blocks_ = 0;
  dead_ops_ = 0;
}

void BlockCache::clear() noexcept {
  entry_.assign(entry_.size(), kNoBlock);
  pool_.clear();
  blocks_.clear();
  live_blocks_ = 0;
  dead_ops_ = 0;
}

void BlockCache::maybe_collect() noexcept {
  // Dropped blocks orphan their pool slots; flush everything once dead
  // micro-ops dominate a pool worth compacting. Never called while a block
  // executes (only from translate()), so no live BlockInstr pointer can
  // dangle.
  if (pool_.size() >= kCollectMinPool && dead_ops_ * 2 >= pool_.size()) clear();
}

std::uint64_t BlockCache::lookup_packed(std::uint32_t pc, const std::uint8_t* memory,
                                        const TimingModel& timing) {
  const std::uint64_t e = entry_[(pc - base_) >> 2];
  if (e != kNoBlock) return e;
  if (translate(pc, memory, timing) == nullptr) return kNoBlock;
  return entry_[(pc - base_) >> 2];
}

const TranslatedBlock* BlockCache::translate(std::uint32_t pc, const std::uint8_t* memory,
                                             const TimingModel& timing) {
  maybe_collect();
  const auto first = static_cast<std::uint32_t>(pool_.size());
  std::uint32_t count = 0;
  std::uint32_t cursor = pc;
  bool terminated = false;
  while (cursor < end_ && count < kMaxBlockLen) {
    std::uint32_t word;
    std::memcpy(&word, memory + cursor, 4);
    const Instruction ins = decode(word);
    if (ins.op == Op::kInvalid) break;  // undecodable word: block ends before it
    BlockInstr u;
    u.pc = cursor;
    u.imm = ins.imm;
    u.op = ins.op;
    u.klass = classify(ins.op);
    u.cycles_taken = timing.cycles_for(u.klass, true);
    u.cycles_not_taken = timing.cycles_for(u.klass, false);
    u.rd = ins.rd;
    u.rs1 = ins.rs1;
    u.rs2 = ins.rs2;
    pool_.push_back(u);
    ++count;
    cursor += 4;
    if (is_terminator(ins.op)) {
      terminated = true;
      break;
    }
  }
  if (count == 0) {
    // The first word does not decode: no block starts here; the dispatcher
    // falls back to a single decode-from-memory step, which raises the same
    // "illegal instruction" trap as the reference.
    return nullptr;
  }
  if (!terminated) {
    // Synthetic fallthrough exit: hands the pc back to the dispatcher at
    // the region boundary, an undecodable word, or the kMaxBlockLen cap.
    BlockInstr exit_op;
    exit_op.pc = cursor;
    pool_.push_back(exit_op);
  }
  TranslatedBlock block;
  block.start_pc = pc;
  block.end_pc = cursor;
  block.first = first;
  block.count = count;
  block.valid = true;
  entry_[(pc - base_) >> 2] = pack_entry(blocks_.size(), first, count);
  blocks_.push_back(block);
  ++live_blocks_;
  return &blocks_.back();
}

void BlockCache::invalidate_word(std::uint32_t address) noexcept {
  if (live_blocks_ == 0 || address < base_ || address >= end_) return;
  for (TranslatedBlock& block : blocks_) {
    if (!block.valid || address < block.start_pc || address >= block.end_pc) continue;
    block.valid = false;
    entry_[(block.start_pc - base_) >> 2] = kNoBlock;
    --live_blocks_;
    dead_ops_ += block.count + 1;
  }
}

}  // namespace reveal::riscv

#pragma once
// RV32IM instruction-set simulator with a PicoRV32-style multi-cycle timing
// model and an observer hook that reports per-instruction micro-architectural
// activity (register/bus toggles) — the raw material for the power model.
//
// Two execution paths (DESIGN.md §6f), byte-identical in InstrEvent streams
// and machine state:
//
//  * the block tier (default): straight-line blocks are translated once
//    into flat micro-op runs (block_translator.hpp) and executed by a
//    threaded dispatch loop with one plain handler per Op, the observer
//    bound statically (run_with). A store into a translated block's word
//    range drops the block, so self-modifying code re-translates from
//    current memory;
//  * run_reference(): the decode-per-step loop with a virtually dispatched
//    observer — the anchor of the differential tests in
//    tests/test_fast_path.cpp.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "riscv/block_translator.hpp"
#include "riscv/isa.hpp"

namespace reveal::riscv {

/// Per-instruction cycle costs. Defaults approximate the PicoRV32 "regular"
/// configuration (non-pipelined fetch/decode/execute, sequential
/// multiplier) used by the paper's victim at 1.5 MHz.
struct TimingModel {
  std::uint32_t alu = 3;
  std::uint32_t alu_imm = 3;
  std::uint32_t load = 5;
  std::uint32_t store = 5;
  std::uint32_t branch_not_taken = 3;
  std::uint32_t branch_taken = 5;
  std::uint32_t jump = 5;
  std::uint32_t mul = 35;  // bit-serial multiplier
  std::uint32_t div = 40;  // bit-serial divider
  std::uint32_t system = 3;

  [[nodiscard]] std::uint32_t cycles_for(InstrClass klass, bool branch_taken) const noexcept;
};

/// Everything the power model needs to know about one retired instruction.
struct InstrEvent {
  std::uint32_t pc = 0;
  Op op = Op::kInvalid;
  InstrClass klass = InstrClass::kSystem;
  std::uint8_t rd = 0;
  std::uint32_t rs1_val = 0;
  std::uint32_t rs2_val = 0;
  std::uint32_t rd_old = 0;      ///< destination register content before write
  std::uint32_t rd_new = 0;      ///< destination register content after write
  bool rd_written = false;
  bool branch_taken = false;
  std::uint32_t mem_addr = 0;
  std::uint32_t mem_data = 0;    ///< written (stores) or read (loads) value
  bool is_mem_read = false;
  bool is_mem_write = false;
  std::uint32_t cycles = 0;      ///< from the timing model
};

/// Receives one callback per retired instruction.
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;
  virtual void on_instruction(const InstrEvent& event) = 0;
};

/// Statically-dispatched no-op observer for run_with(): the inlined empty
/// callback lets the compiler discard the whole InstrEvent construction.
struct NullExecutionObserver {
  void on_instruction(const InstrEvent&) noexcept {}
};

class Machine {
 public:
  enum class StopReason { kHalt, kInstrLimit, kTrap };

  explicit Machine(std::size_t memory_bytes = 256 * 1024,
                   TimingModel timing = TimingModel{});

  /// Copies program words to `address`, sets the pc there, and makes the
  /// program region the block tier's translation region.
  void load_program(const std::vector<std::uint32_t>& words, std::uint32_t address = 0);

  [[nodiscard]] std::uint32_t reg(Reg r) const noexcept { return regs_[index(r)]; }
  void set_reg(Reg r, std::uint32_t value) noexcept {
    if (r != zero) regs_[index(r)] = value;
  }
  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  void set_pc(std::uint32_t pc) noexcept { pc_ = pc; }

  /// Word-aligned direct memory access for the host (throws on OOB). Host
  /// stores into the program region drop the translated blocks covering
  /// the stored word.
  [[nodiscard]] std::uint32_t load_word(std::uint32_t address) const;
  void store_word(std::uint32_t address, std::uint32_t value);

  /// Executes until EBREAK/ECALL, the instruction limit, or a trap.
  /// Dispatches the observer virtually; a null observer runs run_with()
  /// with a NullExecutionObserver.
  StopReason run(std::uint64_t max_instructions, ExecutionObserver* observer = nullptr);

  /// The capture path: the observer callback binds statically (no virtual
  /// dispatch per retirement). Runs the block tier when it is enabled, the
  /// decode-per-step loop otherwise. Semantics are identical to run() —
  /// same InstrEvent stream, cycles, and trap behaviour.
  template <typename ObserverT>
  StopReason run_with(std::uint64_t max_instructions, ObserverT& observer) {
    halted_ = false;
    trapped_ = false;
    if (block_tier_ && block_cache_.end() > block_cache_.base()) {
      return run_translated(max_instructions, observer);
    }
    for (std::uint64_t i = 0; i < max_instructions; ++i) {
      if (!step_impl(&observer)) {
        return trapped_ ? StopReason::kTrap : StopReason::kHalt;
      }
    }
    return StopReason::kInstrLimit;
  }

  /// Decode-per-step reference loop with a virtually dispatched observer.
  /// Kept as the anchor for the differential fuzz tests and as the
  /// benchmark baseline; produces byte-identical results to run()/run_with().
  StopReason run_reference(std::uint64_t max_instructions,
                           ExecutionObserver* observer = nullptr);

  /// Enables/disables the basic-block translation tier (default on).
  /// Disabled, run_with() decodes every step from memory like
  /// run_reference(). Translated blocks are kept across toggles — store
  /// invalidation runs regardless of mode, so they can never go stale.
  void set_block_tier(bool enabled) noexcept { block_tier_ = enabled; }

  /// Live translated blocks (observability/tests).
  [[nodiscard]] std::size_t translated_block_count() const noexcept {
    return block_cache_.block_count();
  }

  [[nodiscard]] std::uint64_t cycle_count() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t retired_count() const noexcept { return retired_; }
  [[nodiscard]] const std::string& trap_message() const noexcept { return trap_message_; }
  [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }

  /// Resets registers, pc and counters (memory and translated blocks are
  /// preserved).
  void reset() noexcept;

 private:
  [[nodiscard]] bool in_bounds(std::uint32_t address, std::uint32_t size) const noexcept {
    return static_cast<std::uint64_t>(address) + size <= memory_.size();
  }
  bool trap(const std::string& message);

  /// Executes one instruction, decoded from memory; returns false to stop
  /// (halt or trap).
  template <typename ObserverT>
  bool step_impl(ObserverT* observer);

  /// Block-tier run loop: a threaded interpreter over translated blocks.
  /// Block terminators chain straight into the next block's micro-ops
  /// (budget checked once per block entry, counters live in registers
  /// across blocks); unaligned/out-of-region pcs, untranslatable words and
  /// the precise budget tail fall back to single step_impl() steps.
  template <typename ObserverT>
  StopReason run_translated(std::uint64_t max_instructions, ObserverT& observer);

  std::vector<std::uint8_t> memory_;
  std::uint32_t regs_[32] = {};
  std::uint32_t pc_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t retired_ = 0;
  bool halted_ = false;
  bool trapped_ = false;
  std::string trap_message_;
  TimingModel timing_;
  BlockCache block_cache_;  ///< covers the program region of load_program()
  bool block_tier_ = true;
};

namespace detail {
__extension__ typedef __int128 machine_i128;
}  // namespace detail

template <typename ObserverT>
bool Machine::step_impl(ObserverT* observer) {
  if ((pc_ & 3u) != 0 || !in_bounds(pc_, 4)) return trap("instruction fetch fault");
  std::uint32_t word;
  std::memcpy(&word, memory_.data() + pc_, 4);
  const Instruction ins = decode(word);
  if (ins.op == Op::kInvalid) return trap("illegal instruction");
  const InstrClass klass = classify(ins.op);

  InstrEvent ev;
  ev.pc = pc_;
  ev.op = ins.op;
  ev.klass = klass;
  ev.rd = ins.rd;
  ev.rs1_val = regs_[ins.rs1];
  ev.rs2_val = regs_[ins.rs2];

  const std::uint32_t rs1 = ev.rs1_val;
  const std::uint32_t rs2 = ev.rs2_val;
  const auto srs1 = static_cast<std::int32_t>(rs1);
  const auto srs2 = static_cast<std::int32_t>(rs2);
  std::uint32_t next_pc = pc_ + 4;
  std::uint32_t rd_value = 0;
  bool write_rd = false;

  auto mem_load = [&](std::uint32_t addr, std::uint32_t size, bool sign) -> bool {
    if (!in_bounds(addr, size) || (size > 1 && (addr & (size - 1)) != 0)) {
      trap("load access fault");
      return false;
    }
    std::uint32_t raw = 0;
    std::memcpy(&raw, memory_.data() + addr, size);
    if (sign) {
      if (size == 1) raw = static_cast<std::uint32_t>(static_cast<std::int8_t>(raw));
      else if (size == 2) raw = static_cast<std::uint32_t>(static_cast<std::int16_t>(raw));
    }
    rd_value = raw;
    write_rd = true;
    ev.mem_addr = addr;
    ev.mem_data = raw;
    ev.is_mem_read = true;
    return true;
  };

  auto mem_store = [&](std::uint32_t addr, std::uint32_t size) -> bool {
    if (!in_bounds(addr, size) || (size > 1 && (addr & (size - 1)) != 0)) {
      trap("store access fault");
      return false;
    }
    std::memcpy(memory_.data() + addr, &rs2, size);
    block_cache_.invalidate_word(addr);
    ev.mem_addr = addr;
    ev.mem_data = size == 4 ? rs2 : (rs2 & ((1u << (size * 8)) - 1u));
    ev.is_mem_write = true;
    return true;
  };

  switch (ins.op) {
    case Op::kLui: rd_value = static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kAuipc:
      rd_value = pc_ + static_cast<std::uint32_t>(ins.imm);
      write_rd = true;
      break;
    case Op::kJal:
      rd_value = pc_ + 4;
      write_rd = true;
      next_pc = pc_ + static_cast<std::uint32_t>(ins.imm);
      break;
    case Op::kJalr:
      rd_value = pc_ + 4;
      write_rd = true;
      next_pc = (rs1 + static_cast<std::uint32_t>(ins.imm)) & ~1u;
      break;
    case Op::kBeq: ev.branch_taken = rs1 == rs2; break;
    case Op::kBne: ev.branch_taken = rs1 != rs2; break;
    case Op::kBlt: ev.branch_taken = srs1 < srs2; break;
    case Op::kBge: ev.branch_taken = srs1 >= srs2; break;
    case Op::kBltu: ev.branch_taken = rs1 < rs2; break;
    case Op::kBgeu: ev.branch_taken = rs1 >= rs2; break;
    case Op::kLb: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 1, true)) return false; break;
    case Op::kLh: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 2, true)) return false; break;
    case Op::kLw: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 4, false)) return false; break;
    case Op::kLbu: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 1, false)) return false; break;
    case Op::kLhu: if (!mem_load(rs1 + static_cast<std::uint32_t>(ins.imm), 2, false)) return false; break;
    case Op::kSb: if (!mem_store(rs1 + static_cast<std::uint32_t>(ins.imm), 1)) return false; break;
    case Op::kSh: if (!mem_store(rs1 + static_cast<std::uint32_t>(ins.imm), 2)) return false; break;
    case Op::kSw: if (!mem_store(rs1 + static_cast<std::uint32_t>(ins.imm), 4)) return false; break;
    case Op::kAddi: rd_value = rs1 + static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kSlti: rd_value = srs1 < ins.imm ? 1 : 0; write_rd = true; break;
    case Op::kSltiu:
      rd_value = rs1 < static_cast<std::uint32_t>(ins.imm) ? 1 : 0;
      write_rd = true;
      break;
    case Op::kXori: rd_value = rs1 ^ static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kOri: rd_value = rs1 | static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kAndi: rd_value = rs1 & static_cast<std::uint32_t>(ins.imm); write_rd = true; break;
    case Op::kSlli: rd_value = rs1 << (ins.imm & 31); write_rd = true; break;
    case Op::kSrli: rd_value = rs1 >> (ins.imm & 31); write_rd = true; break;
    case Op::kSrai:
      rd_value = static_cast<std::uint32_t>(srs1 >> (ins.imm & 31));
      write_rd = true;
      break;
    case Op::kAdd: rd_value = rs1 + rs2; write_rd = true; break;
    case Op::kSub: rd_value = rs1 - rs2; write_rd = true; break;
    case Op::kSll: rd_value = rs1 << (rs2 & 31); write_rd = true; break;
    case Op::kSlt: rd_value = srs1 < srs2 ? 1 : 0; write_rd = true; break;
    case Op::kSltu: rd_value = rs1 < rs2 ? 1 : 0; write_rd = true; break;
    case Op::kXor: rd_value = rs1 ^ rs2; write_rd = true; break;
    case Op::kSrl: rd_value = rs1 >> (rs2 & 31); write_rd = true; break;
    case Op::kSra: rd_value = static_cast<std::uint32_t>(srs1 >> (rs2 & 31)); write_rd = true; break;
    case Op::kOr: rd_value = rs1 | rs2; write_rd = true; break;
    case Op::kAnd: rd_value = rs1 & rs2; write_rd = true; break;
    case Op::kMul:
      rd_value = static_cast<std::uint32_t>(static_cast<std::int64_t>(srs1) * srs2);
      write_rd = true;
      break;
    case Op::kMulh:
      rd_value = static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(srs1) * static_cast<std::int64_t>(srs2)) >> 32);
      write_rd = true;
      break;
    case Op::kMulhsu:
      rd_value = static_cast<std::uint32_t>(
          (static_cast<detail::machine_i128>(srs1) * static_cast<detail::machine_i128>(rs2)) >> 32);
      write_rd = true;
      break;
    case Op::kMulhu:
      rd_value = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(rs1) * static_cast<std::uint64_t>(rs2)) >> 32);
      write_rd = true;
      break;
    case Op::kDiv:
      if (rs2 == 0) rd_value = ~0u;
      else if (srs1 == INT32_MIN && srs2 == -1) rd_value = static_cast<std::uint32_t>(INT32_MIN);
      else rd_value = static_cast<std::uint32_t>(srs1 / srs2);
      write_rd = true;
      break;
    case Op::kDivu:
      rd_value = rs2 == 0 ? ~0u : rs1 / rs2;
      write_rd = true;
      break;
    case Op::kRem:
      if (rs2 == 0) rd_value = rs1;
      else if (srs1 == INT32_MIN && srs2 == -1) rd_value = 0;
      else rd_value = static_cast<std::uint32_t>(srs1 % srs2);
      write_rd = true;
      break;
    case Op::kRemu:
      rd_value = rs2 == 0 ? rs1 : rs1 % rs2;
      write_rd = true;
      break;
    case Op::kFence: break;
    case Op::kCsrrs: {
      // Zicntr: rdcycle (0xC00), rdinstret (0xC02) and their high halves.
      if (ins.rs1 != 0) return trap("unsupported CSR write");
      const auto csr = static_cast<std::uint32_t>(ins.imm) & 0xFFFu;
      std::uint64_t value = 0;
      switch (csr) {
        case 0xC00: value = cycles_; break;                // cycle
        case 0xC02: value = retired_; break;               // instret
        case 0xC80: value = cycles_ >> 32; break;          // cycleh
        case 0xC82: value = retired_ >> 32; break;         // instreth
        default: return trap("unsupported CSR");
      }
      rd_value = static_cast<std::uint32_t>(value);
      write_rd = true;
      break;
    }
    case Op::kEcall:
    case Op::kEbreak:
      halted_ = true;
      break;
    case Op::kInvalid:
      return trap("illegal instruction");
  }

  if (ev.branch_taken) next_pc = pc_ + static_cast<std::uint32_t>(ins.imm);

  if (write_rd && ins.rd != 0) {
    ev.rd_old = regs_[ins.rd];
    regs_[ins.rd] = rd_value;
    ev.rd_new = rd_value;
    ev.rd_written = true;
  }

  ev.cycles = timing_.cycles_for(klass, ev.branch_taken);
  cycles_ += ev.cycles;
  ++retired_;
  pc_ = next_pc;
  if (observer != nullptr) observer->on_instruction(ev);
  return !halted_;
}

// Threaded block interpreter: each micro-op handler jumps straight to the
// next handler through a per-instantiation label table (token-threaded
// dispatch: one indirect branch per retirement, with a distinct prediction
// site per op). A block terminator charges the whole next block against
// the instruction budget and enters its micro-ops directly, going through
// the chain point only to translate a block or fall back to per-step
// execution — the cycle/retired counters stay in registers across chained
// blocks and are flushed only on halt, trap, or fallback. The observer
// binds statically — with a NullExecutionObserver the InstrEvent
// construction folds away entirely.
template <typename ObserverT>
Machine::StopReason Machine::run_translated(std::uint64_t max_instructions,
                                            ObserverT& observer) {
  std::uint8_t* const mem = memory_.data();
  const std::uint64_t mem_size = memory_.size();
  std::uint64_t cyc = cycles_;
  std::uint64_t ret = retired_;
  std::uint64_t remaining = max_instructions;
  std::uint64_t block_budget = 0;  ///< instructions pre-charged for the block
  std::uint64_t ret_entry = 0;     ///< retired count at block entry
  // The live pc and the block-entry table stay in registers across chained
  // blocks: pc_ is synced only on exit or per-step fallback, so a block
  // transition never round-trips the pc through memory. The entry pointer
  // is stable for the whole run (invalidation overwrites in place).
  std::uint32_t vpc = pc_;
  const std::uint32_t ibase = block_cache_.base();
  const std::uint32_t iend = block_cache_.end();
  const std::uint64_t* const entry = block_cache_.entry_data();
  const BlockInstr* pool = block_cache_.pool_data();
  const BlockInstr* p = nullptr;
  InstrEvent ev;
  std::uint32_t rs1;
  std::uint32_t rs2;

// Labels-as-values is a GNU extension (the header already needs GNU
// __int128), so the pedantic diagnostics don't apply; pop after the last
// computed goto below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
  // Indexed by BlockInstr::op, in enum order (isa.hpp).
  static const void* const kJump[] = {
      &&u_kLui,  &&u_kAuipc,  &&u_kJal,   &&u_kJalr,  &&u_kBeq,   &&u_kBne,
      &&u_kBlt,  &&u_kBge,    &&u_kBltu,  &&u_kBgeu,  &&u_kLb,    &&u_kLh,
      &&u_kLw,   &&u_kLbu,    &&u_kLhu,   &&u_kSb,    &&u_kSh,    &&u_kSw,
      &&u_kAddi, &&u_kSlti,   &&u_kSltiu, &&u_kXori,  &&u_kOri,   &&u_kAndi,
      &&u_kSlli, &&u_kSrli,   &&u_kSrai,  &&u_kAdd,   &&u_kSub,   &&u_kSll,
      &&u_kSlt,  &&u_kSltu,   &&u_kXor,   &&u_kSrl,   &&u_kSra,   &&u_kOr,
      &&u_kAnd,  &&u_kMul,    &&u_kMulh,  &&u_kMulhsu, &&u_kMulhu, &&u_kDiv,
      &&u_kDivu, &&u_kRem,    &&u_kRemu,  &&u_kFence, &&u_kEcall, &&u_kEbreak,
      &&u_kCsrrs, &&u_kInvalid,
  };
  static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                    static_cast<std::size_t>(Op::kInvalid) + 1,
                "jump table must cover every Op");
#define REVEAL_UOP(name) u_##name
#define REVEAL_DISPATCH() goto* kJump[static_cast<std::uint8_t>(p->op)]

reveal_chain:
  // vpc holds the next fetch address; counters are live in cyc/ret. Charge
  // the whole next block against the budget and enter its micro-ops; early
  // exits refund the unexecuted charge. The packed entry keeps the steady
  // state at one load: count and pool index come out of a single 64-bit
  // descriptor, with no dependent TranslatedBlock fetch.
  if ((vpc & 3u) == 0 && vpc >= ibase && vpc < iend) {
    std::uint64_t e = entry[(vpc - ibase) >> 2];
    if (e == BlockCache::kNoBlock) {
      e = block_cache_.lookup_packed(vpc, mem, timing_);
      pool = block_cache_.pool_data();  // translation may reallocate
    }
    const std::uint64_t count = BlockCache::packed_count(e);
    if (e != BlockCache::kNoBlock && count <= remaining) {
      remaining -= count;
      block_budget = count;
      ret_entry = ret;
      p = pool + BlockCache::packed_first(e);
      REVEAL_DISPATCH();
    }
  }
  // Per-step fallback: unaligned/out-of-region pc, an untranslatable word,
  // or the precise tail once fewer instructions remain than the next block
  // would retire. One exact decode-from-memory step, then try to chain
  // again.
  pc_ = vpc;
  cycles_ = cyc;
  retired_ = ret;
  if (remaining == 0) return StopReason::kInstrLimit;
  if (!step_impl(&observer)) {
    return trapped_ ? StopReason::kTrap : StopReason::kHalt;
  }
  --remaining;
  cyc = cycles_;
  ret = retired_;
  vpc = pc_;
  goto reveal_chain;

// Mirrors step_impl field for field: zero-initialized event, source
// registers latched before any destination write.
#define REVEAL_BEGIN() \
  ev = InstrEvent{};   \
  ev.pc = p->pc;       \
  ev.op = p->op;       \
  ev.klass = p->klass; \
  ev.rd = p->rd;       \
  rs1 = regs_[p->rs1]; \
  rs2 = regs_[p->rs2]; \
  ev.rs1_val = rs1;    \
  ev.rs2_val = rs2

#define REVEAL_WRITE_RD(value_expr)          \
  do {                                       \
    const std::uint32_t v_ = (value_expr);   \
    if (p->rd != 0) {                        \
      ev.rd_old = regs_[p->rd];              \
      regs_[p->rd] = v_;                     \
      ev.rd_new = v_;                        \
      ev.rd_written = true;                  \
    }                                        \
  } while (0)

// Every retirement resolves its successor before the observer callback —
// the next micro-op's handler, or for a block terminator the next block's
// entry — so the indirect jump after an out-of-line callback (the
// TraceRecorder of every capture) has its target ready instead of waiting
// on the dependent pool and jump-table loads.
#define REVEAL_RETIRE_NEXT()                                       \
  do {                                                             \
    ev.cycles = p->cycles_not_taken;                               \
    cyc += p->cycles_not_taken;                                    \
    ++ret;                                                         \
    ++p;                                                           \
    const void* const next_ = kJump[static_cast<std::uint8_t>(p->op)]; \
    observer.on_instruction(ev);                                   \
    goto* next_;                                                   \
  } while (0)

// Terminator tail: vpc holds the next fetch address and the terminator has
// retired. The chain point's fast path (a live block that fits the budget)
// runs before the callback; anything else goes through reveal_chain.
#define REVEAL_RETIRE_CHAIN()                                      \
  do {                                                             \
    const void* next_ = &&reveal_chain;                            \
    if ((vpc & 3u) == 0 && vpc >= ibase && vpc < iend) {           \
      const std::uint64_t e_ = entry[(vpc - ibase) >> 2];          \
      const std::uint64_t count_ = BlockCache::packed_count(e_);   \
      if (e_ != BlockCache::kNoBlock && count_ <= remaining) {     \
        remaining -= count_;                                       \
        block_budget = count_;                                     \
        ret_entry = ret;                                           \
        p = pool + BlockCache::packed_first(e_);                   \
        next_ = kJump[static_cast<std::uint8_t>(p->op)];           \
      }                                                            \
    }                                                              \
    observer.on_instruction(ev);                                   \
    goto* next_;                                                   \
  } while (0)

#define REVEAL_SRS1 static_cast<std::int32_t>(rs1)
#define REVEAL_SRS2 static_cast<std::int32_t>(rs2)
#define REVEAL_IMM_U static_cast<std::uint32_t>(p->imm)

#define REVEAL_ALU(name, value_expr) \
  REVEAL_UOP(name) : {               \
    REVEAL_BEGIN();                  \
    REVEAL_WRITE_RD(value_expr);     \
    REVEAL_RETIRE_NEXT();            \
  }

#define REVEAL_BRANCH(name, cond)                                           \
  REVEAL_UOP(name) : {                                                      \
    REVEAL_BEGIN();                                                         \
    ev.branch_taken = (cond);                                               \
    ev.cycles = ev.branch_taken ? p->cycles_taken : p->cycles_not_taken;    \
    cyc += ev.cycles;                                                       \
    ++ret;                                                                  \
    vpc = ev.branch_taken ? p->pc + REVEAL_IMM_U : p->pc + 4;               \
    REVEAL_RETIRE_CHAIN();                                                  \
  }

#define REVEAL_LOAD(name, size, is_signed)                                    \
  REVEAL_UOP(name) : {                                                        \
    REVEAL_BEGIN();                                                           \
    const std::uint32_t addr = rs1 + REVEAL_IMM_U;                            \
    if (static_cast<std::uint64_t>(addr) + (size) > mem_size ||               \
        ((size) > 1 && (addr & ((size)-1)) != 0)) {                           \
      goto reveal_trap_load;                                                  \
    }                                                                         \
    std::uint32_t raw = 0;                                                    \
    std::memcpy(&raw, mem + addr, (size));                                    \
    if ((is_signed) && (size) == 1) {                                         \
      raw = static_cast<std::uint32_t>(static_cast<std::int8_t>(raw));        \
    } else if ((is_signed) && (size) == 2) {                                  \
      raw = static_cast<std::uint32_t>(static_cast<std::int16_t>(raw));       \
    }                                                                         \
    ev.mem_addr = addr;                                                       \
    ev.mem_data = raw;                                                        \
    ev.is_mem_read = true;                                                    \
    REVEAL_WRITE_RD(raw);                                                     \
    REVEAL_RETIRE_NEXT();                                                     \
  }

// A store that lands in the program region retires normally, drops every
// translated block covering the stored word, then exits so the dispatcher
// refetches from current memory — the executing block itself may just have
// been dropped — refunding the block's unexecuted budget charge.
#define REVEAL_STORE(name, size)                                              \
  REVEAL_UOP(name) : {                                                        \
    REVEAL_BEGIN();                                                           \
    const std::uint32_t addr = rs1 + REVEAL_IMM_U;                            \
    if (static_cast<std::uint64_t>(addr) + (size) > mem_size ||               \
        ((size) > 1 && (addr & ((size)-1)) != 0)) {                           \
      goto reveal_trap_store;                                                 \
    }                                                                         \
    std::memcpy(mem + addr, &rs2, (size));                                    \
    ev.mem_addr = addr;                                                       \
    ev.mem_data = (size) == 4 ? rs2 : (rs2 & ((1u << (((size)&3) * 8)) - 1u)); \
    ev.is_mem_write = true;                                                   \
    if (addr >= ibase && addr < iend) {                                       \
      block_cache_.invalidate_word(addr);                                     \
      ev.cycles = p->cycles_not_taken;                                        \
      cyc += p->cycles_not_taken;                                             \
      ++ret;                                                                  \
      vpc = p->pc + 4;                                                        \
      remaining += block_budget - (ret - ret_entry);                          \
      observer.on_instruction(ev);                                            \
      goto reveal_chain;                                                      \
    }                                                                         \
    REVEAL_RETIRE_NEXT();                                                     \
  }

  REVEAL_ALU(kLui, REVEAL_IMM_U)
  REVEAL_ALU(kAuipc, p->pc + REVEAL_IMM_U)

  REVEAL_UOP(kJal) : {
    REVEAL_BEGIN();
    REVEAL_WRITE_RD(p->pc + 4);
    ev.cycles = p->cycles_not_taken;
    cyc += p->cycles_not_taken;
    ++ret;
    vpc = p->pc + REVEAL_IMM_U;
    REVEAL_RETIRE_CHAIN();
  }
  REVEAL_UOP(kJalr) : {
    REVEAL_BEGIN();
    const std::uint32_t target = (rs1 + REVEAL_IMM_U) & ~1u;  // before rd write
    REVEAL_WRITE_RD(p->pc + 4);
    ev.cycles = p->cycles_not_taken;
    cyc += p->cycles_not_taken;
    ++ret;
    vpc = target;
    REVEAL_RETIRE_CHAIN();
  }

  REVEAL_BRANCH(kBeq, rs1 == rs2)
  REVEAL_BRANCH(kBne, rs1 != rs2)
  REVEAL_BRANCH(kBlt, REVEAL_SRS1 < REVEAL_SRS2)
  REVEAL_BRANCH(kBge, REVEAL_SRS1 >= REVEAL_SRS2)
  REVEAL_BRANCH(kBltu, rs1 < rs2)
  REVEAL_BRANCH(kBgeu, rs1 >= rs2)

  REVEAL_LOAD(kLb, 1, true)
  REVEAL_LOAD(kLh, 2, true)
  REVEAL_LOAD(kLw, 4, false)
  REVEAL_LOAD(kLbu, 1, false)
  REVEAL_LOAD(kLhu, 2, false)

  REVEAL_STORE(kSb, 1)
  REVEAL_STORE(kSh, 2)
  REVEAL_STORE(kSw, 4)

  REVEAL_ALU(kAddi, rs1 + REVEAL_IMM_U)
  REVEAL_ALU(kSlti, REVEAL_SRS1 < p->imm ? 1u : 0u)
  REVEAL_ALU(kSltiu, rs1 < REVEAL_IMM_U ? 1u : 0u)
  REVEAL_ALU(kXori, rs1 ^ REVEAL_IMM_U)
  REVEAL_ALU(kOri, rs1 | REVEAL_IMM_U)
  REVEAL_ALU(kAndi, rs1 & REVEAL_IMM_U)
  REVEAL_ALU(kSlli, rs1 << (p->imm & 31))
  REVEAL_ALU(kSrli, rs1 >> (p->imm & 31))
  REVEAL_ALU(kSrai, static_cast<std::uint32_t>(REVEAL_SRS1 >> (p->imm & 31)))
  REVEAL_ALU(kAdd, rs1 + rs2)
  REVEAL_ALU(kSub, rs1 - rs2)
  REVEAL_ALU(kSll, rs1 << (rs2 & 31))
  REVEAL_ALU(kSlt, REVEAL_SRS1 < REVEAL_SRS2 ? 1u : 0u)
  REVEAL_ALU(kSltu, rs1 < rs2 ? 1u : 0u)
  REVEAL_ALU(kXor, rs1 ^ rs2)
  REVEAL_ALU(kSrl, rs1 >> (rs2 & 31))
  REVEAL_ALU(kSra, static_cast<std::uint32_t>(REVEAL_SRS1 >> (rs2 & 31)))
  REVEAL_ALU(kOr, rs1 | rs2)
  REVEAL_ALU(kAnd, rs1 & rs2)
  REVEAL_ALU(kMul,
             static_cast<std::uint32_t>(static_cast<std::int64_t>(REVEAL_SRS1) * REVEAL_SRS2))
  REVEAL_ALU(kMulh, static_cast<std::uint32_t>((static_cast<std::int64_t>(REVEAL_SRS1) *
                                                static_cast<std::int64_t>(REVEAL_SRS2)) >>
                                               32))
  REVEAL_ALU(kMulhsu,
             static_cast<std::uint32_t>((static_cast<detail::machine_i128>(REVEAL_SRS1) *
                                         static_cast<detail::machine_i128>(rs2)) >>
                                        32))
  REVEAL_ALU(kMulhu, static_cast<std::uint32_t>(
                         (static_cast<std::uint64_t>(rs1) * static_cast<std::uint64_t>(rs2)) >> 32))

  REVEAL_UOP(kDiv) : {
    REVEAL_BEGIN();
    std::uint32_t q;
    if (rs2 == 0) {
      q = ~0u;
    } else if (REVEAL_SRS1 == INT32_MIN && REVEAL_SRS2 == -1) {
      q = static_cast<std::uint32_t>(INT32_MIN);
    } else {
      q = static_cast<std::uint32_t>(REVEAL_SRS1 / REVEAL_SRS2);
    }
    REVEAL_WRITE_RD(q);
    REVEAL_RETIRE_NEXT();
  }
  REVEAL_UOP(kDivu) : {
    REVEAL_BEGIN();
    REVEAL_WRITE_RD(rs2 == 0 ? ~0u : rs1 / rs2);
    REVEAL_RETIRE_NEXT();
  }
  REVEAL_UOP(kRem) : {
    REVEAL_BEGIN();
    std::uint32_t r;
    if (rs2 == 0) {
      r = rs1;
    } else if (REVEAL_SRS1 == INT32_MIN && REVEAL_SRS2 == -1) {
      r = 0;
    } else {
      r = static_cast<std::uint32_t>(REVEAL_SRS1 % REVEAL_SRS2);
    }
    REVEAL_WRITE_RD(r);
    REVEAL_RETIRE_NEXT();
  }
  REVEAL_UOP(kRemu) : {
    REVEAL_BEGIN();
    REVEAL_WRITE_RD(rs2 == 0 ? rs1 : rs1 % rs2);
    REVEAL_RETIRE_NEXT();
  }

  REVEAL_UOP(kFence) : {
    REVEAL_BEGIN();
    REVEAL_RETIRE_NEXT();
  }

  REVEAL_UOP(kCsrrs) : {
    REVEAL_BEGIN();
    if (p->rs1 != 0) goto reveal_trap_csr_write;
    const std::uint32_t csr = REVEAL_IMM_U & 0xFFFu;
    // The local counters equal cycles_/retired_ as-if flushed, so mid-block
    // rdcycle/rdinstret reads stay exact without a block barrier.
    std::uint64_t value;
    switch (csr) {
      case 0xC00: value = cyc; break;
      case 0xC02: value = ret; break;
      case 0xC80: value = cyc >> 32; break;
      case 0xC82: value = ret >> 32; break;
      default: goto reveal_trap_csr;
    }
    REVEAL_WRITE_RD(static_cast<std::uint32_t>(value));
    REVEAL_RETIRE_NEXT();
  }

  REVEAL_UOP(kEcall) : REVEAL_UOP(kEbreak) : {
    REVEAL_BEGIN();
    ev.cycles = p->cycles_not_taken;
    cyc += p->cycles_not_taken;
    ++ret;
    pc_ = p->pc + 4;
    observer.on_instruction(ev);
    halted_ = true;
    cycles_ = cyc;
    retired_ = ret;
    return StopReason::kHalt;
  }

  // Synthetic fallthrough-exit sentinel (block ended at the region
  // boundary, before an undecodable word, or at the length cap): not a
  // retired instruction — hand the next fetch pc back to the chain point
  // (the full block retired, so there is nothing to refund).
  REVEAL_UOP(kInvalid) : {
    vpc = p->pc;
    goto reveal_chain;
  }

  // Trap exits: the faulting instruction does not retire — counters exclude
  // it and pc_ stays at the fault, exactly like an un-advanced step_impl.
reveal_trap_load:
  cycles_ = cyc;
  retired_ = ret;
  pc_ = p->pc;
  trap("load access fault");
  return StopReason::kTrap;

reveal_trap_store:
  cycles_ = cyc;
  retired_ = ret;
  pc_ = p->pc;
  trap("store access fault");
  return StopReason::kTrap;

reveal_trap_csr_write:
  cycles_ = cyc;
  retired_ = ret;
  pc_ = p->pc;
  trap("unsupported CSR write");
  return StopReason::kTrap;

reveal_trap_csr:
  cycles_ = cyc;
  retired_ = ret;
  pc_ = p->pc;
  trap("unsupported CSR");
  return StopReason::kTrap;

#pragma GCC diagnostic pop

#undef REVEAL_UOP
#undef REVEAL_DISPATCH
#undef REVEAL_BEGIN
#undef REVEAL_WRITE_RD
#undef REVEAL_RETIRE_NEXT
#undef REVEAL_RETIRE_CHAIN
#undef REVEAL_SRS1
#undef REVEAL_SRS2
#undef REVEAL_IMM_U
#undef REVEAL_ALU
#undef REVEAL_BRANCH
#undef REVEAL_LOAD
#undef REVEAL_STORE
}

}  // namespace reveal::riscv

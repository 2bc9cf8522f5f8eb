#include "cpu/cpu.hh"

#include "sim/logging.hh"

namespace shrimp
{

Cpu::Cpu(EventQueue &eq, std::string name, Cache &cache, XpressBus &bus,
         MainMemory &mem)
    : ClockedObject(eq, std::move(name), freqHz),
      _cache(cache),
      _bus(bus),
      _mem(mem),
      _execEvent([this] { executeNext(); }, "cpu execute"),
      _stats(this->name())
{}

void
Cpu::resumeAt(Tick when)
{
    reschedule(_execEvent, when, EventPriority::CPU);
}

void
Cpu::suspend()
{
    if (_execEvent.scheduled())
        deschedule(_execEvent);
}

void
Cpu::postInterrupt(InterruptHandler handler)
{
    _pendingInterrupts.push_back(std::move(handler));
    // If no execution event is pending (idle CPU, or one blocked in the
    // kernel), deliver at the next opportunity.
    if (!_execEvent.scheduled())
        resumeAt(clockEdge());
}

Tick
Cpu::chargeKernel(ExecContext *ctx, std::uint64_t instructions)
{
    _kernelInstructions += instructions;
    if (ctx)
        ctx->kernelInstrs += instructions;
    return cyclesToTicks(instructions);
}

void
Cpu::executeNext()
{
    Tick now = curTick();

    // Interrupts are delivered at instruction boundaries and occupy
    // the CPU for their handler's duration.
    if (!_pendingInterrupts.empty()) {
        InterruptHandler handler = std::move(_pendingInterrupts.front());
        _pendingInterrupts.pop_front();
        ++_interrupts;
        Tick done = handler(now);
        SHRIMP_ASSERT(done >= now, "interrupt handler went back in time");
        // Re-enter; remaining interrupts and user code continue then.
        resumeAt(done > now ? done : clockEdge(1));
        return;
    }

    if (!_context || _context->halted || !_context->program)
        return;     // idle; kernel will resume us

    ExecContext &ctx = *_context;
    const Instruction &instr = ctx.program->at(ctx.pc);
    Tick next = executeOne(ctx, instr, now);
    if (next != MAX_TICK)
        resumeAt(next);
}

Tick
Cpu::executeOne(ExecContext &ctx, const Instruction &instr, Tick now)
{
    auto &r = ctx.regs;
    const Tick one_cycle = clockPeriod();
    Tick next = now + one_cycle;
    std::uint32_t next_pc = ctx.pc + 1;
    bool counted = true;

    switch (instr.op) {
      case Opcode::NOP:
        break;

      case Opcode::MARK:
        ctx.currentRegion =
            static_cast<std::uint8_t>(instr.imm) % region::NUM;
        counted = false;
        next = now;     // instrumentation is free
        break;

      case Opcode::HALT:
        ctx.halted = true;
        ++_instructions;
        ctx.totalInstrs++;
        ctx.regionInstrs[ctx.currentRegion]++;
        if (_trapHandler)
            _trapHandler->halted(ctx, now);
        return MAX_TICK;

      case Opcode::MOVI:
        r[instr.rd] = static_cast<std::uint64_t>(instr.imm);
        break;
      case Opcode::MOV:
        r[instr.rd] = r[instr.rs1];
        break;
      case Opcode::ADD:
        r[instr.rd] += r[instr.rs1];
        break;
      case Opcode::ADDI:
        r[instr.rd] += static_cast<std::uint64_t>(instr.imm);
        break;
      case Opcode::SUB:
        r[instr.rd] -= r[instr.rs1];
        break;
      case Opcode::SUBI:
        r[instr.rd] -= static_cast<std::uint64_t>(instr.imm);
        break;
      case Opcode::AND_:
        r[instr.rd] &= r[instr.rs1];
        break;
      case Opcode::ANDI:
        r[instr.rd] &= static_cast<std::uint64_t>(instr.imm);
        break;
      case Opcode::OR_:
        r[instr.rd] |= r[instr.rs1];
        break;
      case Opcode::XOR_:
        r[instr.rd] ^= r[instr.rs1];
        break;
      case Opcode::SHLI:
        r[instr.rd] <<= instr.imm;
        break;
      case Opcode::SHRI:
        r[instr.rd] >>= instr.imm;
        break;
      case Opcode::MUL:
        r[instr.rd] *= r[instr.rs1];
        next = now + cyclesToTicks(3);
        break;

      case Opcode::LD: {
        auto done = doLoad(ctx, instr, now);
        if (!done)
            return MAX_TICK;    // fault path took over
        next = *done;
        break;
      }

      case Opcode::ST:
      case Opcode::STI: {
        auto done = doStore(ctx, instr, now);
        if (!done)
            return MAX_TICK;
        next = *done;
        break;
      }

      case Opcode::CMP: {
        std::uint64_t a = r[instr.rs1], b = r[instr.rs2];
        ctx.zf = a == b;
        ctx.lf = a < b;
        break;
      }
      case Opcode::CMPI: {
        std::uint64_t a = r[instr.rs1];
        std::uint64_t b = static_cast<std::uint64_t>(instr.imm);
        ctx.zf = a == b;
        ctx.lf = a < b;
        break;
      }

      case Opcode::JMP:
        next_pc = static_cast<std::uint32_t>(instr.imm);
        break;
      case Opcode::JZ:
        if (ctx.zf)
            next_pc = static_cast<std::uint32_t>(instr.imm);
        break;
      case Opcode::JNZ:
        if (!ctx.zf)
            next_pc = static_cast<std::uint32_t>(instr.imm);
        break;
      case Opcode::JL:
        if (ctx.lf)
            next_pc = static_cast<std::uint32_t>(instr.imm);
        break;
      case Opcode::JGE:
        if (!ctx.lf)
            next_pc = static_cast<std::uint32_t>(instr.imm);
        break;

      case Opcode::CALL: {
        // Push the return pc onto the stack (4-byte slots).
        r[SP] -= 4;
        Instruction st_ret{Opcode::STI, SP, 0, 0, 4, 0,
                           static_cast<std::int64_t>(ctx.pc + 1)};
        auto done = doStore(ctx, st_ret, now);
        if (!done) {
            r[SP] += 4;     // undo; fault handler retries CALL
            return MAX_TICK;
        }
        next = *done;
        next_pc = static_cast<std::uint32_t>(instr.imm);
        break;
      }

      case Opcode::RET: {
        // Read the return address functionally; charge load timing.
        Translation t = ctx.space->translate(r[SP], false);
        if (!t.ok()) {
            takeFault(ctx, t.fault, r[SP], false, now);
            return MAX_TICK;
        }
        std::uint64_t ret_pc = _bus.functionalRead(t.paddr, 4);
        next = _cache.load(t.paddr, 4, t.policy, now);
        r[SP] += 4;
        next_pc = static_cast<std::uint32_t>(ret_pc);
        break;
      }

      case Opcode::PUSH: {
        r[SP] -= 4;
        Instruction st{Opcode::ST, SP, instr.rs1, 0, 4, 0, 0};
        auto done = doStore(ctx, st, now);
        if (!done) {
            r[SP] += 4;
            return MAX_TICK;
        }
        next = *done;
        break;
      }

      case Opcode::POP: {
        Translation t = ctx.space->translate(r[SP], false);
        if (!t.ok()) {
            takeFault(ctx, t.fault, r[SP], false, now);
            return MAX_TICK;
        }
        r[instr.rd] = _bus.functionalRead(t.paddr, 4);
        next = _cache.load(t.paddr, 4, t.policy, now);
        r[SP] += 4;
        break;
      }

      case Opcode::CMPXCHG: {
        auto done = doCmpxchg(ctx, instr, now);
        if (!done)
            return MAX_TICK;
        next = *done;
        break;
      }

      case Opcode::SYSCALL: {
        ++_instructions;
        ctx.totalInstrs++;
        ctx.regionInstrs[ctx.currentRegion]++;
        ctx.syscalls++;
        ctx.pc = next_pc;
        SHRIMP_ASSERT(_trapHandler, "SYSCALL with no trap handler");
        Tick entered = now + cyclesToTicks(trapEntryCycles);
        auto resume = _trapHandler->syscall(
            ctx, static_cast<std::uint64_t>(instr.imm), entered);
        if (!resume)
            return MAX_TICK;
        return *resume + cyclesToTicks(trapExitCycles);
      }
    }

    if (counted) {
        ++_instructions;
        ctx.totalInstrs++;
        ctx.regionInstrs[ctx.currentRegion]++;
    }
    ctx.pc = next_pc;
    return next;
}

std::optional<Tick>
Cpu::doLoad(ExecContext &ctx, const Instruction &instr, Tick now)
{
    Addr vaddr = ctx.regs[instr.rs1] +
                 static_cast<std::uint64_t>(instr.imm);
    Translation t = ctx.space->translate(vaddr, false);
    if (!t.ok()) {
        takeFault(ctx, t.fault, vaddr, false, now);
        return std::nullopt;
    }
    ctx.regs[instr.rd] = _bus.functionalRead(t.paddr, instr.size);
    return _cache.load(t.paddr, instr.size, t.policy, now);
}

std::optional<Tick>
Cpu::doStore(ExecContext &ctx, const Instruction &instr, Tick now)
{
    // ST: base in rd, value in rs1. STI: base in rd, value in imm2.
    Addr vaddr = ctx.regs[instr.rd] +
                 static_cast<std::uint64_t>(instr.imm);
    Translation t = ctx.space->translate(vaddr, true);
    if (!t.ok()) {
        takeFault(ctx, t.fault, vaddr, true, now);
        return std::nullopt;
    }
    std::uint64_t value = instr.op == Opcode::STI
                              ? static_cast<std::uint64_t>(instr.imm2)
                              : ctx.regs[instr.rs1];
    return _cache.store(t.paddr, &value, instr.size, t.policy, now);
}

std::optional<Tick>
Cpu::doCmpxchg(ExecContext &ctx, const Instruction &instr, Tick now)
{
    Addr vaddr = ctx.regs[instr.rd] +
                 static_cast<std::uint64_t>(instr.imm);
    Translation t = ctx.space->translate(vaddr, true);
    if (!t.ok()) {
        takeFault(ctx, t.fault, vaddr, true, now);
        return std::nullopt;
    }

    // One atomic bus tenure for read + (conditional) write.
    ++_lockedOps;
    XpressBus::Grant grant = _cache.lockedAccess(t.paddr, instr.size, now);
    std::uint64_t current = _bus.functionalRead(t.paddr, instr.size);
    if (current == ctx.regs[R0]) {
        std::uint64_t value = ctx.regs[instr.rs1];
        _bus.functionalWrite(t.paddr, &value, instr.size,
                             BusMaster::CPU);
        ctx.zf = true;
    } else {
        ctx.regs[R0] = current;
        ctx.zf = false;
    }
    return grant.end + clockPeriod();
}

void
Cpu::takeFault(ExecContext &ctx, FaultKind kind, Addr vaddr, bool write,
               Tick now)
{
    ++_faults;
    ctx.faults++;
    SHRIMP_ASSERT(_trapHandler, "memory fault with no trap handler: va=",
                  vaddr, " write=", write);
    Tick entered = now + cyclesToTicks(trapEntryCycles);
    auto resume = _trapHandler->fault(ctx, kind, vaddr, write, entered);
    if (resume)
        resumeAt(*resume + cyclesToTicks(trapExitCycles));
}

} // namespace shrimp

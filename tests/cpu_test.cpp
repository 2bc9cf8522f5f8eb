/**
 * @file
 * Unit tests for the mini-ISA assembler and the Cpu model: ALU ops,
 * branches, memory access through the cache, CALL/RET, CMPXCHG
 * atomics, instruction counting regions, faults, syscalls and
 * interrupts.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/cpu.hh"
#include "cpu/program.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "mem/xpress_bus.hh"
#include "test_util.hh"
#include "vm/address_space.hh"

namespace shrimp
{
namespace
{

struct RecordingHandler : TrapHandler
{
    int halts = 0;
    int syscalls = 0;
    int faults = 0;
    std::uint64_t lastSyscall = 0;
    FaultKind lastFault = FaultKind::NONE;
    Addr lastFaultAddr = 0;
    bool fixFaults = false;
    std::function<void(ExecContext &)> fixer;

    std::optional<Tick>
    syscall(ExecContext &ctx, std::uint64_t num, Tick now) override
    {
        ++syscalls;
        lastSyscall = num;
        ctx.regs[R0] = num * 2;     // visible return value
        return now;
    }

    std::optional<Tick>
    fault(ExecContext &ctx, FaultKind kind, Addr vaddr, bool,
          Tick now) override
    {
        ++faults;
        lastFault = kind;
        lastFaultAddr = vaddr;
        if (fixFaults) {
            if (fixer)
                fixer(ctx);
            return now + ONE_US;    // retry the instruction
        }
        ctx.halted = true;
        return std::nullopt;
    }

    void halted(ExecContext &, Tick) override { ++halts; }
};

struct CpuFixture : ::testing::Test
{
    EventQueue eq;
    MainMemory mem{eq, "mem", 1 * 1024 * 1024};
    XpressBus bus{eq, "bus"};
    Cache cache{eq, "cache", 60'000'000, bus, mem};
    Cpu cpu{eq, "cpu", cache, bus, mem};
    FrameAllocator frames{1, 256};
    AddressSpace space{frames};
    RecordingHandler handler;
    ExecContext ctx;

    void
    SetUp() override
    {
        bus.addTarget(0, mem.size(), &mem);
        cpu.setTrapHandler(&handler);
        ctx.name = "test";
        ctx.pid = 1;
        ctx.space = &space;
    }

    /** Finalize, install and run @p prog to completion. */
    void
    run(Program &prog)
    {
        prog.finalize();
        ctx.program = std::make_shared<Program>(std::move(prog));
        ctx.pc = 0;
        ctx.halted = false;
        cpu.setContext(&ctx);
        cpu.resumeAt(eq.curTick());
        eq.run(2'000'000);
    }
};

TEST_F(CpuFixture, AluAndFlags)
{
    Program p("alu");
    p.movi(R1, 10);
    p.movi(R2, 3);
    p.add(R1, R2);          // 13
    p.subi(R1, 1);          // 12
    p.shli(R1, 2);          // 48
    p.shri(R1, 1);          // 24
    p.andi(R1, 0x1C);       // 24
    p.movi(R3, 5);
    p.mul(R3, R2);          // 15
    p.cmpi(R1, 24);
    p.halt();
    run(p);

    EXPECT_EQ(ctx.regs[R1], 24u);
    EXPECT_EQ(ctx.regs[R3], 15u);
    EXPECT_TRUE(ctx.zf);
    EXPECT_EQ(handler.halts, 1);
}

TEST_F(CpuFixture, BranchesAndLoop)
{
    Program p("loop");
    p.movi(R1, 0);
    p.movi(R2, 10);
    p.label("top");
    p.addi(R1, 1);
    p.cmp(R1, R2);
    p.jl("top");
    p.halt();
    run(p);
    EXPECT_EQ(ctx.regs[R1], 10u);
}

TEST_F(CpuFixture, LoadsAndStores)
{
    Addr buf = space.allocate(1);
    Program p("mem");
    p.movi(R1, buf);
    p.sti(R1, 0, 0x11223344, 4);
    p.ld(R2, R1, 0, 4);
    p.st(R1, 8, R2, 4);
    p.ld(R3, R1, 8, 2);     // partial, little-endian
    p.halt();
    run(p);
    EXPECT_EQ(ctx.regs[R2], 0x11223344u);
    EXPECT_EQ(ctx.regs[R3], 0x3344u);

    Translation t = space.translate(buf, false);
    EXPECT_EQ(mem.readInt(t.paddr + 8, 4), 0x11223344u);
}

TEST_F(CpuFixture, CallRetAndStack)
{
    Addr stack = space.allocate(1);
    Program p("call");
    p.movi(SP, stack + PAGE_SIZE);
    p.movi(R1, 1);
    p.call("fn");
    p.addi(R1, 100);        // runs after return
    p.halt();
    p.label("fn");
    p.push(R1);
    p.movi(R1, 50);
    p.pop(R2);              // old R1
    p.ret();
    run(p);
    EXPECT_EQ(ctx.regs[R1], 150u);
    EXPECT_EQ(ctx.regs[R2], 1u);
    EXPECT_EQ(ctx.regs[SP], stack + PAGE_SIZE);
}

TEST_F(CpuFixture, CmpxchgSemantics)
{
    Addr buf = space.allocate(1);
    Program p("cas");
    p.movi(R1, buf);
    p.sti(R1, 0, 7, 4);

    // Failing CAS: accumulator 0 != 7 -> R0 loaded with 7, ZF clear.
    p.movi(R0, 0);
    p.movi(R2, 99);
    p.cmpxchg(R1, 0, R2, 4);
    p.jz("skip");
    p.mov(R3, R0);          // observe loaded value

    // Succeeding CAS: accumulator 7 == 7 -> mem <- 99, ZF set.
    p.movi(R0, 7);
    p.cmpxchg(R1, 0, R2, 4);
    p.label("skip");
    p.ld(R4, R1, 0, 4);
    p.halt();
    run(p);

    EXPECT_EQ(ctx.regs[R3], 7u);
    EXPECT_EQ(ctx.regs[R4], 99u);
    EXPECT_TRUE(ctx.zf);
}

TEST_F(CpuFixture, RegionCountingMatchesMarks)
{
    Addr buf = space.allocate(1);
    Program p("count");
    p.movi(R1, buf);        // region NONE
    p.mark(region::SEND);
    p.movi(R2, 1);          // SEND 1
    p.sti(R1, 0, 5, 4);     // SEND 2
    p.mark(region::DATA);
    p.ld(R3, R1, 0, 4);     // DATA 1
    p.mark(region::NONE);
    p.halt();
    run(p);

    EXPECT_EQ(ctx.regionCount(region::SEND), 2u);
    EXPECT_EQ(ctx.regionCount(region::DATA), 1u);
    // MARK itself is free: total = movi + 2 + 1 + halt.
    EXPECT_EQ(ctx.totalInstrs, 5u);
}

TEST_F(CpuFixture, SyscallTrapsAndReturns)
{
    Program p("sys");
    p.movi(R1, 123);
    p.syscall(42);
    p.mov(R2, R0);          // return value visible after trap
    p.halt();
    run(p);
    EXPECT_EQ(handler.syscalls, 1);
    EXPECT_EQ(handler.lastSyscall, 42u);
    EXPECT_EQ(ctx.regs[R2], 84u);
}

TEST_F(CpuFixture, UnmappedAccessFaults)
{
    Program p("fault");
    p.movi(R1, 0x7000'0000);
    p.ld(R2, R1, 0, 4);
    p.halt();
    run(p);
    EXPECT_EQ(handler.faults, 1);
    EXPECT_EQ(handler.lastFault, FaultKind::NOT_PRESENT);
    EXPECT_EQ(handler.lastFaultAddr, 0x7000'0000u);
}

TEST_F(CpuFixture, ProtectionFaultRetriesAfterFix)
{
    Addr buf = space.allocate(1, CachePolicy::WRITE_BACK, false);
    handler.fixFaults = true;
    handler.fixer = [&](ExecContext &) {
        space.pageTable().setWritable(pageOf(buf), true);
    };

    Program p("wfault");
    p.movi(R1, buf);
    p.sti(R1, 0, 77, 4);
    p.ld(R2, R1, 0, 4);
    p.halt();
    run(p);

    EXPECT_EQ(handler.faults, 1);
    EXPECT_EQ(handler.lastFault, FaultKind::PROTECTION);
    EXPECT_EQ(ctx.regs[R2], 77u);   // retried store succeeded
}

TEST_F(CpuFixture, InterruptRunsBetweenInstructions)
{
    Program p("intr");
    p.movi(R1, 0);
    for (int i = 0; i < 100; ++i)
        p.addi(R1, 1);
    p.halt();

    bool taken = false;
    eq.scheduleFn(
        [&] {
            cpu.postInterrupt([&](Tick now) {
                taken = true;
                return now + 10 * ONE_US;
            });
        },
        200 * ONE_NS);

    run(p);
    EXPECT_TRUE(taken);
    EXPECT_EQ(ctx.regs[R1], 100u);  // program still completed
    EXPECT_EQ(test::snapshotOf(cpu.statGroup()).at("cpu.interrupts"), 1u);
}

TEST_F(CpuFixture, InterruptDeliveredWhenIdle)
{
    bool taken = false;
    cpu.setContext(nullptr);
    cpu.postInterrupt([&](Tick now) {
        taken = true;
        return now;
    });
    eq.run();
    EXPECT_TRUE(taken);
}

TEST_F(CpuFixture, TimingChargesInstructions)
{
    Program p("time");
    p.movi(R1, 0);
    p.addi(R1, 1);
    p.addi(R1, 1);
    p.halt();
    run(p);
    // 4 instructions at 60 MHz: at least 3 full cycles elapsed.
    EXPECT_GE(eq.curTick(), 3 * cpu.clockPeriod());
    EXPECT_EQ(test::snapshotOf(cpu.statGroup()).at("cpu.instructions"),
              4u);
}

TEST(Program, LabelsResolveAndValidate)
{
    Program p("prog");
    p.jmp("end");
    p.movi(R1, 1);
    p.label("end");
    p.halt();
    p.finalize();
    EXPECT_EQ(p.at(0).imm, 2);      // "end" resolves past movi
    EXPECT_EQ(p.labelAddress("end"), 2u);
    EXPECT_EQ(p.size(), 3u);
}

TEST(Program, UndefinedLabelPanics)
{
    Program p("bad");
    p.jmp("nowhere");
    EXPECT_THROW(p.finalize(), std::logic_error);
}

TEST(Program, DuplicateLabelPanics)
{
    Program p("dup");
    p.label("a");
    p.nop();
    EXPECT_THROW(p.label("a"), std::logic_error);
}

TEST(Program, ExecutingUnfinalizedPanics)
{
    Program p("raw");
    p.nop();
    EXPECT_THROW(p.at(0), std::logic_error);
}

} // namespace
} // namespace shrimp

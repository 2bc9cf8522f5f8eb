/**
 * @file
 * Cpu: an in-order processor executing the mini-ISA against the node's
 * memory hierarchy. One instruction per event; instruction effects are
 * functional-immediate while timing (cache, posted write buffer, bus
 * occupancy, locked-operation serialization) is modeled exactly where
 * the paper's mechanisms depend on it.
 *
 * The kernel hooks in through TrapHandler (syscalls, faults, halt) and
 * postInterrupt() (device interrupts run between instructions). A
 * context switch is just the kernel swapping the ExecContext pointer.
 */

#ifndef SHRIMP_CPU_CPU_HH
#define SHRIMP_CPU_CPU_HH

#include <deque>
#include <functional>
#include <optional>

#include "cpu/exec_context.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "mem/xpress_bus.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace shrimp
{

class Cpu;

/** The kernel's view of CPU traps. */
class TrapHandler
{
  public:
    virtual ~TrapHandler() = default;

    /**
     * A SYSCALL instruction trapped. pc has been advanced past it.
     *
     * @return the tick at which the CPU should continue executing the
     *         (possibly switched) current context, or nullopt if the
     *         kernel suspended execution and will call Cpu::resumeAt()
     *         itself later.
     */
    virtual std::optional<Tick> syscall(ExecContext &ctx,
                                        std::uint64_t num, Tick now) = 0;

    /**
     * A memory access faulted. pc still points at the faulting
     * instruction, so returning a tick retries it (e.g. after the
     * kernel re-established an invalidated mapping, Section 4.4).
     */
    virtual std::optional<Tick> fault(ExecContext &ctx, FaultKind kind,
                                      Addr vaddr, bool write,
                                      Tick now) = 0;

    /** The context executed HALT. */
    virtual void halted(ExecContext &ctx, Tick now) = 0;
};

/**
 * An interrupt handler body: runs on the CPU between instructions at
 * its delivery tick; returns the tick at which the CPU is free again.
 */
using InterruptHandler = std::function<Tick(Tick now)>;

/** In-order mini-ISA processor. */
class Cpu : public ClockedObject
{
  public:
    static constexpr std::uint64_t freqHz = 60'000'000;
    static constexpr unsigned trapEntryCycles = 60; //!< user->kernel crossing
    static constexpr unsigned trapExitCycles = 40;  //!< kernel->user crossing

    Cpu(EventQueue &eq, std::string name, Cache &cache, XpressBus &bus,
        MainMemory &mem);

    void setTrapHandler(TrapHandler *handler) { _trapHandler = handler; }

    /**
     * Install @p ctx as the running context (null idles the CPU).
     * Does not schedule execution; call resumeAt().
     */
    void setContext(ExecContext *ctx) { _context = ctx; }
    ExecContext *context() const { return _context; }

    /** Schedule instruction execution to (re)start at @p when. */
    void resumeAt(Tick when);

    /** Cancel any scheduled execution (kernel suspended the CPU). */
    void suspend();

    /** True if an execution event is pending. */
    bool running() const { return _execEvent.scheduled(); }

    /**
     * Queue an interrupt. Handlers run on the CPU at the next
     * instruction boundary (immediately if the CPU is idle).
     */
    void postInterrupt(InterruptHandler handler);

    /**
     * Charge kernel work: @p instructions of kernel code on behalf of
     * @p ctx (may be null for pure interrupt work).
     *
     * @return the busy time in ticks.
     */
    Tick chargeKernel(ExecContext *ctx, std::uint64_t instructions);

    Cache &cache() { return _cache; }

    stats::Group &statGroup() { return _stats; }

  private:
    void executeNext();

    /** Execute one instruction; returns tick of next issue slot. */
    Tick executeOne(ExecContext &ctx, const Instruction &instr, Tick now);

    /** Memory helpers; return completion tick or nullopt on fault. */
    std::optional<Tick> doLoad(ExecContext &ctx, const Instruction &instr,
                               Tick now);
    std::optional<Tick> doStore(ExecContext &ctx,
                                const Instruction &instr, Tick now);
    std::optional<Tick> doCmpxchg(ExecContext &ctx,
                                  const Instruction &instr, Tick now);

    /** Route a fault to the kernel; reschedules or suspends. */
    void takeFault(ExecContext &ctx, FaultKind kind, Addr vaddr,
                   bool write, Tick now);

    Cache &_cache;
    XpressBus &_bus;
    MainMemory &_mem;
    TrapHandler *_trapHandler = nullptr;
    ExecContext *_context = nullptr;
    std::deque<InterruptHandler> _pendingInterrupts;
    EventFunctionWrapper _execEvent;

    stats::Group _stats;
    stats::Counter _instructions{_stats, "instructions",
                                 "user instructions executed"};
    stats::Counter _kernelInstructions{_stats, "kernelInstructions",
                                       "kernel instructions charged"};
    stats::Counter _interrupts{_stats, "interrupts", "interrupts taken"};
    stats::Counter _faults{_stats, "faults", "memory faults taken"};
    /** Each costs an exclusive bus tenure, which DMA backoff
     *  strategies minimize. */
    stats::Counter _lockedOps{_stats, "lockedOps",
                              "locked bus operations (CMPXCHG)"};
};

} // namespace shrimp

#endif // SHRIMP_CPU_CPU_HH

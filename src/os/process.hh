/**
 * @file
 * Process: one schedulable user process on a node.
 */

#ifndef SHRIMP_OS_PROCESS_HH
#define SHRIMP_OS_PROCESS_HH

#include <memory>
#include <string>

#include "cpu/exec_context.hh"
#include "vm/address_space.hh"

namespace shrimp
{

enum class ProcState : std::uint8_t
{
    READY,
    RUNNING,
    BLOCKED,
    EXITED,
};

const char *procStateName(ProcState s);

/** A user process: context + address space + scheduling state. */
class Process
{
  public:
    Process(Pid pid, std::string name, FrameAllocator &frames)
        : _space(frames)
    {
        ctx.pid = pid;
        ctx.name = std::move(name);
        ctx.space = &_space;
    }

    Pid pid() const { return ctx.pid; }
    const std::string &name() const { return ctx.name; }
    AddressSpace &space() { return _space; }

    /** Load a program and initialize the stack. */
    void
    load(std::shared_ptr<const Program> program, Addr stack_top)
    {
        ctx.program = std::move(program);
        ctx.pc = 0;
        ctx.halted = false;
        ctx.regs[SP] = stack_top;
    }

    /** Allocate user memory in this process's space. */
    Addr
    allocate(std::size_t npages,
             CachePolicy policy = CachePolicy::WRITE_BACK,
             bool writable = true)
    {
        return _space.allocate(npages, policy, writable);
    }

    ExecContext ctx;
    ProcState state = ProcState::READY;

    /**
     * Parallel-job (gang) identity for gang scheduling. Under the
     * default round-robin policy this is ignored -- the SHRIMP design
     * point is precisely that protection does not depend on
     * scheduling, so any policy works (Sections 1-2).
     */
    std::uint32_t gangId = 0;

    /** The kernel tore down this process's mappings (see
     *  Kernel::reapProcess); remote maps to it are refused. */
    bool reaped = false;

  private:
    AddressSpace _space;
};

} // namespace shrimp

#endif // SHRIMP_OS_PROCESS_HH

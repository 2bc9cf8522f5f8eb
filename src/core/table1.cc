#include "core/table1.hh"

#include "core/nx2_setup.hh"
#include "msg/deliberate.hh"
#include "msg/double_buffer.hh"
#include "msg/nx2_user.hh"
#include "msg/single_buffer.hh"
#include "sim/logging.hh"

namespace shrimp
{
namespace table1
{

namespace
{

/** Two processes on a 1x2 mesh. */
struct Pair
{
    ShrimpSystem sys;
    Process *sender;
    Process *receiver;

    Pair()
        : sys([] {
              SystemConfig cfg;
              cfg.meshWidth = 2;
              cfg.meshHeight = 1;
              return cfg;
          }())
    {
        sender = sys.kernel(0).createProcess("sender");
        receiver = sys.kernel(1).createProcess("receiver");
    }

    std::uint32_t
    peek(Process &proc, NodeId node, Addr vaddr)
    {
        Translation t = proc.space().translate(vaddr, false);
        SHRIMP_ASSERT(t.ok(), "peek of unmapped address");
        return static_cast<std::uint32_t>(
            sys.node(node).mem.readInt(t.paddr, 4));
    }

    void
    load(Kernel &kernel, Process &proc, Program &&prog)
    {
        prog.finalize();
        kernel.loadAndReady(
            proc, std::make_shared<Program>(std::move(prog)));
    }
};

/**
 * Busy-wait in the NONE region for roughly 3 * @p iters instructions.
 * Clobbers R2. Steady-state pacing: each side's delay is long enough
 * that the peer's previous action (and its network flight time) has
 * completed before the measured wait executes, so measured spins run
 * exactly once -- the paper's no-contention fast path.
 */
void
emitDelay(Program &p, std::uint32_t iters, const std::string &label)
{
    p.mark(region::NONE);
    p.movi(R2, 0);
    p.label(label);
    p.addi(R2, 1);
    p.cmpi(R2, iters);
    p.jl(label);
}

/** Checksum @p words words at [R1..] into R3 (DATA region). */
void
emitChecksum(Program &p, Addr base, unsigned words,
             std::uint8_t restore_region)
{
    p.mark(region::DATA);
    p.movi(R1, base);
    for (unsigned j = 0; j < words; ++j) {
        p.ld(R0, R1, 4 * j, 4);
        p.add(R3, R0);
    }
    p.mark(restore_region);
}

PrimitiveCost
finishMeasurement(Pair &pair, std::uint64_t messages,
                  std::uint64_t expected_checksum, Addr checksum_out)
{
    pair.sys.startAll();
    bool done = pair.sys.runUntilAllExited(30 * ONE_SEC);
    SHRIMP_ASSERT(done, "table1 scenario did not terminate");
    pair.sys.runFor(5 * ONE_MS);

    PrimitiveCost cost;
    const ExecContext &sc = pair.sender->ctx;
    const ExecContext &rc = pair.receiver->ctx;
    cost.sendPerMsg = static_cast<double>(
                          sc.regionCount(region::SEND)) / messages;
    cost.recvPerMsg = static_cast<double>(
                          rc.regionCount(region::RECV)) / messages;
    cost.dataPerMsg =
        static_cast<double>(sc.regionCount(region::DATA) +
                            rc.regionCount(region::DATA)) /
        messages;
    cost.kernelSendPerMsg = sc.kernelInstrs / messages;
    cost.kernelRecvPerMsg = rc.kernelInstrs / messages;

    std::uint32_t got = pair.peek(*pair.receiver, 1, checksum_out);
    cost.dataOk =
        got == static_cast<std::uint32_t>(expected_checksum);
    return cost;
}

// Pacing: both sides run with the same iteration period, the receiver
// phase-shifted once at startup so that every receiver check happens
// after the corresponding data arrived (worst-case merged packet via
// EISA is ~10 us) and every sender check happens after the previous
// release arrived. Measured waits then always succeed on their first
// check -- the no-contention fast path Table 1 reports.
constexpr std::uint32_t senderDelay = 2000;     // ~100 us at 60 MHz
constexpr std::uint32_t receiverDelay = senderDelay;
constexpr std::uint32_t receiverPhase = 800;    // ~40 us startup shift

} // namespace

// ---------------------------------------------------------------------
// T1.1 / T1.2: single buffering
// ---------------------------------------------------------------------

PrimitiveCost
runSingleBuffering(bool with_copy, std::uint64_t messages,
                   unsigned payload_words)
{
    Pair pair;
    Process &s = *pair.sender;
    Process &r = *pair.receiver;

    Addr sbuf = s.allocate(1);
    Addr sflag = s.allocate(1);
    Addr rbuf = r.allocate(1);
    Addr rflag = r.allocate(1);
    Addr priv = r.allocate(1);      // copy destination
    Addr out = r.allocate(1);       // checksum output

    // Buffer: sender -> receiver, blocked-write (merges the payload).
    // Flag: bidirectional single-write automatic update (Figure 5).
    auto &k0 = pair.sys.kernel(0);
    auto &k1 = pair.sys.kernel(1);
    SHRIMP_ASSERT(k0.mapDirect(s, sbuf, 1, k1, r, rbuf,
                               UpdateMode::AUTO_BLOCK) == err::OK &&
                  k0.mapDirect(s, sflag, 1, k1, r, rflag,
                               UpdateMode::AUTO_SINGLE) == err::OK &&
                  k1.mapDirect(r, rflag, 1, k0, s, sflag,
                               UpdateMode::AUTO_SINGLE) == err::OK,
                  "single-buffer mappings failed");

    std::uint32_t nbytes = payload_words * 4;

    // Sender: wait-empty (3), payload stores (DATA), publish (1).
    Program ps("sb_sender");
    ps.movi(R6, sflag);
    ps.movi(R4, sbuf);
    ps.movi(R5, 0);
    for (std::uint64_t i = 0; i < messages; ++i) {
        std::string tag = "i" + std::to_string(i);
        ps.addi(R5, 1);
        emitDelay(ps, senderDelay, "d" + tag);
        ps.mark(region::SEND);
        msg::emitSbWaitEmpty(ps, "we" + tag);
        ps.mark(region::DATA);
        for (unsigned j = 0; j < payload_words; ++j)
            ps.st(R4, 4 * j, R5, 4);
        ps.mark(region::SEND);
        msg::emitSbPublish(ps, nbytes);
        ps.mark(region::NONE);
    }
    ps.halt();
    pair.load(k0, s, std::move(ps));

    // Receiver: wait-data (4), optional copy-out (12), release (1).
    Program pr("sb_receiver");
    pr.movi(R6, rflag);
    pr.movi(R3, 0);     // checksum accumulator
    emitDelay(pr, receiverPhase, "phase");
    for (std::uint64_t i = 0; i < messages; ++i) {
        std::string tag = "i" + std::to_string(i);
        emitDelay(pr, receiverDelay, "d" + tag);
        pr.mark(region::RECV);
        msg::emitSbWaitData(pr, "wd" + tag);
        if (with_copy)
            msg::emitSbCopyOut(pr, rbuf, priv, region::RECV,
                               "cp" + tag);
        emitChecksum(pr, with_copy ? priv : rbuf, payload_words,
                     region::RECV);
        msg::emitSbRelease(pr);
        pr.mark(region::NONE);
    }
    pr.movi(R1, out);
    pr.st(R1, 0, R3, 4);
    pr.halt();
    pair.load(k1, r, std::move(pr));

    std::uint64_t expected = 0;
    for (std::uint64_t i = 1; i <= messages; ++i)
        expected += i * payload_words;
    return finishMeasurement(pair, messages, expected, out);
}

// ---------------------------------------------------------------------
// T1.3 - T1.5: double buffering
// ---------------------------------------------------------------------

PrimitiveCost
runDoubleBuffering(int case_no, std::uint64_t messages,
                   unsigned payload_words)
{
    SHRIMP_ASSERT(case_no >= 1 && case_no <= 3,
                  "bad double-buffering case ", case_no);
    Pair pair;
    Process &s = *pair.sender;
    Process &r = *pair.receiver;

    // Two data buffers each side plus the synchronization words. The
    // flag page is mapped bidirectionally; each word has exactly one
    // writer: [0] = sender's barrier round, [4] = data-arrival flag
    // (sender writes), [8] = consumption ack (receiver writes),
    // [12] = receiver's barrier round.
    Addr sbuf = s.allocate(2);
    Addr rbuf = r.allocate(2);
    Addr sflags = s.allocate(1);
    Addr rflags = r.allocate(1);
    Addr sack = sflags + 8;         // ack as seen by the sender
    Addr out = r.allocate(1);

    auto &k0 = pair.sys.kernel(0);
    auto &k1 = pair.sys.kernel(1);
    SHRIMP_ASSERT(k0.mapDirect(s, sbuf, 2, k1, r, rbuf,
                               UpdateMode::AUTO_BLOCK) == err::OK &&
                  k0.mapDirect(s, sflags, 1, k1, r, rflags,
                               UpdateMode::AUTO_SINGLE) == err::OK &&
                  k1.mapDirect(r, rflags, 1, k0, s, sflags,
                               UpdateMode::AUTO_SINGLE) == err::OK,
                  "double-buffer mappings failed");

    bool barrier = case_no != 3;

    // Sender. R3 = buffer pointer, R4 = XOR delta, R5 = iteration,
    // R6 = data-flag address, R2 = ack address (case 3).
    Program ps("db_sender");
    ps.movi(R3, sbuf);
    ps.movi(R4, sbuf ^ (sbuf + PAGE_SIZE));
    ps.movi(R5, case_no == 2 ? 0 : 1);
    if (case_no == 3)
        ps.movi(R0, ~std::uint64_t{0});     // becomes 0 first bump
    if (barrier)
        ps.movi(R2, 0);                     // barrier round
    ps.movi(R6, sflags + 4);
    for (std::uint64_t i = 0; i < messages; ++i) {
        std::string tag = "i" + std::to_string(i);
        ps.mark(region::NONE);
        if (case_no == 3) {
            ps.addi(R5, 1);
            ps.addi(R0, 1);     // iteration - 2
            // R2 is clobbered by the delay; reload the ack address.
            emitDelay(ps, senderDelay, "d" + tag);
            ps.movi(R2, sack);
        }
        // Produce this iteration's data into the current buffer.
        ps.mark(region::DATA);
        for (unsigned j = 0; j < payload_words; ++j)
            ps.st(R3, 4 * j, R5, 4);
        ps.mark(region::SEND);
        switch (case_no) {
          case 1:
            msg::emitDbSwap(ps);
            break;
          case 2:
            msg::emitDb2Send(ps);
            break;
          case 3:
            msg::emitDb3Send(ps, "ack" + tag);
            break;
        }
        ps.mark(region::NONE);
        if (barrier) {
            // R2 persists as the barrier round (cases 1/2 have no
            // other use for it); the sender spins on the receiver's
            // round word arriving at sflags+12.
            msg::emitBarrier(ps, sflags, sflags + 12, R2, "b" + tag);
        }
        if (case_no == 1)
            ps.addi(R5, 1);     // iteration value for the data
    }
    ps.halt();
    pair.load(k0, s, std::move(ps));

    // Receiver. R3 = buffer pointer... but R3 doubles as the checksum
    // accumulator elsewhere; here keep checksum in memory at `out`.
    Program pr("db_receiver");
    pr.movi(R3, rbuf);
    pr.movi(R4, rbuf ^ (rbuf + PAGE_SIZE));
    pr.movi(R5, case_no == 2 ? 0 : 1);
    if (barrier)
        pr.movi(R2, 0);                     // barrier round
    pr.movi(R6, rflags + 4);
    if (case_no == 3)
        emitDelay(pr, receiverPhase, "phase");
    for (std::uint64_t i = 0; i < messages; ++i) {
        std::string tag = "i" + std::to_string(i);
        pr.mark(region::NONE);
        if (case_no == 3) {
            pr.addi(R5, 1);
            emitDelay(pr, receiverDelay, "d" + tag);
            pr.movi(R2, rflags + 8);    // ack-out address
        }
        if (barrier)
            msg::emitBarrier(pr, rflags + 12, rflags, R2, "b" + tag);
        pr.mark(region::RECV);
        switch (case_no) {
          case 1:
            msg::emitDbSwap(pr);
            break;
          case 2:
            msg::emitDb2Recv(pr, "df" + tag);
            break;
          case 3:
            msg::emitDb3Recv(pr, "df" + tag);
            break;
        }
        // Consume: add the words of the just-arrived buffer into the
        // running checksum kept at `out`. Case 1 consumes the buffer
        // the swap exposed (sent this iteration; the barrier ordered
        // it); cases 2/3 likewise read the previous buffer pointer,
        // which the swap just moved away from -- i.e. the buffer that
        // carries this iteration's message.
        pr.mark(region::DATA);
        pr.xor_(R3, R4);        // back to the buffer just filled
        pr.movi(R1, out);
        pr.ld(R0, R1, 0, 4);
        pr.push(R4);
        pr.mov(R4, R0);
        for (unsigned j = 0; j < payload_words; ++j) {
            pr.ld(R0, R3, 4 * j, 4);
            pr.add(R4, R0);
        }
        pr.st(R1, 0, R4, 4);
        pr.pop(R4);
        pr.xor_(R3, R4);        // restore the swapped pointer
        pr.mark(region::NONE);
        if (case_no == 1)
            pr.addi(R5, 1);
    }
    pr.halt();
    pair.load(k1, r, std::move(pr));

    std::uint64_t first = case_no == 2 ? 0 : (case_no == 3 ? 2 : 1);
    std::uint64_t expected = 0;
    for (std::uint64_t i = 0; i < messages; ++i)
        expected += (first + i) * payload_words;
    return finishMeasurement(pair, messages, expected, out);
}

// ---------------------------------------------------------------------
// T1.6: deliberate update
// ---------------------------------------------------------------------

PrimitiveCost
runDeliberateUpdate(unsigned payload_words)
{
    Pair pair;
    Process &s = *pair.sender;
    Process &r = *pair.receiver;

    Addr sbuf = s.allocate(1);
    Addr rbuf = r.allocate(1);
    Addr out = r.allocate(1);

    auto &k0 = pair.sys.kernel(0);
    auto &k1 = pair.sys.kernel(1);
    SHRIMP_ASSERT(k0.mapDirect(s, sbuf, 1, k1, r, rbuf,
                               UpdateMode::DELIBERATE) == err::OK,
                  "deliberate mapping failed");
    Addr cmd = k0.mapCommandPages(s, sbuf, 1);
    std::int64_t cmd_delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(sbuf);

    // Sender: fill the buffer (DATA), then the 13-instruction send
    // macro, then -- once the engine is idle again -- one marked
    // 2-instruction completion check. SEND total: 15 (Table 1).
    Program ps("du_sender");
    ps.movi(R4, sbuf);
    ps.mark(region::DATA);
    for (unsigned j = 0; j < payload_words; ++j)
        ps.sti(R4, 4 * j, 0x600d0000 + j, 4);
    ps.mark(region::NONE);
    ps.movi(R3, sbuf);
    ps.movi(R1, payload_words * 4);
    ps.mark(region::SEND);
    msg::emitDeliberateSendSingle(ps, cmd_delta, "du", "du_multi");
    ps.mark(region::NONE);
    ps.label("du_spin");                // unmarked completion wait
    msg::emitDeliberateCheck(ps);
    ps.jnz("du_spin");
    ps.mark(region::SEND);
    msg::emitDeliberateCheck(ps);       // the counted 2-instr check
    ps.mark(region::NONE);
    ps.halt();
    ps.label("du_multi");               // unused single-page case
    ps.halt();
    pair.load(k0, s, std::move(ps));

    // Receiver: spin for the last word, checksum, report.
    Program pr("du_receiver");
    pr.movi(R6, rbuf);
    pr.label("wait");
    pr.ld(R1, R6, 4 * (payload_words - 1), 4);
    pr.cmpi(R1, 0);
    pr.jz("wait");
    pr.movi(R3, 0);
    emitChecksum(pr, rbuf, payload_words, region::NONE);
    pr.movi(R1, out);
    pr.st(R1, 0, R3, 4);
    pr.halt();
    pair.load(k1, r, std::move(pr));

    std::uint64_t expected = 0;
    for (unsigned j = 0; j < payload_words; ++j)
        expected += 0x600d0000 + j;
    return finishMeasurement(pair, 1, expected, out);
}

// ---------------------------------------------------------------------
// T1.7: user-level NX/2
// ---------------------------------------------------------------------

PrimitiveCost
runUserNx2(std::uint64_t messages, unsigned payload_words)
{
    Pair pair;
    Process &s = *pair.sender;
    Process &r = *pair.receiver;

    Nx2Connection conn = setupNx2Connection(pair.sys, 0, s, 1, r);
    Addr sbuf = s.allocate(1);
    Addr rbuf = r.allocate(1);
    Addr out = r.allocate(1);
    constexpr std::uint32_t kType = 17;

    // Sender: prepare the payload (DATA), call csend. The routine
    // attributes its fast path to SEND and the copy to DATA itself.
    Program ps("nx_sender");
    ps.jmp("main");
    msg::emitNx2Csend(ps, conn.sender, "nx_csend");
    ps.label("main");
    ps.movi(R6, 0);     // iteration
    for (std::uint64_t i = 0; i < messages; ++i) {
        std::string tag = "i" + std::to_string(i);
        ps.addi(R6, 1);
        emitDelay(ps, senderDelay, "d" + tag);
        ps.mark(region::DATA);
        ps.movi(R2, sbuf);
        for (unsigned j = 0; j < payload_words; ++j)
            ps.st(R2, 4 * j, R6, 4);
        ps.mark(region::NONE);
        ps.push(R6);
        ps.movi(R1, kType);
        ps.movi(R2, sbuf);
        ps.movi(R3, payload_words * 4);
        ps.call("nx_csend");
        ps.pop(R6);
    }
    ps.halt();
    pair.load(pair.sys.kernel(0), s, std::move(ps));

    Program pr("nx_receiver");
    pr.jmp("main");
    msg::emitNx2Crecv(pr, conn.receiver, "nx_crecv", "nx_err");
    pr.label("nx_err");
    pr.halt();
    pr.label("main");
    pr.movi(R6, 0);
    emitDelay(pr, receiverPhase, "phase");
    for (std::uint64_t i = 0; i < messages; ++i) {
        std::string tag = "i" + std::to_string(i);
        emitDelay(pr, receiverDelay, "d" + tag);
        pr.push(R6);
        pr.movi(R1, kType);
        pr.movi(R2, rbuf);
        pr.call("nx_crecv");
        pr.pop(R6);
        // Accumulate the checksum in memory (DATA).
        pr.mark(region::DATA);
        pr.movi(R1, out);
        pr.ld(R3, R1, 0, 4);
        pr.movi(R2, rbuf);
        for (unsigned j = 0; j < payload_words; ++j) {
            pr.ld(R0, R2, 4 * j, 4);
            pr.add(R3, R0);
        }
        pr.st(R1, 0, R3, 4);
        pr.mark(region::NONE);
    }
    pr.halt();
    pair.load(pair.sys.kernel(1), r, std::move(pr));

    std::uint64_t expected = 0;
    for (std::uint64_t i = 1; i <= messages; ++i)
        expected += i * payload_words;
    return finishMeasurement(pair, messages, expected, out);
}

// ---------------------------------------------------------------------
// C1: kernel-level NX/2 baseline
// ---------------------------------------------------------------------

PrimitiveCost
runKernelNx2(std::uint64_t messages, unsigned payload_words)
{
    Pair pair;
    Process &s = *pair.sender;
    Process &r = *pair.receiver;

    Addr sbuf = s.allocate(1);
    Addr sargs = s.allocate(1);
    Addr rbuf = r.allocate(1);
    Addr rargs = r.allocate(1);
    Addr out = r.allocate(1);
    constexpr std::uint32_t kType = 29;

    auto poke = [&](Process &proc, NodeId node, Addr vaddr,
                    std::uint32_t value) {
        Translation t = proc.space().translate(vaddr, true);
        pair.sys.node(node).mem.writeInt(t.paddr, value, 4);
    };
    poke(s, 0, sargs + 0, kType);
    poke(s, 0, sargs + 4, static_cast<std::uint32_t>(sbuf));
    poke(s, 0, sargs + 8, payload_words * 4);
    poke(s, 0, sargs + 12, 1);
    poke(s, 0, sargs + 16, r.pid());
    poke(r, 1, rargs + 0, kType);
    poke(r, 1, rargs + 4, static_cast<std::uint32_t>(rbuf));
    poke(r, 1, rargs + 8, payload_words * 4);
    poke(r, 1, rargs + 12, 0);
    poke(r, 1, rargs + 16, 0);

    Program ps("nxk_sender");
    ps.movi(R6, 0);
    for (std::uint64_t i = 0; i < messages; ++i) {
        std::string tag = "i" + std::to_string(i);
        ps.addi(R6, 1);
        emitDelay(ps, senderDelay, "d" + tag);
        ps.mark(region::DATA);
        ps.movi(R2, sbuf);
        for (unsigned j = 0; j < payload_words; ++j)
            ps.st(R2, 4 * j, R6, 4);
        ps.mark(region::SEND);
        ps.movi(R1, sargs);
        ps.syscall(sys::NX_CSEND);
        ps.mark(region::NONE);
    }
    ps.halt();
    pair.load(pair.sys.kernel(0), s, std::move(ps));

    Program pr("nxk_receiver");
    emitDelay(pr, receiverPhase, "phase");
    for (std::uint64_t i = 0; i < messages; ++i) {
        std::string tag = "i" + std::to_string(i);
        emitDelay(pr, receiverDelay, "d" + tag);
        pr.mark(region::RECV);
        pr.movi(R1, rargs);
        pr.syscall(sys::NX_CRECV);
        pr.mark(region::DATA);
        pr.movi(R1, out);
        pr.ld(R3, R1, 0, 4);
        pr.movi(R2, rbuf);
        for (unsigned j = 0; j < payload_words; ++j) {
            pr.ld(R0, R2, 4 * j, 4);
            pr.add(R3, R0);
        }
        pr.st(R1, 0, R3, 4);
        pr.mark(region::NONE);
    }
    pr.halt();
    pair.load(pair.sys.kernel(1), r, std::move(pr));

    std::uint64_t expected = 0;
    for (std::uint64_t i = 1; i <= messages; ++i)
        expected += i * payload_words;
    return finishMeasurement(pair, messages, expected, out);
}

} // namespace table1
} // namespace shrimp

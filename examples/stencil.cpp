/**
 * @file
 * Ring exchange: the "typical multicomputer program" of the paper's
 * Figure 1 -- map() calls outside the loop, then an iterate/exchange
 * loop whose communication is ordinary stores.
 *
 * Four nodes hold an 8-word array each and rotate the arrays around
 * the ring once per iteration using single-buffered transfers. After
 * four iterations every array is back home; the example verifies
 * byte-exact delivery through four hops of mappings.
 *
 * Synchronization uses one flag page per ring edge, mapped
 * bidirectionally between the edge's two endpoints with one writer
 * per word: [0] = data flag (upstream writes), [4] = consumption ack
 * (downstream writes).
 *
 * Run: ./stencil
 */

#include <cstdio>
#include <vector>

#include "core/system.hh"

using namespace shrimp;

namespace
{
constexpr unsigned kNodes = 4;
constexpr unsigned kWords = 8;
constexpr unsigned kIters = 4;  // full rotation
} // namespace

int
main()
{
    SystemConfig cfg;
    cfg.meshWidth = kNodes;
    cfg.meshHeight = 1;
    ShrimpSystem sys(cfg);

    struct NodeState
    {
        Process *proc;
        Addr cur, sbuf, rbuf;
        Addr rightEdge;     //!< flag page shared with right neighbour
        Addr leftEdge;      //!< flag page shared with left neighbour
    };
    std::vector<NodeState> nodes(kNodes);

    for (unsigned i = 0; i < kNodes; ++i) {
        Process *p = sys.kernel(i).createProcess("rank" +
                                                 std::to_string(i));
        nodes[i] = {p,
                    p->allocate(1),
                    p->allocate(1),
                    p->allocate(1),
                    p->allocate(1),
                    p->allocate(1)};
    }

    // Mappings, once, outside the loop (Figure 1). Per ring edge
    // i -> right: the data buffer one way, and the edge's flag page
    // both ways (i's rightEdge pairs with right's leftEdge).
    for (unsigned i = 0; i < kNodes; ++i) {
        unsigned right = (i + 1) % kNodes;
        sys.kernel(i).mapDirect(*nodes[i].proc, nodes[i].sbuf, 1,
                                sys.kernel(right), *nodes[right].proc,
                                nodes[right].rbuf,
                                UpdateMode::AUTO_BLOCK);
        sys.kernel(i).mapDirect(*nodes[i].proc, nodes[i].rightEdge, 1,
                                sys.kernel(right), *nodes[right].proc,
                                nodes[right].leftEdge,
                                UpdateMode::AUTO_SINGLE);
        sys.kernel(right).mapDirect(*nodes[right].proc,
                                    nodes[right].leftEdge, 1,
                                    sys.kernel(i), *nodes[i].proc,
                                    nodes[i].rightEdge,
                                    UpdateMode::AUTO_SINGLE);
    }

    // Seed each rank's array.
    for (unsigned i = 0; i < kNodes; ++i) {
        for (unsigned j = 0; j < kWords; ++j) {
            Translation t =
                nodes[i].proc->space().translate(nodes[i].cur + 4 * j,
                                                 true);
            sys.node(i).mem.writeInt(t.paddr, i * 100 + j, 4);
        }
    }

    for (unsigned i = 0; i < kNodes; ++i) {
        const NodeState &ns = nodes[i];
        Program p("rank" + std::to_string(i));

        for (unsigned it = 0; it < kIters; ++it) {
            std::string tag = std::to_string(it);
            // Wait for the right neighbour's ack of our previous
            // message (rightEdge[4], written by the right neighbour).
            p.movi(R1, ns.rightEdge + 4);
            p.label("ackwait" + tag);
            p.ld(R2, R1, 0, 4);
            p.cmpi(R2, it);
            p.jl("ackwait" + tag);
            // Copy cur -> send buffer (the stores are the message).
            for (unsigned j = 0; j < kWords; ++j) {
                p.movi(R1, ns.cur + 4 * j);
                p.ld(R2, R1, 0, 4);
                p.movi(R1, ns.sbuf + 4 * j);
                p.st(R1, 0, R2, 4);
            }
            // Publish to the right: rightEdge[0] (we are its writer).
            p.movi(R1, ns.rightEdge);
            p.sti(R1, 0, it + 1, 4);
            // Wait for the left neighbour's data: leftEdge[0].
            p.movi(R1, ns.leftEdge);
            p.label("datawait" + tag);
            p.ld(R2, R1, 0, 4);
            p.cmpi(R2, it + 1);
            p.jl("datawait" + tag);
            // Adopt the arrived array.
            for (unsigned j = 0; j < kWords; ++j) {
                p.movi(R1, ns.rbuf + 4 * j);
                p.ld(R2, R1, 0, 4);
                p.movi(R1, ns.cur + 4 * j);
                p.st(R1, 0, R2, 4);
            }
            // Ack consumption to the left: leftEdge[4].
            p.movi(R1, ns.leftEdge + 4);
            p.sti(R1, 0, it + 1, 4);
        }
        p.halt();
        p.finalize();
        sys.kernel(i).loadAndReady(
            *ns.proc, std::make_shared<Program>(std::move(p)));
    }

    sys.startAll();
    bool done = sys.runUntilAllExited();
    sys.runFor(ONE_MS);

    bool ok = done;
    for (unsigned i = 0; i < kNodes && ok; ++i) {
        for (unsigned j = 0; j < kWords; ++j) {
            Translation t = nodes[i].proc->space().translate(
                nodes[i].cur + 4 * j, false);
            std::uint64_t v = sys.node(i).mem.readInt(t.paddr, 4);
            if (v != i * 100 + j) {
                std::printf("rank %u word %u: got %llu expected %u\n",
                            i, j, (unsigned long long)v, i * 100 + j);
                ok = false;
            }
        }
    }

    std::uint64_t packets = sys.snapshot().sum("node*.ni.pktsSent");

    std::printf("ring exchange on %u nodes, %u iterations\n", kNodes,
                kIters);
    std::printf("  arrays rotated full circle and verified: %s\n",
                ok ? "yes" : "NO");
    std::printf("  total packets on the backplane: %llu\n",
                (unsigned long long)packets);
    std::printf("  simulated time: %.2f us\n",
                static_cast<double>(sys.curTick()) / ONE_US);
    std::printf("%s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}

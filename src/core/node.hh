/**
 * @file
 * Node: one SHRIMP node -- an Xpress PC (CPU, cache, memory bus,
 * DRAM, EISA expansion bus) plus the SHRIMP network interface and the
 * node kernel, assembled exactly as in Figure 2 of the paper.
 */

#ifndef SHRIMP_CORE_NODE_HH
#define SHRIMP_CORE_NODE_HH

#include <string>

#include "core/config.hh"
#include "cpu/cpu.hh"
#include "mem/cache.hh"
#include "mem/eisa_bus.hh"
#include "mem/main_memory.hh"
#include "mem/xpress_bus.hh"
#include "net/backplane.hh"
#include "nic/shrimp_ni.hh"
#include "os/kernel.hh"

namespace shrimp
{

/** One complete SHRIMP node. */
class Node
{
    // Identity first: the members below use _name in their
    // constructors, and members initialize in declaration order.
    NodeId _id;
    std::string _name;

  public:
    Node(EventQueue &eq, NodeId id, const SystemConfig &cfg,
         MeshBackplane &backplane)
        : _id(id),
          _name("node" + std::to_string(id)),
          mem(eq, _name + ".mem", cfg.memBytesPerNode),
          bus(eq, _name + ".xpress"),
          eisa(eq, _name + ".eisa"),
          cache(eq, _name + ".cache", Cpu::freqHz, bus, mem),
          cpu(eq, _name + ".cpu", cache, bus, mem),
          ni(eq, _name + ".ni", id, cfg.ni, bus, eisa, mem, backplane),
          kernel(eq, _name + ".kernel", id, backplane.numNodes(), cpu,
                 mem, bus, ni, cfg.kernel)
    {
        bus.addTarget(0, mem.size(), &mem);
    }

    NodeId id() const { return _id; }
    const std::string &name() const { return _name; }

    MainMemory mem;
    XpressBus bus;
    EisaBus eisa;
    Cache cache;
    Cpu cpu;
    ShrimpNi ni;
    Kernel kernel;
};

} // namespace shrimp

#endif // SHRIMP_CORE_NODE_HH

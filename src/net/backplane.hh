/**
 * @file
 * MeshBackplane: the Intel Paragon-style routing backplane -- a
 * width x height mesh of Routers with node ids assigned row-major.
 */

#ifndef SHRIMP_NET_BACKPLANE_HH
#define SHRIMP_NET_BACKPLANE_HH

#include <memory>
#include <vector>

#include "net/router.hh"
#include "sim/sim_object.hh"

namespace shrimp
{

/** The 2-D mesh of routers connecting all SHRIMP nodes. */
class MeshBackplane : public SimObject
{
  public:
    MeshBackplane(EventQueue &eq, std::string name, unsigned width,
                  unsigned height, const Router::Params &params);

    unsigned width() const { return _width; }
    unsigned height() const { return _height; }
    unsigned numNodes() const { return _width * _height; }

    /** Mesh coordinates of @p node (row-major ids). */
    unsigned xOf(NodeId node) const { return node % _width; }
    unsigned yOf(NodeId node) const { return node / _width; }

    /** Node id at mesh coordinates. */
    NodeId
    nodeAt(unsigned x, unsigned y) const
    {
        return y * _width + x;
    }

    /** Manhattan hop distance between two nodes. */
    unsigned
    hopDistance(NodeId a, NodeId b) const
    {
        unsigned dx = xOf(a) > xOf(b) ? xOf(a) - xOf(b) : xOf(b) - xOf(a);
        unsigned dy = yOf(a) > yOf(b) ? yOf(a) - yOf(b) : yOf(b) - yOf(a);
        return dx + dy;
    }

    Router &router(NodeId node) { return *_routers.at(node); }

    /**
     * Attach @p faults to every inter-router link in the mesh (each
     * link gets its own seed-salted FaultModel instance, so faults on
     * different links are independent but the run stays deterministic).
     */
    void setLinkFaults(const FaultModel::Params &faults);

    /** Output port on @p from's router facing adjacent node @p to. */
    Router::Port portToward(NodeId from, NodeId to) const;

  private:
    unsigned _width;
    unsigned _height;
    std::vector<std::unique_ptr<Router>> _routers;
};

} // namespace shrimp

#endif // SHRIMP_NET_BACKPLANE_HH

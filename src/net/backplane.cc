#include "net/backplane.hh"

#include "sim/logging.hh"

namespace shrimp
{

MeshBackplane::MeshBackplane(EventQueue &eq, std::string name,
                             unsigned width, unsigned height,
                             const Router::Params &params)
    : SimObject(eq, std::move(name)),
      _width(width),
      _height(height)
{
    SHRIMP_ASSERT(width > 0 && height > 0, "degenerate mesh");

    _routers.reserve(numNodes());
    for (unsigned y = 0; y < height; ++y) {
        for (unsigned x = 0; x < width; ++x) {
            _routers.push_back(std::make_unique<Router>(
                eq,
                this->name() + ".router" + std::to_string(nodeAt(x, y)),
                x, y, params));
        }
    }

    for (unsigned y = 0; y < height; ++y) {
        for (unsigned x = 0; x < width; ++x) {
            Router *r = _routers[nodeAt(x, y)].get();
            if (x + 1 < width) {
                Router *e = _routers[nodeAt(x + 1, y)].get();
                r->connect(Router::EAST, e, Router::WEST);
                e->connect(Router::WEST, r, Router::EAST);
            }
            if (y + 1 < height) {
                Router *s = _routers[nodeAt(x, y + 1)].get();
                r->connect(Router::SOUTH, s, Router::NORTH);
                s->connect(Router::NORTH, r, Router::SOUTH);
            }
        }
    }
}

void
MeshBackplane::setLinkFaults(const FaultModel::Params &faults)
{
    // Attach to every wired output port; edge routers simply have
    // fewer links.
    for (unsigned y = 0; y < _height; ++y) {
        for (unsigned x = 0; x < _width; ++x) {
            Router &r = *_routers[nodeAt(x, y)];
            if (x + 1 < _width)
                r.setFaultModel(Router::EAST, faults);
            if (x > 0)
                r.setFaultModel(Router::WEST, faults);
            if (y + 1 < _height)
                r.setFaultModel(Router::SOUTH, faults);
            if (y > 0)
                r.setFaultModel(Router::NORTH, faults);
        }
    }
}

Router::Port
MeshBackplane::portToward(NodeId from, NodeId to) const
{
    SHRIMP_ASSERT(hopDistance(from, to) == 1,
                  "portToward needs mesh-adjacent nodes, got ", from,
                  " and ", to);
    if (xOf(to) > xOf(from))
        return Router::EAST;
    if (xOf(to) < xOf(from))
        return Router::WEST;
    return yOf(to) > yOf(from) ? Router::SOUTH : Router::NORTH;
}

} // namespace shrimp

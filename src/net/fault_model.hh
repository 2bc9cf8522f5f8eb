/**
 * @file
 * FaultModel: a per-link fault injector for the routing backplane.
 *
 * The paper assumes a reliable backplane; growing the reproduction
 * toward lossy-fabric operation needs a way to exercise the NI's
 * reliability layer. One FaultModel hangs off each router output link
 * and can independently drop, corrupt, duplicate and reorder packets.
 * All decisions come from one seeded RNG (salted per link), so runs
 * are fully deterministic. Whether the link is up at all is the
 * router's state (Router::setLinkDead, Router::forceLinkDown), not
 * the fault model's.
 *
 * The model is a pure decision engine: the Router asks decide() once
 * per actual transmission on a link that is not cut and applies the
 * verdict (and owns the stats counters), so blocked/retried forwards
 * never re-roll the dice.
 */

#ifndef SHRIMP_NET_FAULT_MODEL_HH
#define SHRIMP_NET_FAULT_MODEL_HH

#include <cstdint>

#include "net/packet.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace shrimp
{

/** Fault injector for one router output link. */
class FaultModel
{
  public:
    /** Extra arrival delay of a reordered packet; anything larger
     *  than one serialization time lets successors overtake. */
    static constexpr Tick reorderDelay = 2 * ONE_US;

    struct Params
    {
        double dropProb = 0.0;      //!< packet silently lost on the wire
        double corruptProb = 0.0;   //!< one payload bit flipped
        double duplicateProb = 0.0; //!< packet delivered twice
        double reorderProb = 0.0;   //!< packet overtaken by successors
        std::uint64_t seed = 0x0f00d5eed;

        bool
        any() const
        {
            return dropProb > 0.0 || corruptProb > 0.0 ||
                   duplicateProb > 0.0 || reorderProb > 0.0;
        }
    };

    /**
     * Clamp probabilities outside [0,1], warning about each offender.
     * Every constructor applies this, so a FaultModel can never run
     * with silently meaningless parameters.
     */
    static Params
    validated(Params p)
    {
        auto clampProb = [](double &v, const char *what) {
            if (v < 0.0 || v > 1.0) {
                double fixed = v < 0.0 ? 0.0 : 1.0;
                SHRIMP_WARN("FaultModel: ", what, "=", v,
                            " outside [0,1], clamping to ", fixed);
                v = fixed;
            }
        };
        clampProb(p.dropProb, "dropProb");
        clampProb(p.corruptProb, "corruptProb");
        clampProb(p.duplicateProb, "duplicateProb");
        clampProb(p.reorderProb, "reorderProb");
        return p;
    }

    /** Verdict for one transmission. */
    enum class Action
    {
        PASS,
        DROP,
        CORRUPT,
        DUPLICATE,
        REORDER,
    };

    FaultModel(const Params &params, std::uint64_t link_salt)
        : _params(validated(params)),
          _rng(_params.seed ^ (link_salt * 0x9e3779b97f4a7c15ULL))
    {}

    const Params &params() const { return _params; }

    /**
     * Decide the fate of one transmitted packet. Each fault class is
     * sampled independently in a fixed order; the first hit wins.
     */
    Action
    decide()
    {
        if (_params.dropProb > 0.0 && _rng.chance(_params.dropProb))
            return Action::DROP;
        if (_params.corruptProb > 0.0 && _rng.chance(_params.corruptProb))
            return Action::CORRUPT;
        if (_params.duplicateProb > 0.0 &&
            _rng.chance(_params.duplicateProb)) {
            return Action::DUPLICATE;
        }
        if (_params.reorderProb > 0.0 && _rng.chance(_params.reorderProb))
            return Action::REORDER;
        return Action::PASS;
    }

    /**
     * Corrupt @p pkt in place: flip one payload bit, or a CRC bit when
     * there is no payload. Either way the receiver's CRC check must
     * reject the packet.
     */
    void
    corrupt(NetPacket &pkt)
    {
        if (!pkt.payload.empty()) {
            std::size_t byte = _rng.below(pkt.payload.size());
            pkt.payload[byte] ^=
                static_cast<std::uint8_t>(1u << _rng.below(8));
        } else {
            pkt.crc ^= static_cast<std::uint16_t>(
                1u << _rng.below(16));
        }
    }

  private:
    Params _params;
    Rng _rng;
};

} // namespace shrimp

#endif // SHRIMP_NET_FAULT_MODEL_HH

/**
 * @file
 * FaultModel: a per-link fault injector for the routing backplane.
 *
 * The paper assumes a reliable backplane; growing the reproduction
 * toward lossy-fabric operation needs a way to exercise the NI's
 * reliability layer. One FaultModel hangs off each router output link
 * and can independently drop, corrupt, duplicate and reorder packets,
 * and take the whole link down for a configurable tick window. All
 * decisions come from one seeded RNG (salted per link), so runs are
 * fully deterministic.
 *
 * The model is a pure decision engine: the Router asks decide() once
 * per actual transmission and applies the verdict (and owns the stats
 * counters), so blocked/retried forwards never re-roll the dice.
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
        /** Per-packet chance the link fails for linkDownTicks. */
        double linkDownProb = 0.0;
        Tick linkDownTicks = 100 * ONE_US;
        std::uint64_t seed = 0x0f00d5eed;

        bool
        any() const
        {
            return dropProb > 0.0 || corruptProb > 0.0 ||
                   duplicateProb > 0.0 || reorderProb > 0.0 ||
                   linkDownProb > 0.0;
        }
    };

    /**
     * Clamp out-of-range parameters to sane values, warning about each
     * offender: probabilities outside [0,1] and a zero-length outage
     * window with a nonzero linkDownProb (a no-op outage is always a
     * config bug). Every constructor applies this, so a FaultModel can
     * never run with silently meaningless parameters.
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
        clampProb(p.linkDownProb, "linkDownProb");
        if (p.linkDownProb > 0.0 && p.linkDownTicks == 0) {
            SHRIMP_WARN("FaultModel: linkDownTicks=0 with linkDownProb=",
                        p.linkDownProb, " (outage would be a no-op), "
                        "using the default window instead");
            p.linkDownTicks = 100 * ONE_US;
        }
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
        LINK_DOWN,  //!< lost because the link is in an outage window
    };

    FaultModel(const Params &params, std::uint64_t link_salt)
        : _params(validated(params)),
          _rng(_params.seed ^ (link_salt * 0x9e3779b97f4a7c15ULL))
    {}

    const Params &params() const { return _params; }

    /** Is the link inside an outage window at @p now? */
    bool
    linkDown(Tick now) const
    {
        return now < _downUntil ||
               (now >= _forcedSince && now < _forcedUntil);
    }

    /**
     * Has the link been continuously down for at least @p age ticks at
     * @p now? Fault-tolerant routers use this to decide when a flap has
     * lasted long enough to justify detouring around the link.
     */
    bool
    downLongerThan(Tick now, Tick age) const
    {
        if (now >= _forcedSince && now < _forcedUntil &&
            now - _forcedSince >= age) {
            return true;
        }
        return now < _downUntil && now - _downSince >= age;
    }

    /**
     * Force this direction of the link down from @p now for
     * @p duration ticks (0 = until forceUp()). The reverse direction
     * has its own FaultModel and keeps delivering: this is the runtime
     * primitive behind asymmetric link failures and partition
     * cut-sets. Extends (never shortens) an already-forced outage.
     */
    void
    forceDown(Tick now, Tick duration = 0)
    {
        if (!(now >= _forcedSince && now < _forcedUntil))
            _forcedSince = now;
        _forcedUntil = duration ? now + duration : MAX_TICK;
    }

    /** End a forced outage at @p now (sampled outages are unaffected
     *  and still expire on their own). */
    void
    forceUp(Tick now)
    {
        if (_forcedUntil > now)
            _forcedUntil = now;
    }

    /**
     * Decide the fate of one packet transmitted at @p now. Each fault
     * class is sampled independently in a fixed order; the first hit
     * wins. May start an outage window as a side effect.
     */
    Action
    decide(Tick now)
    {
        if (linkDown(now))
            return Action::LINK_DOWN;
        if (_params.linkDownProb > 0.0 &&
            _rng.chance(_params.linkDownProb)) {
            _downSince = now;
            _downUntil = now + _params.linkDownTicks;
            return Action::LINK_DOWN;   // this packet is the casualty
        }
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
    Tick _downUntil = 0;
    Tick _downSince = 0;
    /** Forced (deterministic) outage window, kept apart from the
     *  sampled one so forceUp() cannot cancel a sampled outage. */
    Tick _forcedSince = 0;
    Tick _forcedUntil = 0;
};

} // namespace shrimp

#endif // SHRIMP_NET_FAULT_MODEL_HH
